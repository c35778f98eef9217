import glob
import os
from dataclasses import dataclass

import pytest

from concurrel.analysis import ClusterConfig
from concurrel.frontend import parse_program
from concurrel.oracle import ExploreBounds, explore

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "..", "corpus")
CORPUS = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.conc")))

assert len(CORPUS) >= 12, "corpus incomplete"


def corpus_path(name: str) -> str:
    return os.path.join(CORPUS_DIR, name + ".conc")


@dataclass(frozen=True)
class FixedClusters(ClusterConfig):
    """Cluster families given per mutex, ((mutex, (cluster, ...)), ...);
    every other mutex gets the families of ``mode``."""

    families: tuple[tuple[str, tuple[frozenset, ...]], ...] = ()

    def clusters_for(self, mutex, protected):
        return dict(self.families).get(mutex) or super().clusters_for(mutex, protected)


def load(name: str):
    path = corpus_path(name)
    with open(path, "r", encoding="utf-8") as f:
        return parse_program(f.read(), path)


@pytest.fixture(scope="session")
def programs():
    return {os.path.basename(p)[:-5]: parse_program(open(p).read(), p) for p in CORPUS}


@pytest.fixture(scope="session")
def explorations(programs):
    """One bounded exploration per corpus program, shared by all tests."""
    return {name: explore(p, ExploreBounds()) for name, p in programs.items()}
