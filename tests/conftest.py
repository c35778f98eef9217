import copy
import glob
import os
from dataclasses import dataclass

import pytest

from concurrel.analysis import ClusterConfig, MutexKey
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


def with_spec(system, spec):
    """A copy of a constraint system that keys its unknowns with ``spec``;
    it shares the program, domain and clusters of ``system``."""
    system = copy.copy(system)
    system.spec = spec
    return system


def unlock_publishing_nothing(unlock_rhs):
    """A mutation of ``WrappedBaseSystem._unlock_rhs``: the unlock keeps its
    successor but drops its ``MutexKey`` effects, so other threads read
    stale values."""

    def factory(self, edge, src):
        body = unlock_rhs(self, edge, src)
        return lambda view, r: {k: v for k, v in body(view, r).items()
                                if not isinstance(k, MutexKey)}

    return factory


def load(name: str):
    path = corpus_path(name)
    with open(path, "r", encoding="utf-8") as f:
        return parse_program(f.read(), path)


@pytest.fixture(scope="session")
def programs():
    return {name: load(name) for name in (os.path.basename(p)[:-5] for p in CORPUS)}


@pytest.fixture(scope="session")
def explorations(programs):
    """One bounded exploration per corpus program, shared by all tests."""
    return {name: explore(p, ExploreBounds()) for name, p in programs.items()}
