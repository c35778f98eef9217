import copy
import glob
import os
from dataclasses import dataclass

import pytest

from concurrel.analysis import ClusterConfig, MutexKey
from concurrel.frontend import parse_program
from concurrel.oracle import ExploreBounds, explore

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
CORPUS_DIR = os.path.join(TESTS_DIR, "..", "corpus")
CORPUS = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.conc")))

assert len(CORPUS) >= 12, "corpus incomplete"


def pytest_collection_modifyitems(items):
    """A test in this directory fails when it leaves a file or another
    resource unclosed: the ResourceWarning is raised when the object is
    collected, and pytest reports it as an unraisable exception."""
    for item in items:
        if str(item.path).startswith(TESTS_DIR + os.sep):
            item.add_marker(pytest.mark.filterwarnings("error::ResourceWarning"))
            item.add_marker(pytest.mark.filterwarnings(
                "error::pytest.PytestUnraisableExceptionWarning"))


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
    it shares the program, domain and clusters of ``system``, but no
    admission that ``system`` kept under its own spec."""
    system = copy.copy(system)
    system.spec = spec
    system._admissions = {}
    return system


def unlock_publishing_nothing(unlock_rhs):
    """A mutation of ``BaseAnalysis._unlock_rhs``: the unlock keeps its
    successor but drops its ``MutexKey`` effects, so other threads read
    stale values.  Patched onto ``BaseAnalysis``, it mutates the unlock of
    the thread-id system too, which inherits it; its users run base presets
    only."""

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
