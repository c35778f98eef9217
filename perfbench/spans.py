"""In-memory span tracing installed from outside the analyzer.

``Tracer.install()`` wraps the public callables of each layer of
``concurrel`` (module functions and class methods) so that every call
records a span: name, start, end and parent span.  Spans live in flat
arrays while the benchmark runs and are written out at the end with
``Tracer.save``.  ``Tracer.uninstall()`` restores the original callables.

A span's self time is its duration minus the durations of its direct
children; summed over a span tree, self times equal the root's duration.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np


def _layer_targets():
    """(span name, owner, attribute) for every wrapped callable."""
    import concurrel.analysis.driver as driver
    import concurrel.analysis.reporting as reporting
    import concurrel.differential as differential
    import concurrel.digests as digests
    import concurrel.domains.octagon as octagon
    import concurrel.frontend.parser as parser
    import concurrel.oracle as oracle
    from concurrel.domains.eqconst import EqBackend
    from concurrel.domains.octagon import OctBackend
    from concurrel.solver import Solver

    out = [
        ("frontend.parse", parser, "parse_program"),
        ("frontend.cfg", driver, "build_cfg"),
        ("frontend.validate", driver, "validate"),
        ("analysis.run", driver, "run_analysis"),
        ("analysis.protections", driver, "compute_protections"),
        ("analysis.asserts", reporting, "check_asserts"),
        ("solver.solve", Solver, "solve"),
        ("domains.closure", octagon, "tight_close_inplace"),
        ("oracle.explore", oracle, "explore"),
        ("differential.check", differential, "check_soundness"),
    ]
    for cls, prefix in ((OctBackend, "domains.oct."), (EqBackend, "domains.eq.")):
        for attr, fn in vars(cls).items():
            if callable(fn) and not attr.startswith("_"):
                out.append((prefix + attr, cls, attr))
    for cls in (digests.DigestSpec, *_subclasses(digests.DigestSpec)):
        for attr in ("init", "unary", "binary", "new_thread", "render"):
            if attr in vars(cls):
                out.append((f"digests.{cls.__name__}.{attr}", cls, attr))
    return out


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []
        self.dbm_dim_max = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[i] = t0
                ends[i] = t1

        return traced

    def span(self, name: str):
        """Context manager recording one span around a block."""
        return _Block(self, self._id(name))

    def install(self) -> None:
        for name, owner, attr in _layer_targets():
            fn = vars(owner)[attr]
            self._saved.append((owner, attr, fn))
            wrapped = self.wrap(name, fn)
            if name == "domains.closure":
                wrapped = self._dim_recorder(wrapped)
            setattr(owner, attr, wrapped)

    def _dim_recorder(self, fn):
        def closure(m):
            if m.shape[0] > self.dbm_dim_max:
                self.dbm_dim_max = m.shape[0]
            return fn(m)

        return closure

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    # -- analysis of the recorded spans --

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    dur = end - start
    child = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    return dur - child


def roots(parent: np.ndarray) -> np.ndarray:
    """Index of the root span of each span's tree."""
    root = np.arange(len(parent))
    up = parent.copy()
    while True:
        live = up >= 0
        if not live.any():
            return root
        root[live] = up[live]
        up[live] = parent[up[live]]


class _Block:
    def __init__(self, tracer: Tracer, nid: int):
        self.t = tracer
        self.nid = nid

    def __enter__(self):
        t = self.t
        self.i = len(t.name)
        t.name.append(self.nid)
        t.parent.append(t._stack[-1])
        t.start.append(0.0)
        t.end.append(0.0)
        t._stack.append(self.i)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        t = self.t
        t._stack.pop()
        t.start[self.i] = self.t0
        t.end[self.i] = t1
        return False
