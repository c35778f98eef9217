#!/usr/bin/env python3
"""Benchmark the octagon kernel entry points: compiled vs pure numpy.

    python benchmarks/bench_closure.py [--sizes 1,2,3,4,5] [--repeat 50]

The kernel has one entry point per octagon operation (the header of
``src/concurrel/domains/_closure.c`` lists them).  ``leq``, ``join``,
``meet`` and ``widen`` take two matrices of one size, timed here on two
packs over the same variables; ``OctBackend`` first gathers an operand over
other variables with ``bound`` and no entries, so such an operation costs
one more call per operand it aligns.  Only ``bound`` reads a gather map; the
``gather`` row times it with no entries, as a projection; ``contains``
tests a batch of 32 rows, as the differential check passes the distinct
rows of one (point, lockset) group.  Per entry point
and pack size, the table gives the time of one call under each kernel; the
compiled one is built, or loaded from its cache, as the package's first
import does (``concurrel.domains._build``).  The closure,
``tight_close_inplace``, runs only on a fresh raw matrix, the one path from a raw matrix to a value; on
the generated benchmark programs it is about 1% of an analysis.  Its time
here includes the copy of its input.  Octagons are packed to the variables
they constrain, so the default sizes are the pack sizes the analyses use
(1 to 5 variables on the generated benchmark programs); pass larger ones to
time full-universe matrices.  Also times one end-to-end analysis under each
available kernel, labelled with the kernel that ran.
"""

import argparse
import os
import subprocess
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)


def random_dbm(rng: np.random.Generator, n: int) -> np.ndarray:
    m = np.full((2 * n, 2 * n), np.inf)
    np.fill_diagonal(m, 0.0)
    for _ in range(3 * n):
        i, j = rng.integers(0, 2 * n, size=2)
        if i != j:
            c = float(rng.integers(-2, 9))
            m[i, j] = min(m[i, j], c)
            m[j ^ 1, i ^ 1] = m[i, j]
    return m


def closed_dbm(rng: np.random.Generator, n: int, close) -> np.ndarray:
    """A satisfiable closed read-only DBM over n variables, as operands are."""
    while True:
        m = random_dbm(rng, n)
        if close(m) == 0:
            m.setflags(write=False)
            return m


ENTRY_POINTS = ("tight_close_inplace", "leq", "join", "meet", "widen", "gather", "bound", "shift",
                "contains")


ROWS = 32  # the rows of one ``contains`` batch


def calls(kernel, n: int, rng: np.random.Generator) -> dict:
    """Entry point -> list of argument-less calls on packs of n variables."""
    out = {name: [] for name in ENTRY_POINTS}
    for _ in range(10):
        raw = random_dbm(rng, n)
        a, b = closed_dbm(rng, n, kernel.tight_close_inplace), closed_dbm(rng, n, kernel.tight_close_inplace)
        project = tuple(range(n - 1)) if n > 1 else ()
        embed = tuple(range(n)) + (-1,)  # one more variable, as a guard adds
        entries = [0, 2 * n + 1, 3.0, 1, 2 * n, -3.0]
        out["tight_close_inplace"].append(lambda raw=raw: kernel.tight_close_inplace(np.array(raw)))
        out["leq"].append(lambda a=a: kernel.leq(a, a))
        out["join"].append(lambda a=a, b=b: kernel.join(a, b))
        out["meet"].append(lambda a=a, b=b: kernel.meet(a, b))
        out["widen"].append(lambda a=a, b=b: kernel.widen(a, b))
        out["gather"].append(lambda a=a, p=project: kernel.bound(a, p, ()))
        out["bound"].append(lambda a=a, p=embed, e=entries: kernel.bound(a, p, e))
        out["shift"].append(lambda a=a: kernel.shift(a, 0, 3, True))
        rows = rng.integers(-3, 4, size=(ROWS, n + 1))
        out["contains"].append(lambda a=a, r=rows: kernel.contains(a, r, tuple(range(1, n + 1))))
    return out


def bench(fns, repeat: int) -> float:
    """Best-of-3 mean time of one call of ``fns``."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(repeat):
            for fn in fns:
                fn()
        best = min(best, time.perf_counter() - t0)
    return best / (repeat * len(fns))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sizes", default="1,2,3,4,5")
    ap.add_argument("--repeat", type=int, default=50)
    args = ap.parse_args()

    from concurrel.domains import _closure_py
    from concurrel.domains._build import load_compiled

    compiled = load_compiled()
    if compiled is None:
        print("compiled kernel could not be built; showing the pure kernel only")
    kernels = [("pure", _closure_py)] + ([("compiled", compiled)] if compiled else [])
    print(f"{'entry point':>20} {'n vars':>7}" + "".join(f" {name:>10}" for name, _ in kernels))
    sizes = [int(s) for s in args.sizes.split(",")]
    timed = {}
    for name, kernel in kernels:
        for n in sizes:
            for entry, fns in calls(kernel, n, np.random.default_rng(7)).items():
                timed[entry, n, name] = bench(fns, args.repeat)
    for entry in ENTRY_POINTS:
        for n in sizes:
            print(f"{entry:>20} {n:>7}"
                  + "".join(f" {timed[entry, n, name] * 1e6:>8.1f}µs" for name, _ in kernels))

    # end-to-end: one clustered analysis under each available kernel
    corpus = os.path.join(ROOT, "corpus", "intro_cluster.conc")
    code = (
        "import time; from concurrel.frontend import parse_program;"
        "from concurrel.analysis import run_analysis, preset;"
        "from concurrel.domains import KERNEL;"
        f"p = parse_program(open({corpus!r}).read());"
        "t0 = time.perf_counter();"
        "[run_analysis(p, preset('clusters')) for _ in range(5)];"
        "print(KERNEL, (time.perf_counter() - t0) / 5)"
    )
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    envs = [{}] if compiled is None else [{}, {"CONCURREL_PURE": "1"}]
    for env in envs:
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True,
                             env={**os.environ, **env, "PYTHONPATH": path})
        if out.returncode == 0:
            kernel, secs = out.stdout.split()
            print(f"end-to-end clusters analysis ({kernel} kernel): "
                  f"{float(secs) * 1000:.1f} ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
