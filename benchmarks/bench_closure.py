#!/usr/bin/env python3
"""Benchmark the octagon tight-closure kernels: compiled vs pure numpy.

    python benchmarks/bench_closure.py [--sizes 1,2,3,4,5] [--repeat 50]

The closure is the hot inner loop of the octagon domain (it runs before
every restriction, join, comparison and unlift).  Both kernels offer
``tight_close_inplace(m)``, the full tight closure.  Per size, the table
gives its time under each kernel; the compiled one is built, or loaded from
its cache, as the package's first import does (``concurrel.domains._build``).
Octagons are packed to the variables they constrain, so the default sizes
are the pack sizes the analyses close (1 to 5 variables on the generated
benchmark programs); pass larger ones to time full-universe matrices.  Also
times one end-to-end analysis under each available kernel, labelled with the
kernel that ran.
"""

import argparse
import os
import subprocess
import sys
import time

import numpy as np


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


def bench_kernel(close, inputs, repeat: int) -> float:
    """Best-of-3 mean time of ``close(copy of m)`` over ``inputs``."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(repeat):
            for m in inputs:
                close(np.array(m))
        best = min(best, time.perf_counter() - t0)
    return best / (repeat * len(inputs))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sizes", default="1,2,3,4,5")
    ap.add_argument("--repeat", type=int, default=50)
    args = ap.parse_args()

    from concurrel.domains._build import load_compiled
    from concurrel.domains._closure_py import tight_close_inplace as pure

    module = load_compiled()
    compiled = None if module is None else module.tight_close_inplace
    if compiled is None:
        print("compiled kernel could not be built; showing the pure kernel only")

    rng = np.random.default_rng(7)
    kernels = [("pure", pure)] + ([("compiled", compiled)] if compiled else [])
    print(f"{'n vars':>7}" + "".join(f" {name:>10}" for name, _ in kernels))
    for n in (int(s) for s in args.sizes.split(",")):
        inputs = [random_dbm(rng, n) for _ in range(10)]
        row = f"{n:>7}"
        for _, close in kernels:
            row += f" {bench_kernel(close, inputs, args.repeat) * 1e6:>8.1f}µs"
        print(row)

    # end-to-end: one clustered analysis under each available kernel
    corpus = os.path.join(os.path.dirname(__file__), "..", "corpus", "intro_cluster.conc")
    code = (
        "import time; from concurrel.frontend import parse_program;"
        "from concurrel.analysis import run_analysis, preset;"
        "from concurrel.domains import KERNEL;"
        f"p = parse_program(open({corpus!r}).read());"
        "t0 = time.perf_counter();"
        "[run_analysis(p, preset('clusters')) for _ in range(5)];"
        "print(KERNEL, (time.perf_counter() - t0) / 5)"
    )
    envs = [{}] if compiled is None else [{}, {"CONCURREL_PURE": "1"}]
    for env in envs:
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True,
                             env={**os.environ, **env})
        if out.returncode == 0:
            kernel, secs = out.stdout.split()
            print(f"end-to-end clusters analysis ({kernel} kernel): "
                  f"{float(secs) * 1000:.1f} ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
