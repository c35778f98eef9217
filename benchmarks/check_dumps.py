#!/usr/bin/env python3
"""Recompute every recorded ``dump_solution`` digest and compare.

    PYTHONPATH=src python benchmarks/check_dumps.py

Reads ``perfbench/reference/dumps.tsv`` (the corpus under 5 configurations
and the scaled programs of every generator seed under 3 presets) and
re-analyzes each row under the closure kernel in use (``KERNEL``; set
``CONCURREL_PURE=1`` for the numpy kernel).  Prints each mismatching row
and the solver and domain counts (interned relations, memo hits) summed
over the corpus rows, over the corpus rows of each configuration of
``CORPUS_CONFIGS`` and over the scaled rows, and exits 1 on any
mismatch.  Runs one worker process per available CPU.
The references are only read, never written; re-record them with
``perfbench/record.py``.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import gen  # noqa: E402
from concurrel.analysis import preset  # noqa: E402
from workloads import CORPUS_CONFIGS, analyze, dump_digest, load_corpus, load_dumps  # noqa: E402


def check_rows(rows: list[tuple[str, str, str, str]]) -> list[tuple]:
    """(row, digest, evaluations, constraints, widenings, relations,
    memo hits) per row."""
    sources = load_corpus(ROOT)
    programs: dict[tuple[str, str], str] = {}
    out = []
    for row in rows:
        workload, seed, prog, cfg = row
        if workload == "corpus":
            _, result, _ = analyze(sources[prog], prog, CORPUS_CONFIGS[cfg])
        else:
            if (seed, prog) not in programs:
                programs.update(((seed, g.name), g.source) for g in gen.generate_set(int(seed)))
            _, result, _ = analyze(programs[seed, prog], prog, preset(cfg))
        st = result.stats()
        out.append((row, dump_digest(result), st["evaluations"], st["constraints"],
                     st["widenings"], st["relations"], st["memo_hits"]))
    return out


def main() -> int:
    from concurrel.domains import KERNEL

    want = load_dumps()
    rows = sorted(want, key=lambda r: (r[0], int(r[1]) if r[1] != "-" else -1, r[2], r[3]))
    # one chunk per scaled seed keeps each worker generating its programs once
    chunks: dict[tuple[str, str], list] = {}
    for r in rows:
        chunks.setdefault((r[0], r[1]), []).append(r)
    jobs = min(len(os.sched_getaffinity(0)), len(chunks))
    with ProcessPoolExecutor(jobs, multiprocessing.get_context("spawn")) as pool:
        results = [x for part in pool.map(check_rows, chunks.values()) for x in part]

    bad = 0
    # the totals of each workload, and the corpus's of each configuration
    totals: dict[str, list[int]] = {}
    for row, digest, *counts in results:
        if digest not in want[row]:
            bad += 1
            print("MISMATCH", *row, digest, sep="\t")
        groups = [row[0]] + ([f"  corpus {row[3]}"] if row[0] == "corpus" else [])
        for group in groups:
            t = totals.setdefault(group, [0] * 6)
            for i, v in enumerate((1, *counts)):
                t[i] += v
    for group in ["corpus", *(f"  corpus {cfg}" for cfg in CORPUS_CONFIGS), "scaled"]:
        if group in totals:
            n, evals, constraints, widened, relations, hits = totals[group]
            print(f"{group}: {n} analyses, {evals} evaluations, {constraints} constraints, "
                  f"{widened} widenings, {relations} relations, {hits} memo hits")
    print(f"kernel={KERNEL}: {len(results) - bad} of {len(results)} dump digests match, "
          f"{bad} differ")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
