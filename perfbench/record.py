#!/usr/bin/env python3
"""Record the reference outputs that the benchmark checks against.

    python3 perfbench/record.py

Writes, under perfbench/reference/:

* ``corpus.tsv``: the sha256 of each corpus program the benchmark runs;
* ``verdicts.tsv``: one PROVEN/UNKNOWN row per corpus program x
  configuration x assert;
* ``dumps.tsv``: the sha256 of ``dump_solution`` per program x
  configuration, for the corpus and for the scaled programs of seeds
  0 .. ``gen.SEEDS`` - 1 (the benchmark takes its seed modulo ``gen.SEEDS``).

The corpus is recorded once per string-hash seed (``PYTHONHASHSEED`` 0 ..
``HASH_SEEDS`` - 1), each in its own process.  Where the dump text depends
on the hash seed, the row lists every digest seen, comma-separated; the
benchmark accepts any of them and reports how many such rows there are.

The references describe what the analyzer computes today.  Re-record only
when a change is meant to alter verdicts or solution dumps, and say so.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
HASH_SEEDS = 8


def record_corpus() -> tuple[list, list, list]:
    from workloads import CORPUS_CONFIGS, analyze, dump_digest

    corpus, verdicts, dumps = [], [], []
    for path in sorted(glob.glob(os.path.join(ROOT, "corpus", "*.conc"))):
        prog = os.path.basename(path)[:-5]
        with open(path, encoding="utf-8") as f:
            text = f.read()
        corpus.append((prog, hashlib.sha256(text.encode()).hexdigest()))
        for cfg, config in CORPUS_CONFIGS.items():
            _, result, vs = analyze(text, prog, config)
            verdicts += [(prog, cfg, str(v.line), v.verdict) for v in vs]
            dumps.append(("corpus", "-", prog, cfg, dump_digest(result)))
    return corpus, verdicts, dumps


def write_tsv(path: str, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"# {header}\n")
        f.writelines("\t".join(r) + "\n" for r in rows)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--corpus-part", help=argparse.SUPPRESS)  # child: corpus rows only
    args = ap.parse_args(argv)
    if args.corpus_part:
        corpus, verdicts, dumps = record_corpus()
        write_tsv(args.corpus_part, "part", [("C",) + r for r in corpus]
                  + [("V",) + r for r in verdicts] + [("D",) + r for r in dumps])
        return 0

    import gen
    from concurrel.analysis import preset
    from workloads import REFERENCE, SCALED_CONFIGS, analyze, dump_digest

    parts = []
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    for h in range(HASH_SEEDS):
        part = os.path.join(HERE, "out", f"record-part-{h}.tsv")
        subprocess.run([sys.executable, os.path.abspath(__file__), "--corpus-part", part],
                       env={**os.environ, "PYTHONHASHSEED": str(h)}, check=True)
        with open(part, encoding="utf-8") as f:
            parts.append([ln.rstrip("\n").split("\t") for ln in f if not ln.startswith("#")])
        os.remove(part)
    corpus = [tuple(r[1:]) for r in parts[0] if r[0] == "C"]
    verdicts = [tuple(r[1:]) for r in parts[0] if r[0] == "V"]
    for p in parts[1:]:
        if [tuple(r[1:]) for r in p if r[0] in "CV"] != corpus + verdicts:
            raise SystemExit("verdicts depend on the string-hash seed")
    seen: dict[tuple, list[str]] = {}
    for p in parts:
        for r in p:
            if r[0] == "D" and r[5] not in seen.setdefault(tuple(r[1:5]), []):
                seen[tuple(r[1:5])].append(r[5])
    dumps = [key + (",".join(sorted(ds)),) for key, ds in seen.items()]
    for seed in range(gen.SEEDS):
        for g in gen.generate_set(seed):
            for cfg in SCALED_CONFIGS:
                _, result, _ = analyze(g.source, g.name, preset(cfg))
                dumps.append(("scaled", str(seed), g.name, cfg, dump_digest(result)))
        print(f"scaled seed {seed} recorded", file=sys.stderr)

    write_tsv(os.path.join(REFERENCE, "corpus.tsv"),
              "program\tsha256 of corpus/<program>.conc", corpus)
    write_tsv(os.path.join(REFERENCE, "verdicts.tsv"),
              "program\tconfiguration\tassert line\tverdict", verdicts)
    write_tsv(os.path.join(REFERENCE, "dumps.tsv"),
              "workload\tseed\tprogram\tconfiguration\tsha256 of dump_solution "
              "(several, comma-separated, where the text depends on the hash seed)", dumps)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
