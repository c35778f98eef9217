#!/usr/bin/env python3
"""Benchmark of the concurrel analyzer: end-to-end metrics or a traced run.

    python3 perfbench/run.py --workload corpus-analyze --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seconds 12 --out perfbench/out/BENCH_x.json

Workloads (see workloads.py): corpus-analyze, scaled-analyze, oracle-validate.
One process, one client, no worker threads: each unit of work starts after
the previous one has finished (a closed loop).  The run repeats whole rounds
over the workload's units until the next round would take the timed work
past ``--seconds`` and at least ten analyses lie above the 90th percentile
of the analysis times.  The first output of each unit is checked, outside
the timed work.

Every time, set-up included, is in host-normalised seconds (hostclock.py):
wall time scaled by the host's speed on a fixed calibration kernel, timed
every 25 ms during the run, so that a shared host's changing speed does not
show as a change of the analyzer.  The report lines give the wall-time
throughput and the host's speed next to them.  Percentiles are
Harrell-Davis estimates (``percentile``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs traced
rounds for the first half of the time and untraced rounds for the second,
prints the per-layer metrics of the traced rounds (self times, counts per
round) with the tracing overhead, and writes the spans to
``perfbench/out/trace-<workload>.npz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code 0 when the
run completed (``correct`` says whether the outputs matched), 2 when it could
not run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("corpus-analyze", "scaled-analyze", "oracle-validate")
SETUP_REPEATS = 5
HARD_LIMIT_S = 150.0  # stop extending a run for samples beyond this
MIN_ROUNDS = 2  # untimed rounds; every unit is timed at least twice
HD_STEPS = 200  # integration cells per order statistic in percentile()


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write the full results as JSON to this file")
    return ap.parse_args(argv)


class Round:
    def __init__(self, traced: bool):
        self.traced = traced
        self.timed_s = 0.0  # normalised seconds (hostclock.py)
        self.wall_s = 0.0
        self.validations = 0
        self.analysis_ms: list[float] = []
        self.counters: dict = {}


def measure(wl, seconds: float, clock, tracer=None):
    """Run whole rounds, checking the first output of each unit; returns
    (rounds, tally, check_counters, peak RSS of the run in MB)."""
    from workloads import Tally, add_counters

    units = wl.units()
    tally = Tally()
    rounds: list[Round] = []
    check_counters: dict = {}
    checked: set = set()
    traced = tracing_run = tracer is not None
    if traced:
        tracer.install()
    phase_end = seconds / 2 if traced else seconds
    gc.collect()
    gc.freeze()  # the set-up's objects stay; the collections below skip them
    timed = 0.0  # the deadline counts timed work only, not the checks
    t_start = time.perf_counter()
    while True:
        rd = Round(traced)
        for unit in units:
            tally.attempted += wl.unit_size
            clock.pause()  # checks and collection between units are not timed
            wall0 = clock.wall
            try:
                with tracer.span("item") if traced else nullcontext():
                    sample = wl.run_unit(unit, clock)
            except Exception as e:  # a failed unit is counted, the run goes on
                tally.failed += wl.unit_size
                tally.problem(f"{unit}: {type(e).__name__}: {e}")
                continue
            rd.timed_s += sample.seconds
            rd.wall_s += clock.wall - wall0
            rd.validations += sample.validations
            rd.analysis_ms += sample.analysis_ms
            for _, _, result, _ in sample.outputs:
                add_counters(rd.counters, result=result)
            for _, ex in sample.explorations:
                add_counters(rd.counters, ex=ex)
            if unit not in checked:
                checked.add(unit)
                check(wl, unit, sample, tally, check_counters, tracer if traced else None)
            # Analysis results hold reference cycles; collecting them here,
            # outside the timed path, keeps one unit's garbage out of the next
            # unit's memory and time.
            del sample
            gc.collect()
        rounds.append(rd)
        timed += rd.timed_s
        if time.perf_counter() - t_start > HARD_LIMIT_S and not traced:
            break
        if timed + rd.timed_s <= phase_end:
            continue
        if traced:
            tracer.uninstall()
            traced = False
            phase_end = seconds
            continue
        if tracing_run:
            break
        if sum(not r.traced for r in rounds) >= MIN_ROUNDS and above_p90(rounds) >= 10:
            break
    if traced:
        tracer.uninstall()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return rounds, tally, check_counters, peak_mb


def check(wl, unit, sample, tally, check_counters, tracer) -> None:
    try:
        with tracer.span("check") if tracer else nullcontext():
            wl.check_unit(unit, sample, tally, check_counters)
    except Exception as e:  # reported; makes the run incorrect
        tally.check_errors += 1
        tally.problem(f"check of {unit}: {type(e).__name__}: {e}")


def above_p90(rounds) -> int:
    samples = [ms for r in rounds if not r.traced for ms in r.analysis_ms]
    if not samples:
        return 0
    p90 = percentile(samples, 90)
    return sum(s > p90 for s in samples)


def percentile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q``-th percentile: a weighted mean of
    all order statistics, with the weight near the ``q``-th.  A round holds
    few distinct analyses whose times form separate clusters; the plain
    sample percentile jumps between two clusters from run to run, this
    estimate does not."""
    import numpy as np

    x = np.sort(np.asarray(values, dtype=np.float64))
    n = len(x)
    a, b = q / 100.0 * (n + 1), (1.0 - q / 100.0) * (n + 1)
    # Weight of order statistic i: the Beta(a, b) mass on ((i-1)/n, i/n),
    # by the midpoint rule on HD_STEPS cells per order statistic.
    mid = (np.arange(n * HD_STEPS) + 0.5) / (n * HD_STEPS)
    log_pdf = (a - 1.0) * np.log(mid) + (b - 1.0) * np.log1p(-mid)
    w = np.exp(log_pdf - log_pdf.max()).reshape(n, HD_STEPS).sum(axis=1)
    return float(w @ x / w.sum())


def end_to_end(wl, rounds, tally, setup_s: float, peak_mb: float) -> tuple[dict, dict]:
    """(metrics of BENCHMARK.json, further figures for the report)."""
    plain = [r for r in rounds if not r.traced]
    samples = [ms for r in plain for ms in r.analysis_ms]
    metrics = {
        "setup_s": (setup_s, "s"),
        "analyses_per_s": (statistics.median(r.validations / r.timed_s for r in plain), "1/s"),
        "analysis_ms_p50": (percentile(samples, 50), "ms"),
        "analysis_ms_p90": (percentile(samples, 90), "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
        "asserts_proven": (tally.asserts_proven, "count"),
        "oracle_checked_states": (tally.oracle_checked_states, "count"),
    }
    extra = {
        "samples": (len(samples), "count"),
        "samples_above_p90": (above_p90(plain), "count"),
        "rounds": (len(plain), "count"),
        "measured_s": (sum(r.timed_s for r in plain), "s"),
        "measured_wall_s": (sum(r.wall_s for r in plain), "s"),
        "host_speed": (sum(r.timed_s for r in plain) / sum(r.wall_s for r in plain), "ratio"),
        "analyses_per_s_wall": (
            statistics.median(r.validations / r.wall_s for r in plain), "1/s"),
        "verdict_mismatches": (tally.verdict_mismatches, "count"),
        "unsound": (tally.unsound, "count"),
        "digest_misses": (tally.digest_misses, "count"),
        "dump_mismatches": (tally.dump_mismatches, "count"),
        "dump_hash_dependent": (tally.dump_hash_dependent, "count"),
        "label_errors": (tally.label_errors, "count"),
        "failed_frac": (tally.failed / max(tally.attempted, 1), "ratio"),
        "oracle_truncated": (tally.oracle_truncated, "count"),
    }
    if wl.name == "oracle-validate":
        extra["validate_s"] = (statistics.median(r.timed_s for r in plain), "s")
    return metrics, extra


OPS = ("join", "meet", "leq", "widen")  # named per op, OctBackend and EqBackend alike


def bucket(span: str) -> str:
    """The per-layer self-time metric a span's self time counts towards."""
    fixed = {
        "frontend.parse": "frontend.parse_ms", "frontend.cfg": "frontend.cfg_ms",
        "frontend.validate": "frontend.validate_ms", "analysis.run": "analysis.run_ms",
        "analysis.protections": "analysis.protections_ms",
        "analysis.asserts": "analysis.asserts_ms", "solver.solve": "solver.self_ms",
        "domains.closure": "domains.closure_ms", "oracle.explore": "oracle.explore_ms",
        "differential.check": "differential.check_ms",
    }
    if span in fixed:
        return fixed[span]
    parts = span.split(".")
    if parts[0] == "domains":
        return f"domains.{parts[2]}_ms" if parts[2] in OPS else "domains.other_ms"
    if parts[0] == "digests":
        return "digests.ms"
    return "bench"  # the benchmark's own item and check spans


def per_layer(tracer, rounds, check_counters) -> dict:
    """Per-layer metrics of the traced rounds, per round.  Times are self
    times, except solver.solve_ms, which includes its children.  Oracle and
    differential figures are per validation pass: per round on
    oracle-validate, per pass of the checks on the other workloads."""
    import numpy as np

    from spans import roots, self_times

    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    n = len(traced)
    a = tracer.arrays()
    names = tracer.names
    own = self_times(a["parent"], a["start"], a["end"])
    in_item = a["name"][roots(a["parent"])] == names.index("item")
    k = len(names)

    def by_name(mask, weights=None):
        return np.bincount(a["name"][mask], weights=None if weights is None else weights[mask],
                           minlength=k)

    item_s, check_s = by_name(in_item, own), by_name(~in_item, own)
    item_calls = by_name(in_item)
    ms: dict[str, float] = {}
    for i, span in enumerate(names):
        b = bucket(span)
        per_pass = b.startswith(("oracle.", "differential."))
        ms[b] = ms.get(b, 0.0) + (item_s[i] / n + (check_s[i] if per_pass else 0.0)) * 1000.0

    def calls(pred) -> float:
        return float(sum(item_calls[i] for i, nm in enumerate(names) if pred(nm))) / n

    def count(key) -> float:
        return sum(r.counters.get(key, 0) for r in traced) / n + check_counters.get(key, 0)

    solve = names.index("solver.solve") if "solver.solve" in names else -1
    solve_mask = in_item & (a["name"] == solve)
    closure_calls = calls(lambda nm: nm == "domains.closure")
    close_calls = calls(lambda nm: nm == "domains.oct.close")
    domains_ms = sum(v for b, v in ms.items() if b.startswith("domains."))
    eq_ms = sum(item_s[i] for i, nm in enumerate(names) if nm.startswith("domains.eq.")) * 1000.0 / n
    explore_ms = ms.get("oracle.explore_ms", 0.0)
    states = count("oracle.states")
    m = {
        "frontend.parse_ms": (ms.get("frontend.parse_ms", 0.0), "ms"),
        "frontend.cfg_ms": (ms.get("frontend.cfg_ms", 0.0), "ms"),
        "frontend.validate_ms": (ms.get("frontend.validate_ms", 0.0), "ms"),
        "frontend.cfg_points": (count("frontend.cfg_points"), "count"),
        "analysis.run_ms": (ms.get("analysis.run_ms", 0.0), "ms"),
        "analysis.protections_ms": (ms.get("analysis.protections_ms", 0.0), "ms"),
        "analysis.asserts_ms": (ms.get("analysis.asserts_ms", 0.0), "ms"),
        "analysis.unknowns": (count("analysis.unknowns"), "count"),
        "solver.solve_ms": (float((a["end"] - a["start"])[solve_mask].sum()) * 1000.0 / n, "ms"),
        "solver.self_ms": (ms.get("solver.self_ms", 0.0), "ms"),
        "solver.evaluations": (count("solver.evaluations"), "count"),
        "solver.widenings": (count("solver.widenings"), "count"),
        "solver.constraints": (count("solver.constraints"), "count"),
        "domains.closure_ms": (ms.get("domains.closure_ms", 0.0), "ms"),
        "domains.closure_calls": (closure_calls, "count"),
        "domains.close_calls": (close_calls, "count"),
        "domains.close_cache_hit_ratio": (
            1.0 - closure_calls / close_calls if close_calls else 0.0, "ratio"),
        "domains.dbm_dim_max": (tracer.dbm_dim_max, "count"),
    }
    for op in OPS:
        m[f"domains.{op}_ms"] = (ms.get(f"domains.{op}_ms", 0.0), "ms")
        m[f"domains.{op}_calls"] = (
            calls(lambda nm, op=op: nm.startswith("domains.") and nm.endswith("." + op)), "count")
    m.update({
        "domains.eq_calls": (calls(lambda nm: nm.startswith("domains.eq.")), "count"),
        "domains.eq_share": (eq_ms / domains_ms if domains_ms else 0.0, "ratio"),
        "digests.ms": (ms.get("digests.ms", 0.0), "ms"),
        "digests.calls": (calls(lambda nm: nm.startswith("digests.")), "count"),
        "oracle.explore_ms": (explore_ms, "ms"),
        "oracle.states": (states, "count"),
        "oracle.schedules": (count("oracle.schedules"), "count"),
        "oracle.reachable": (count("oracle.reachable"), "count"),
        "oracle.states_per_s": (states / (explore_ms / 1000.0) if explore_ms else 0.0, "1/s"),
        "differential.check_ms": (ms.get("differential.check_ms", 0.0), "ms"),
    })
    t_traced = statistics.median(r.timed_s for r in traced)
    t_plain = statistics.median(r.timed_s for r in plain)
    m["trace.overhead_pct"] = ((t_traced / t_plain - 1.0) * 100.0, "%")
    return m


def environment() -> dict:
    import numpy

    from concurrel.domains import KERNEL

    return {
        "kernel": KERNEL,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


# A module is imported once per process, so the import cost is measured in
# fresh interpreters: the median of SETUP_REPEATS of them counts towards
# setup_s.  Each interpreter normalises its own import time (hostclock.py).
IMPORT_PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:]; t = time.perf_counter(); "
                "import numpy, concurrel.analysis, workloads; t = time.perf_counter() - t; "
                "import hostclock; print(hostclock.normalise(t))")


def import_seconds(src: str) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, src, HERE],
                              stdout=subprocess.PIPE, text=True, check=True)
        times.append(float(proc.stdout))
    return statistics.median(times)


def run_one(args) -> int:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "concurrel", "__init__.py")):
        return fail(f"no analyzer sources under {src}; run from a checkout of the repository")
    if not os.path.isdir(os.path.join(ROOT, "corpus")):
        return fail(f"no corpus directory under {ROOT}")
    from hostclock import HostClock

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    import_s = import_seconds(src)
    with HostClock() as clock:
        sys.path.insert(0, src)
        import workloads

        setups = []
        for _ in range(SETUP_REPEATS):
            wl = workloads.WORKLOADS[args.workload](ROOT, args.seed)
            t0 = clock()
            try:
                wl.setup()
            except (OSError, RuntimeError, ValueError) as e:
                return fail(f"set-up of {args.workload} failed: {e}")
            setups.append(clock() - t0)
        setup_s = import_s + statistics.median(setups)
        rounds, tally, check_counters, peak_mb = measure(wl, args.seconds, clock, tracer)

    if args.trace:
        metrics = per_layer(tracer, rounds, check_counters)
        _, extra = end_to_end(wl, rounds, tally, setup_s, peak_mb)
        os.makedirs(OUT, exist_ok=True)
        tracer.save(os.path.join(OUT, f"trace-{args.workload}.npz"))
    else:
        metrics, extra = end_to_end(wl, rounds, tally, setup_s, peak_mb)

    env = environment()
    print(f"# {args.workload} (seed {args.seed}, trace {args.trace}): {wl.why}")
    print("# " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name:32s} {value:14.4f} {unit}")
    for row in tally.oracle_rows:
        print(f"oracle {row['program']:16s} states={row['states']} schedules={row['schedules']} "
              f"reachable={row['reachable']} truncated={row['truncated']} check={row['check']}")
    for p in tally.problems:
        print(f"PROBLEM {p}")
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.out:
        full = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                    environment=env, round_timed_s=[r.timed_s for r in rounds],
                    report={k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
                    oracle=tally.oracle_rows, problems=tally.problems)
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(full, f, indent=2, sort_keys=True)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    os.makedirs(OUT, exist_ok=True)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    full = {}
    for name in WORKLOAD_NAMES:
        part = os.path.join(OUT, f"{name}.json")
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", part]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write("".join(proc.stdout.splitlines(keepends=True)[:-1]))
        if proc.returncode != 0:
            return fail(f"{name} exited with {proc.returncode}")
        with open(part, encoding="utf-8") as f:
            res = json.load(f)
        full[name] = res
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}/{k}"] = v
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(full, f, indent=2, sort_keys=True)
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
