"""The differential check as it was written before containment was batched:
one ``RelDomain.contains`` call per reachable tuple, in the order of a full
sorted walk.  Kept unchanged as the reference that
``concurrel.differential.check_soundness`` must agree with, report for
report.  ``reference_published_values`` is the per-global fold that
``AnalysisResult.published_values`` replaced with one pass for all globals."""

from __future__ import annotations

from concurrel.analysis.driver import AnalysisResult, local_vars
from concurrel.analysis.keys import MutexKey, digest_text
from concurrel.analysis.reporting import AssertVerdict
from concurrel.differential import SoundnessReport
from concurrel.domains.relation import Relation
from concurrel.frontend.ast import IntLit
from concurrel.oracle import Exploration, Reachable


def reference_check_soundness(result: AnalysisResult, exploration: Exploration,
                    verdicts: list[AssertVerdict] | None = None,
                    max_witnesses: int = 10) -> SoundnessReport:
    report = SoundnessReport(truncated=exploration.truncated)
    dom = result.dom
    improved = result.config.mode in ("tids", "clusters")
    tid_abs = {
        tid: (full if improved else base)
        for tid, (full, base) in exploration.tid_abstractions.items()
    }

    def expected_digest(rs: Reachable):
        if improved:
            return rs.tdig
        if result.config.lock_once:
            return rs.lockonce
        return ()

    groups: dict[tuple, list[Reachable]] = {}
    for rs in exploration.reachable:
        groups.setdefault((rs.point, rs.lockset), []).append(rs)

    universe_globals = set(result.program.globals)
    locals_ = local_vars(result.universe, result.program)
    lvars = exploration.lvars
    gvars = exploration.gvars

    for (point, lockset), states in sorted(
        groups.items(), key=lambda kv: (str(kv[0][0]), sorted(kv[0][1]))
    ):
        report.checked_states += len(states)
        keys = result.point_keys(point, lockset)
        if not keys:
            report.witnesses.append(
                f"{point} lockset={{{','.join(sorted(lockset))}}}: reachable "
                f"concretely but no unknown instantiated")
            continue
        digests = {k.digest for k in keys}
        held_globals = {g for g in universe_globals if result.protections[g] & lockset}
        v = dom.restrict(result.point_value(point, lockset), {*locals_, *held_globals})
        seen_digest_miss = set()
        for rs in sorted(states, key=lambda r: (r.tid, str(r.locals), str(r.globals),
                                                 digest_text((r.tdig, r.lockonce)))):
            d = expected_digest(rs)
            if d not in digests and d not in seen_digest_miss:
                seen_digest_miss.add(d)
                report.digest_misses.append(
                    f"{point}: replayed digest {result.spec.render(d)} not instantiated")
            store: dict[str, object] = {}
            for var, val in zip(lvars, rs.locals):
                store[var] = tid_abs.get(val, val) if isinstance(val, str) else val
            for g, val in zip(gvars, rs.globals):
                if g in held_globals:
                    store[g] = val
            if not dom.contains(v, store) and len(report.witnesses) < max_witnesses:
                report.witnesses.append(
                    f"{rs.tid} at {point} lockset={{{','.join(sorted(lockset))}}}: "
                    f"store {store} outside {dom.render(v)}")

    for g in sorted(exploration.global_values):
        pub = result.published_values(g)
        for val in sorted(exploration.global_values[g]):
            if not dom.contains(pub, {g: val}):
                report.witnesses.append(
                    f"global {g}={val} reachable but outside published values "
                    f"{dom.render(pub)}")

    if verdicts is not None:
        for vd in verdicts:
            if vd.verdict == "PROVEN" and vd.aid in exploration.violations:
                trace = "\n  ".join(exploration.violations[vd.aid])
                report.proven_violated.append(
                    f"assert #{vd.aid} ({vd.cond}) PROVEN but violated:\n  {trace}")
    return report


def reference_published_values(result: AnalysisResult, g: str) -> Relation:
    """Join of everything published for clusters containing g, plus the
    initial value 0, rebuilt from all solver values for this one global."""
    out = result.dom.assign_expr(result.dom.top(), g, IntLit(0))
    out = result.dom.restrict(out, {g})
    for k, v in result.solver.values.items():
        if isinstance(k, MutexKey) and g in k.cluster:
            out = result.dom.join(out, result.dom.restrict(v, {g}))
    return out
