"""Differential check of an analysis result against the bounded oracle.

For every reachable concrete state (thread, point, lockset, locals, globals):

* some unknown at (point, lockset) must be instantiated, and the join of the
  local relations over all digests must contain the store, where the store
  consists of the locals, self, and the globals protected by a held mutex;
* the replayed digest of the thread must be among the instantiated digests;
* any value a global ever takes must be covered by the published cluster
  values joined over digests (plus the initial 0, which the improved analyses
  keep join-locally instead of publishing);
* no assert reported PROVEN may be violated in any explored interleaving.

A report is ``ok`` when none of this fails on the explored states, and
``clean`` when it is ok and the exploration was not truncated at a bound.

The check works per (point, lockset) group of reachable tuples, as the
oracle groups them once per exploration (``Exploration.groups``).  The group's
value v is built once; each tuple is projected to the values of the
variables v constrains (``RelDomain.support``: locals and held globals, thread
ids replaced by their abstraction), and the distinct projections are tested
in one ``RelDomain.contains_many`` call.  The digests the tuples replay are
compared with the instantiated ones as a set.  Only a group where something
fails is walked tuple by tuple, in (thread, locals, globals, digests)
order, to write its digest misses and witnesses; so the reports, their
order and the ``max_witnesses`` cap on store witnesses are those of a full
ordered walk.  That order is total, so no report depends on the hash seed.
``checked_states`` counts every reachable tuple.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from typing import Sequence

from .analysis.driver import AnalysisResult, local_vars
from .analysis.keys import digest_text
from .analysis.reporting import AssertVerdict
from .oracle import Exploration, Reachable


@dataclass
class SoundnessReport:
    checked_states: int = 0
    witnesses: list[str] = field(default_factory=list)
    digest_misses: list[str] = field(default_factory=list)
    proven_violated: list[str] = field(default_factory=list)
    truncated: bool = False  # the exploration stopped at a bound

    @property
    def ok(self) -> bool:
        """No soundness bug among the explored states."""
        return not (self.witnesses or self.proven_violated)

    @property
    def clean(self) -> bool:
        """No soundness bug, and every state within the bounds was explored."""
        return self.ok and not self.truncated


def _picker(idx: list[int]):
    """A function from a tuple to the tuple of its entries ``idx``."""
    if len(idx) > 1:
        return itemgetter(*idx)
    if idx:
        i, = idx
        return lambda t: (t[i],)
    return lambda t: ()


def check_soundness(result: AnalysisResult, exploration: Exploration,
                    verdicts: list[AssertVerdict] | None = None,
                    max_witnesses: int = 10) -> SoundnessReport:
    report = SoundnessReport(truncated=exploration.truncated)
    dom = result.dom
    improved = result.config.mode in ("tids", "clusters")
    tid_abs = {
        tid: (full if improved else base)
        for tid, (full, base) in exploration.tid_abstractions.items()
    }
    if improved:
        expected_digest = attrgetter("tdig")
    elif result.config.lock_once:
        expected_digest = attrgetter("lockonce")
    else:
        def expected_digest(rs: Reachable):
            return ()

    universe_globals = set(result.program.globals)
    locals_ = local_vars(result.universe, result.program)
    lvars = exploration.lvars
    gvars = exploration.gvars

    for (point, lockset), states in sorted(
        exploration.groups.items(), key=lambda kv: (str(kv[0][0]), sorted(kv[0][1]))
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

        # one containment test over the distinct values of what v constrains
        need = dom.support(v)
        lnames = [x for x in lvars if x in need]
        gnames = [g for g in gvars if g in need]  # v keeps only held globals
        lpick = _picker([lvars.index(x) for x in lnames])
        gpick = _picker([gvars.index(g) for g in gnames])

        def project(rs: Reachable) -> tuple:
            return lpick(rs.locals) + gpick(rs.globals)

        projections = list(set(map(project, states)))
        columns: dict[str, Sequence] = dict(zip(lnames + gnames, zip(*projections)))
        for var in lnames:
            col = columns[var]
            tids = {x: tid_abs.get(x, x) for x in set(col) if isinstance(x, str)}
            if tids:
                columns[var] = tuple(map(tids.get, col, col))
        inside = dom.contains_many(v, columns, len(projections))
        if inside.all() and set(map(expected_digest, states)) <= digests:
            continue
        inside = dict(zip(projections, inside.tolist()))

        # the group fails somewhere: report it in the order of a full walk
        seen_digest_miss = set()
        for rs in sorted(states, key=lambda r: (r.tid, str(r.locals), str(r.globals),
                                                 digest_text((r.tdig, r.lockonce)))):
            d = expected_digest(rs)
            if d not in digests and d not in seen_digest_miss:
                seen_digest_miss.add(d)
                report.digest_misses.append(
                    f"{point}: replayed digest {result.spec.render(d)} not instantiated")
            if inside[project(rs)] or len(report.witnesses) >= max_witnesses:
                continue
            store: dict[str, object] = {}
            for var, val in zip(lvars, rs.locals):
                store[var] = tid_abs.get(val, val) if isinstance(val, str) else val
            for g, val in zip(gvars, rs.globals):
                if g in held_globals:
                    store[g] = val
            report.witnesses.append(
                f"{rs.tid} at {point} lockset={{{','.join(sorted(lockset))}}}: "
                f"store {store} outside {dom.render(v)}")

    for g in sorted(exploration.global_values):
        pub = result.published_values(g)
        vals = sorted(exploration.global_values[g])
        for val, inside in zip(vals, dom.contains_many(pub, {g: vals}, len(vals))):
            if not inside:
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
