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

The check works per (point, lockset) group of reachable tuples, in the
order of ``Exploration.groups``, which the exploration builds once, at
the first check, for every configuration checked against it: per group, the
column of values of each variable, row by row, and the set of each spec's
replayed digests.  The group's value v is built once.  The distinct
projections of the rows onto the variables v constrains
(``RelDomain.support``: locals and held globals) are one ``set(zip(...))``
of their columns; thread ids are replaced by their abstraction, and the
projections are tested in one ``RelDomain.contains_many`` call, which makes
one backend call (for an octagon, one kernel call) per pattern of variables
holding a thread id, usually one per group.  The digests the configuration
instantiates are compared with the group's replayed set.  Only a group
where something fails is walked tuple by tuple, in (thread, locals,
globals, digests) order, to write its digest misses and witnesses; so the
reports, their order and the ``max_witnesses`` cap on store witnesses are
those of a full ordered walk.  That order is total, so no report depends on the hash seed.
``checked_states`` counts every reachable tuple.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Sequence

from .analysis.driver import AnalysisResult, local_vars
from .analysis.keys import digest_text
from .analysis.reporting import AssertVerdict
from .oracle import Exploration, Group, Reachable


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
    # the digest of a tuple the instantiated ones must include, and those
    # of a group
    if improved:
        expected_digest, replayed = attrgetter("tdig"), attrgetter("tdigs")
    elif result.config.lock_once:
        expected_digest, replayed = attrgetter("lockonce"), attrgetter("lockonces")
    else:
        def expected_digest(rs: Reachable):
            return ()

        def replayed(group: Group):
            return {()}

    universe_globals = set(result.program.globals)
    locals_ = local_vars(result.universe, result.program)
    lvars = exploration.lvars
    gvars = exploration.gvars
    lcol = {x: i for i, x in enumerate(lvars)}
    gcol = {g: len(lvars) + i for i, g in enumerate(gvars)}

    for (point, lockset), group in exploration.groups.items():
        states = group.states
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
        picked = [group.columns[lcol[x]] for x in lnames] + [group.columns[gcol[g]] for g in gnames]
        projections = list(set(zip(*picked))) if picked else [()]
        columns: dict[str, Sequence] = dict(zip(lnames + gnames, zip(*projections)))
        for var in lnames:
            col = columns[var]
            tids = {x: tid_abs.get(x, x) for x in set(col) if isinstance(x, str)}
            if tids:
                columns[var] = tuple(map(tids.get, col, col))
        inside = dom.contains_many(v, columns, len(projections))
        if inside.all() and replayed(group) <= digests:
            continue
        inside = dict(zip(projections, inside.tolist()))

        # the group fails somewhere: report it in the order of a full walk
        seen_digest_miss = set()
        rows = zip(*picked) if picked else [()] * len(states)
        for rs, row in sorted(zip(states, rows),
                              key=lambda t: (t[0].tid, str(t[0].locals), str(t[0].globals),
                                             digest_text((t[0].tdig, t[0].lockonce)))):
            d = expected_digest(rs)
            if d not in digests and d not in seen_digest_miss:
                seen_digest_miss.add(d)
                report.digest_misses.append(
                    f"{point}: replayed digest {result.spec.render(d)} not instantiated")
            if inside[row] or len(report.witnesses) >= max_witnesses:
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
