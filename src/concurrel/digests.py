"""Finite local-trace abstractions ("digests") and their effect functions.

A digest spec provides the initial digest, a unary effect for ordinary and
observable actions, a binary effect for observing actions (lock, join) that
also sees the digest of the incorporated trace, and the digest of a newly
created thread.  Each returns one digest, except that ``binary`` returns
``None`` when the two local traces cannot be combined.

Instances: locksets, lock-once sets (which mutexes were ever locked), and
abstract thread ids with creation histories.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering

from .frontend.ast import Action, Create, Join, Lock, Unlock
from .frontend.cfg import Point, hash_once


# -- abstract thread ids (creation histories with spill sets) -----------------

@dataclass(frozen=True, order=True)
@hash_once
class CreateEdge:
    point: Point  # source point of the create edge
    template: str  # template the created thread starts in

    def __str__(self) -> str:
        return f"⟨{self.point},{self.template}⟩"


@total_ordering
@dataclass(frozen=True)
@hash_once
class AbstractTid:
    """(prefix of create edges after the main marker, spill set).

    Unique iff the spill set is empty; distinct ids denote disjoint sets of
    concrete threads.
    """

    prefix: tuple[CreateEdge, ...] = ()
    spill: frozenset[CreateEdge] = frozenset()

    @property
    def unique(self) -> bool:
        return not self.spill

    @property
    def edges(self) -> frozenset[CreateEdge]:
        return frozenset(self.prefix) | self.spill

    def __str__(self) -> str:
        s = "main" + "".join("·" + str(e) for e in self.prefix)
        if self.spill:
            s += " | {" + ", ".join(str(e) for e in sorted(self.spill)) + "}"
        return f"({s})"

    def __lt__(self, other):
        return str(self) < str(other)


MAIN_TID = AbstractTid()


def tid_compose(i: AbstractTid, e: CreateEdge) -> AbstractTid:
    """The ∘ operation: append a create edge, spilling on repetition."""
    if e in i.prefix:
        k = i.prefix.index(e)
        return AbstractTid(i.prefix[:k], i.spill | frozenset(i.prefix[k:]))
    if not i.spill:
        return AbstractTid(i.prefix + (e,), frozenset())
    return AbstractTid(i.prefix, i.spill | {e})


def lcu_anc(i: AbstractTid, j: AbstractTid) -> AbstractTid:
    """Last common unique ancestor: longest common prefix with empty spill."""
    k = 0
    while k < len(i.prefix) and k < len(j.prefix) and i.prefix[k] == j.prefix[k]:
        k += 1
    return AbstractTid(i.prefix[:k], frozenset())


def may_create(i: AbstractTid, j: AbstractTid) -> bool:
    return i.edges <= j.edges


def may_run(d: "TidDigest", d1: "TidDigest") -> bool:
    """False only when the other thread definitely has not been started yet.

    The ego's own digest is always admitted: relocking after one's own unlock
    (and the initial trace, whose digest equals main's) is a feasible
    combination the creation-history argument does not exclude.
    """
    (i, c) = d
    (i1, _c1) = d1
    if i == i1:
        return True
    if lcu_anc(i, i1) != i:
        return True
    return any(
        tid_compose(i, e) == i1 or may_create(tid_compose(i, e), i1) for e in c
    )


def tid_new(u: Point, u1: Point, d: "TidDigest") -> "TidDigest":
    """Digest of a thread created at ⟨u,u1⟩ by a thread with digest ``d``."""
    (i, c) = d
    e = CreateEdge(u, u1.template)
    composed = tid_compose(i, e)
    if composed.unique and e in c:
        child = AbstractTid(i.prefix, frozenset({e}))
    else:
        child = composed
    return (child, frozenset())


TidDigest = tuple  # (AbstractTid, frozenset[CreateEdge])


# -- digest specifications -----------------------------------------------------

class DigestSpec:
    """Base: every action keeps the digest; subclasses override selectively."""

    name = "trivial"

    def init(self):
        return ()

    def unary(self, u: Point, act: Action, d):
        return d

    def binary(self, u: Point, act: Action, d, d1):
        return d

    def new_thread(self, u: Point, u1: Point, d):
        return d

    def render(self, d) -> str:
        return "·" if d == () else str(d)


class LocksetDigest(DigestSpec):
    """Held locksets as a refinement (the splitting of the base analysis)."""

    name = "lockset"

    def init(self):
        return frozenset()

    def unary(self, u, act, d):
        return d - {act.mutex} if isinstance(act, Unlock) else d

    def binary(self, u, act, d, d1):
        return d | {act.mutex} if isinstance(act, Lock) else d

    def new_thread(self, u, u1, d):
        return frozenset()

    def render(self, d) -> str:
        return "{" + ",".join(sorted(d)) + "}"


class LockOnceDigest(DigestSpec):
    """Set of mutexes locked at least once in the local trace."""

    name = "lockonce"

    def init(self):
        return frozenset()

    def binary(self, u, act, d, d1):
        if isinstance(act, Lock):
            a = act.mutex
            if a in d and a not in d1:
                return None  # ego already locked a; incoming trace never did
            return d | d1 | {a}
        return d | d1  # other observing actions

    def render(self, d) -> str:
        return "L{" + ",".join(sorted(d)) + "}"


class TidDigestSpec(DigestSpec):
    """Abstract thread ids plus the set of already-encountered create edges."""

    name = "tid"

    def init(self):
        return (MAIN_TID, frozenset())

    def unary(self, u, act, d):
        if isinstance(act, Create):
            (i, c) = d
            # the started template's start point is template.0 by construction
            return (i, c | {CreateEdge(u, act.template)})
        return d

    def binary(self, u, act, d, d1):
        if isinstance(act, (Lock, Join)) and not may_run(d, d1):
            return None
        return d

    def new_thread(self, u, u1, d):
        return tid_new(u, u1, d)

    def render(self, d) -> str:
        (i, c) = d
        cs = "{" + ", ".join(str(e) for e in sorted(c)) + "}"
        return f"tid={i}, C={cs}"
