"""Unknown keys of the constraint systems.

Every unknown is (program point × lockset × digest), (mutex × cluster ×
digest) or (thread-return × digest); ``Start`` exists for generic solver use.
Keys render to stable text for dumps and deterministic ordering; the thread-id
set of a base-mode return key renders with its elements sorted by ``repr``,
so the text does not depend on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..frontend.cfg import Point


@dataclass(frozen=True)
class PointKey:
    point: Point
    lockset: frozenset[str]
    digest: Any


@dataclass(frozen=True)
class MutexKey:
    mutex: str
    cluster: frozenset[str]
    digest: Any


@dataclass(frozen=True)
class RetKey:
    digest: Any  # improved: tid digest key; base: (tid-value, digest)


@dataclass(frozen=True)
class Start:
    name: str = "start"


def render_key(key, digest_render=str) -> str:
    match key:
        case PointKey(p, s, d):
            return f"[{p}, {{{','.join(sorted(s))}}}, {digest_render(d)}]"
        case MutexKey(a, q, d):
            return f"[{a}, {{{','.join(sorted(q))}}}, {digest_render(d)}]"
        case RetKey((frozenset() as tids, d)):  # base mode: (thread ids, digest)
            elems = ", ".join(sorted(map(repr, tids)))
            tids_s = f"frozenset({{{elems}}})" if tids else "frozenset()"
            return f"[ret ({tids_s}, {d!r})]"
        case RetKey(d):
            return f"[ret {digest_render(d)}]"
        case Start(n):
            return f"[{n}]"
    return str(key)
