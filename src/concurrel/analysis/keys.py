"""Unknown keys of the constraint systems.

Every unknown is (program point × lockset × digest), (mutex × cluster ×
digest) or (thread-return × digest).  Keys render to stable text for dumps
and deterministic ordering: every frozenset inside a digest renders with its
elements sorted, so the text does not depend on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from typing import Any

from ..frontend.cfg import Point, hash_once


@dataclass(frozen=True)
@hash_once
class PointKey:
    point: Point
    lockset: frozenset[str]
    digest: Any


@dataclass(frozen=True)
@hash_once
class MutexKey:
    mutex: str
    cluster: frozenset[str]
    digest: Any


@dataclass(frozen=True)
class RetKey:
    digest: Any  # improved: tid digest key; base: (tid-value, digest)


def digest_text(d, top: bool = True) -> str:
    """``str(d)``, except that every frozenset inside renders as
    ``frozenset({...})`` with its elements sorted by their text.  Parts of
    tuples and of dataclasses render as ``repr`` would render them."""
    if isinstance(d, frozenset):
        elems = ", ".join(sorted(digest_text(e, False) for e in d))
        return f"frozenset({{{elems}}})" if d else "frozenset()"
    if isinstance(d, tuple):
        parts = [digest_text(e, False) for e in d]
        return "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"
    if top:
        return str(d)
    if is_dataclass(d):
        parts = [f"{f.name}={digest_text(getattr(d, f.name), False)}" for f in fields(d) if f.repr]
        return f"{type(d).__qualname__}({', '.join(parts)})"
    return repr(d)


def render_key(key, digest_render=digest_text) -> str:
    match key:
        case PointKey(p, s, d):
            return f"[{p}, {{{','.join(sorted(s))}}}, {digest_render(d)}]"
        case MutexKey(a, q, d):
            return f"[{a}, {{{','.join(sorted(q))}}}, {digest_render(d)}]"
        case RetKey(d):
            return f"[ret {digest_render(d)}]"
    return str(key)
