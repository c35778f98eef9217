"""Unknown keys of the constraint systems.

Every unknown is (program point × lockset × digest), (mutex × cluster ×
digest) or (thread-return × digest).  Keys render to stable text for dumps
and deterministic ordering: every frozenset inside a digest renders with its
elements sorted, so the text does not depend on ``PYTHONHASHSEED``.

Keys are named tuples, hashed and compared in C.  Tuple equality ignores the
class, yet no two kinds compare equal: a point key's first field is a
``Point``, a mutex key's a ``str``, and a return key has one field.  Nor does a
``Point`` equal a ``CreateEdge``, or a thread-id digest (id, edges) an
``AbstractTid`` (prefix, spill): an id is no tuple of create edges.
"""

from __future__ import annotations

from typing import Any, NamedTuple

from ..digests import AbstractTid, CreateEdge
from ..frontend.cfg import Point


class PointKey(NamedTuple):
    point: Point
    lockset: frozenset[str]
    digest: Any


class MutexKey(NamedTuple):
    mutex: str
    cluster: frozenset[str]
    digest: Any


class RetKey(NamedTuple):
    digest: Any  # improved: tid digest key; base: (tid-value, digest)


_NAMED = frozenset({Point, CreateEdge, AbstractTid, PointKey, MutexKey, RetKey})


def digest_text(d, top: bool = True) -> str:
    """``str(d)``, except that every frozenset inside renders as
    ``frozenset({...})`` with its elements sorted by their text.  Inside, the
    named tuples of ``_NAMED`` render as ``repr`` would, other tuples plainly."""
    if isinstance(d, frozenset):
        elems = ", ".join(sorted(digest_text(e, False) for e in d))
        return f"frozenset({{{elems}}})" if d else "frozenset()"
    if type(d) in _NAMED:
        if top:
            return str(d)
        parts = [f"{f}={digest_text(v, False)}" for f, v in zip(d._fields, d)]
        return f"{type(d).__qualname__}({', '.join(parts)})"
    if isinstance(d, tuple):
        parts = [digest_text(e, False) for e in d]
        return "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"
    return str(d) if top else repr(d)


def render_key(key, digest_render=digest_text) -> str:
    match key:
        case PointKey(p, s, d):
            return f"[{p}, {{{','.join(sorted(s))}}}, {digest_render(d)}]"
        case MutexKey(a, q, d):
            return f"[{a}, {{{','.join(sorted(q))}}}, {digest_render(d)}]"
        case RetKey(d):
            return f"[ret {digest_render(d)}]"
    return str(key)
