from .eqconst import EqBackend, EqRel  # noqa: F401
from .octagon import KERNEL, OctBackend, OctRel  # noqa: F401
from .relation import RelDomain, Relation, Universe  # noqa: F401
from .values import (  # noqa: F401
    BOT, INF, IntAbs, TID_TOP, tid_join, tid_leq, tid_meet, tid_render,
)
