from .ast import (  # noqa: F401
    Action, Assert, AssignLocal, BinOp, Cmp, Create, Expr, Guard, Havoc,
    IntLit, Join, Lock, Pos, Program, ReadGlobal, Return, Unlock, Var,
    WriteGlobal, action_str, expr_vars, linear_form, negate,
)
from .cfg import (  # noqa: F401
    AssertSite, Cfg, Edge, Point, assert_sites, build_cfg, cfg_dump,
    collect_locals, tid_vars,
)
from .parser import ParseError, parse_program  # noqa: F401
from .pretty import pretty_print  # noqa: F401
from .validate import Diagnostic, validate  # noqa: F401
