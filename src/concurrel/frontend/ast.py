"""AST for the toy concurrent language.

Programs consist of declarations (globals, mutexes, protections) followed by
thread templates.  Statements keep their source position so diagnostics and
assert reports can point back into the file.
"""

from __future__ import annotations

from dataclasses import dataclass, field


# --- expressions -------------------------------------------------------------

@dataclass(frozen=True)
class IntLit:
    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class BinOp:
    op: str  # '+', '-', '*'
    left: "Expr"
    right: "Expr"

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class Cmp:
    op: str  # '==', '!=', '<', '<=', '>', '>='
    left: "Expr"
    right: "Expr"

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


Expr = IntLit | Var | BinOp

NEGATED = {"==": "!=", "!=": "==", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}


def negate(c: Cmp) -> Cmp:
    return Cmp(NEGATED[c.op], c.left, c.right)


def expr_vars(e: Expr | Cmp) -> set[str]:
    match e:
        case IntLit():
            return set()
        case Var(name):
            return {name}
        case BinOp(_, l, r) | Cmp(_, l, r):
            return expr_vars(l) | expr_vars(r)
    raise TypeError(e)


def linear_form(e: Expr) -> tuple[dict[str, int], int] | None:
    """Rewrite ``e`` as ``sum(coeff*var) + const``; None if not linear."""
    match e:
        case IntLit(v):
            return {}, v
        case Var(name):
            return {name: 1}, 0
        case BinOp("+", l, r) | BinOp("-", l, r):
            lf, rf = linear_form(l), linear_form(r)
            if lf is None or rf is None:
                return None
            coeffs, const = dict(lf[0]), lf[1]
            sign = 1 if e.op == "+" else -1
            for v, c in rf[0].items():
                coeffs[v] = coeffs.get(v, 0) + sign * c
            const += sign * rf[1]
            return {v: c for v, c in coeffs.items() if c != 0}, const
        case BinOp("*", l, r):
            lf, rf = linear_form(l), linear_form(r)
            if lf is None or rf is None:
                return None
            if not lf[0]:
                scale, other = lf[1], rf
            elif not rf[0]:
                scale, other = rf[1], lf
            else:
                return None
            return {v: scale * c for v, c in other[0].items() if scale * c != 0}, scale * other[1]
    raise TypeError(e)


# --- statements --------------------------------------------------------------

@dataclass(frozen=True)
class Pos:
    line: int
    col: int


@dataclass(frozen=True)
class SAssign:
    target: str
    # exactly one of expr / havoc / create / join is set
    expr: Expr | None
    havoc: bool = False
    create: str | None = None  # template name
    join: str | None = None  # local holding the thread id
    pos: Pos = Pos(0, 0)


@dataclass(frozen=True)
class SLock:
    mutex: str
    pos: Pos = Pos(0, 0)


@dataclass(frozen=True)
class SUnlock:
    mutex: str
    pos: Pos = Pos(0, 0)


@dataclass(frozen=True)
class SReturn:
    expr: Expr
    pos: Pos = Pos(0, 0)


@dataclass(frozen=True)
class SAssert:
    cond: Cmp
    pos: Pos = Pos(0, 0)


@dataclass(frozen=True)
class SIf:
    cond: Cmp
    then: tuple["Stmt", ...]
    orelse: tuple["Stmt", ...]
    pos: Pos = Pos(0, 0)


@dataclass(frozen=True)
class SWhile:
    cond: Cmp
    body: tuple["Stmt", ...]
    pos: Pos = Pos(0, 0)


Stmt = SAssign | SLock | SUnlock | SReturn | SAssert | SIf | SWhile


@dataclass(frozen=True)
class Program:
    globals: tuple[str, ...]
    mutexes: tuple[str, ...]
    threads: dict[str, tuple[Stmt, ...]] = field(default_factory=dict)
    protections: dict[str, frozenset[str]] | None = None
    entry: str = "main"
    filename: str = "<input>"
    # what ``build_cfg`` and ``validate`` derive from the program, kept by
    # them for later calls; a program built anew starts without it
    derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def protecting_mutex(self, g: str) -> str:
        """Name of the implicit atomicity mutex of global ``g``."""
        return "m_" + g

    @property
    def all_mutexes(self) -> tuple[str, ...]:
        """The declared mutexes and the atomicity mutex of every global, sorted."""
        return tuple(sorted({*self.mutexes, *map(self.protecting_mutex, self.globals)}))

    @staticmethod
    def is_atomicity_mutex(m: str) -> bool:
        """Whether ``m`` has the form of a ``protecting_mutex`` name."""
        return m.startswith("m_")


# --- actions (CFG edge labels) -----------------------------------------------

@dataclass(frozen=True)
class Lock:
    mutex: str


@dataclass(frozen=True)
class Unlock:
    mutex: str


@dataclass(frozen=True)
class ReadGlobal:
    local: str
    glob: str


@dataclass(frozen=True)
class WriteGlobal:
    glob: str
    local: str


@dataclass(frozen=True)
class AssignLocal:
    local: str
    expr: Expr


@dataclass(frozen=True)
class Guard:
    cond: Cmp


@dataclass(frozen=True)
class Havoc:
    local: str


@dataclass(frozen=True)
class Create:
    local: str
    template: str


@dataclass(frozen=True)
class Join:
    target: str  # receives the return value
    tidvar: str  # local holding the thread id


@dataclass(frozen=True)
class Return:
    local: str


@dataclass(frozen=True)
class Assert:
    cond: Cmp  # over locals only (reads are hoisted during lowering)
    aid: int  # index of the assert in source order
    pos: Pos = Pos(0, 0)
    orig: str = ""  # source text of the condition, for reports


Action = (
    Lock | Unlock | ReadGlobal | WriteGlobal | AssignLocal | Guard | Havoc
    | Create | Join | Return | Assert
)


def action_str(a: Action) -> str:
    match a:
        case Lock(m):
            return f"lock({m})"
        case Unlock(m):
            return f"unlock({m})"
        case ReadGlobal(x, g):
            return f"{x} = {g}"
        case WriteGlobal(g, x):
            return f"{g} = {x}"
        case AssignLocal(x, e):
            return f"{x} = {e}"
        case Guard(c):
            return f"?({c})"
        case Havoc(x):
            return f"{x} = ?"
        case Create(x, t):
            return f"{x} = create({t})"
        case Join(x1, x):
            return f"{x1} = join({x})"
        case Return(x):
            return f"return {x}"
        case Assert(c, aid, _):
            return f"assert#{aid}({c})"
    raise TypeError(a)
