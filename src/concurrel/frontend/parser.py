"""Recursive-descent parser for the toy concurrent language.

Grammar sketch::

    program   := (decl | threaddef)*     -- one threaddef must be named "main"
    decl      := "global" names ";" | "mutex" names ";"
               | "protect" NAME "with" names ";"
    threaddef := "thread" NAME "{" stmt* "}"
    stmt      := "lock" "(" NAME ")" ";" | "unlock" "(" NAME ")" ";"
               | "return" expr ";" | "assert" "(" cond ")" ";"
               | "if" "(" cond ")" block ("else" block)?
               | "while" "(" cond ")" block
               | NAME "=" ("?" | "create" "(" NAME ")" | "join" "(" NAME ")"
                           | expr) ";"
    cond      := expr ("==" | "!=" | "<=" | ">=" | "<" | ">") expr
    expr      := term (("+" | "-") term)*
    term      := "-" term | primary ("*" term)?
    primary   := NUM | NAME | "(" expr ")"

Declarations and thread templates may come in any order: a name may be used
above its declaration, in a ``protect`` or in a template.  Expressions are
integer arithmetic and conditions single comparisons; expressions, and the
blocks of ``if``/``while`` statements, nest at most ``MAX_NESTING`` levels
deep.  `//` starts a line comment.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from typing import NamedTuple

from .ast import (
    BinOp, Cmp, Expr, IntLit, Pos, Program, SAssert, SAssign, SIf, SLock,
    SReturn, SUnlock, SWhile, Stmt, Var, expr_vars,
)

# Each operator, parenthesis and unary minus is one expression level, and
# each if/while block one statement level.  Later passes walk expressions and
# statements recursively, so the parser bounds the depth they meet.
MAX_NESTING = 100

KEYWORDS = {
    "thread", "global", "mutex", "protect", "with", "lock", "unlock",
    "return", "assert", "if", "else", "while", "create", "join",
}

# A thread's own id and its returned value: no program variable may be named so.
RESERVED = ("self", "ret")

# groups: whitespace or comment, number, name, operator, a bad character
_TOKEN_RE = re.compile(
    r"""(\s+|//[^\n]*)
      | (\d+)
      | ([A-Za-z_][A-Za-z0-9_]*)
      | (==|!=|<=|>=|[-+*<>=();{},?])
      | (.)
    """,
    re.VERBOSE | re.DOTALL,
)


class ParseError(SyntaxError):
    def __init__(self, msg: str, line: int, col: int, filename: str = "<input>"):
        super().__init__(f"{filename}:{line}:{col}: error: {msg}")
        self.line = line
        self.col = col


class _Token(NamedTuple):
    kind: str  # 'num' | 'name' | literal text | 'eof'
    text: str
    line: int
    col: int


def _tokenize(text: str, filename: str) -> list[_Token]:
    toks = []
    line, col = 1, 1
    for skip, num, name, op, bad in _TOKEN_RE.findall(text):
        if skip:
            if "\n" in skip:
                line += skip.count("\n")
                col = len(skip) - skip.rfind("\n")
            else:
                col += len(skip)
            continue
        if num:
            tok = _Token("num", num, line, col)
        elif name:
            tok = _Token(name if name in KEYWORDS else "name", name, line, col)
        elif op:
            tok = _Token(op, op, line, col)
        else:
            raise ParseError(f"unexpected character {bad!r}", line, col, filename)
        toks.append(tok)
        col += len(tok.text)
    toks.append(_Token("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, text: str, filename: str):
        self.toks = _tokenize(text, filename)
        self.i = 0
        self.filename = filename

    # -- token plumbing --

    @property
    def cur(self) -> _Token:
        return self.toks[self.i]

    def _error(self, msg: str, tok: _Token | None = None) -> ParseError:
        tok = tok or self.cur
        return ParseError(msg, tok.line, tok.col, self.filename)

    def accept(self, kind: str) -> _Token | None:
        tok = self.toks[self.i]
        if tok.kind == kind:
            self.i += 1
            return tok
        return None

    def expect(self, kind: str) -> _Token:
        tok = self.accept(kind)
        if tok is None:
            raise self._error(f"expected {kind!r}, found {self.cur.text or 'end of input'!r}")
        return tok

    def pos(self) -> Pos:
        return Pos(self.cur.line, self.cur.col)

    def _nest(self, level: int, what: str = "expression") -> int:
        if level > MAX_NESTING:
            raise self._error(f"{what} nested deeper than {MAX_NESTING} levels")
        return level

    # -- grammar --

    def program(self) -> Program:
        globs: list[str] = []
        muts: dict[str, _Token] = {}
        protects: dict[str, tuple[_Token, list[_Token]]] = {}
        threads: dict[str, tuple[Stmt, ...]] = {}
        while self.cur.kind != "eof":
            if self.accept("global"):
                for tok in self._names():
                    if tok.text in RESERVED:
                        raise self._error(f"{tok.text!r} is reserved", tok)
                    globs.append(self._unique(tok, globs, "global"))
                self.expect(";")
            elif self.accept("mutex"):
                for tok in self._names():
                    muts[self._unique(tok, muts, "mutex")] = tok
                self.expect(";")
            elif self.accept("protect"):
                tok = self.expect("name")
                g = self._unique(tok, protects, "protect declaration for")
                self.expect("with")
                protects[g] = (tok, self._names())
                self.expect(";")
            elif self.accept("thread"):
                name = self._unique(self.expect("name"), threads, "thread template")
                threads[name] = self.block(0)
            else:
                raise self._error(f"expected declaration or 'thread', found {self.cur.text!r}")
        self._check_declarations(set(globs), muts, protects)
        protections = {g: frozenset(t.text for t in ms) for g, (_, ms) in protects.items()}
        return Program(
            globals=tuple(globs),
            mutexes=tuple(muts),
            threads=threads,
            protections=protections or None,
            filename=self.filename,
        )

    def _check_declarations(self, globs: set[str], muts: dict[str, _Token],
                            protects: dict[str, tuple[_Token, list[_Token]]]) -> None:
        """Checks run once every declaration is read, since ``protect`` may
        precede the names it uses; each error points at the offending name."""
        for m, tok in muts.items():
            if Program.is_atomicity_mutex(m):
                raise self._error(
                    f"mutex name {m!r} is reserved for implicit atomicity mutexes", tok)
        for g, (tok, ms) in protects.items():
            if g not in globs:
                raise self._error(f"protect: unknown global {g!r}", tok)
            for m in ms:
                if m.text not in muts:
                    raise self._error(f"protect: unknown mutex {m.text!r}", m)

    def _names(self) -> list[_Token]:
        toks = [self.expect("name")]
        while self.accept(","):
            toks.append(self.expect("name"))
        return toks

    def _unique(self, tok: _Token, declared, what: str) -> str:
        """The name of ``tok``, unless ``declared`` already holds it."""
        if tok.text in declared:
            raise self._error(f"duplicate {what} {tok.text!r}", tok)
        return tok.text

    def block(self, level: int) -> tuple[Stmt, ...]:
        self.expect("{")
        body = []
        while not self.accept("}"):
            body.append(self.stmt(level))
        return tuple(body)

    def stmt(self, level: int) -> Stmt:
        """A statement at block nesting ``level``; an ``if`` or ``while``
        nests its blocks one level deeper."""
        p = self.pos()
        if self.cur.kind in ("if", "while"):
            level = self._nest(level + 1, "statement")
        if self.accept("if"):
            c = self._paren_cond()
            then = self.block(level)
            return SIf(c, then, self.block(level) if self.accept("else") else (), p)
        if self.accept("while"):
            return SWhile(self._paren_cond(), self.block(level), p)
        s = self._simple_stmt(p)
        self.expect(";")
        return s

    def _simple_stmt(self, p: Pos) -> Stmt:
        """A statement that ends in ``;``, without the ``;``."""
        if self.accept("lock"):
            return SLock(self._paren_name(), p)
        if self.accept("unlock"):
            return SUnlock(self._paren_name(), p)
        if self.accept("return"):
            return SReturn(self.expr(0)[0], p)
        if self.accept("assert"):
            return SAssert(self._paren_cond(), p)
        target = self.expect("name").text
        self.expect("=")
        if self.accept("?"):
            return SAssign(target, None, havoc=True, pos=p)
        if self.accept("create"):
            return SAssign(target, None, create=self._paren_name(), pos=p)
        if self.accept("join"):
            return SAssign(target, None, join=self._paren_name(), pos=p)
        return SAssign(target, self.expr(0)[0], pos=p)

    def _paren_name(self) -> str:
        self.expect("(")
        name = self.expect("name").text
        self.expect(")")
        return name

    def _paren_cond(self) -> Cmp:
        self.expect("(")
        c = self.cond()
        self.expect(")")
        return c

    def cond(self) -> Cmp:
        left, _ = self.expr(0)
        for op in ("==", "!=", "<=", ">=", "<", ">"):
            if self.accept(op):
                right, _ = self.expr(0)
                return Cmp(op, left, right)
        raise self._error("expected comparison operator")

    # ``expr``, ``term`` and ``primary`` parse at nesting ``level`` and also
    # return the deepest level the parsed expression reaches.

    def expr(self, level: int) -> tuple[Expr, int]:
        e, deepest = self.term(level)
        while tok := self.accept("+") or self.accept("-"):
            right, d = self.term(level)
            e, deepest = BinOp(tok.kind, e, right), self._nest(max(deepest, d) + 1)
        return e, deepest

    def term(self, level: int) -> tuple[Expr, int]:
        if self.accept("-"):
            t, deepest = self.term(self._nest(level + 1))
            return BinOp("-", IntLit(0), t), deepest
        left, deepest = self.primary(level)
        if self.accept("*"):
            right, d = self.term(self._nest(level + 1))
            return BinOp("*", left, right), self._nest(max(deepest + 1, d))
        return left, deepest

    def primary(self, level: int) -> tuple[Expr, int]:
        if tok := self.accept("name"):
            return Var(tok.text), level
        if tok := self.accept("num"):
            try:
                return IntLit(int(tok.text)), level
            except ValueError:  # more digits than sys.get_int_max_str_digits()
                raise self._error(
                    f"integer literal of {len(tok.text)} digits is too long", tok) from None
        if self.accept("("):
            e, deepest = self.expr(self._nest(level + 1))
            self.expect(")")
            return e, deepest
        raise self._error(f"expected expression, found {self.cur.text!r}")


def parse_program(text: str, filename: str = "<input>") -> Program:
    """Parse and name-resolve a source file; raises ParseError on bad input."""
    prog = _Parser(text, filename).program()
    _resolve(prog)
    return prog


def _walk(stmts: tuple[Stmt, ...]) -> Iterator[Stmt]:
    """Every statement of ``stmts`` in source order, each ``if`` or ``while``
    before the statements of its blocks."""
    for s in stmts:
        yield s
        match s:
            case SIf(_, then, orelse, _):
                yield from _walk(then)
                yield from _walk(orelse)
            case SWhile(_, body, _):
                yield from _walk(body)


def _resolve(prog: Program) -> None:
    """Checks that do not need the CFG: undeclared names, the entry point and
    misused thread ids.  The first error in source order is raised."""
    if prog.entry not in prog.threads:
        raise ParseError("no 'main' thread template", 1, 1, prog.filename)
    gset = set(prog.globals)
    mset = set(prog.mutexes)

    def error(msg: str, p: Pos) -> ParseError:
        return ParseError(msg, p.line, p.col, prog.filename)

    def check_expr(e: Expr | Cmp, p: Pos, what: str, globals_ok: bool = False) -> None:
        # A thread id is no integer: ``self`` may only be joined.  ``ret``
        # names a thread's returned value and is never a readable local.
        names = expr_vars(e)
        for name in RESERVED:
            if name in names:
                raise error(f"{name!r} cannot be used in {what}", p)
        # Guards and compound right-hand sides may contain only locals; a
        # bare global is fine where it denotes an atomic copy.
        bad = set() if globals_ok else names & gset
        if bad:
            raise error(f"globals forbidden in {what}: {', '.join(sorted(bad))}", p)

    for body in prog.threads.values():
        stmts = list(_walk(body))
        tids = {s.target for s in stmts if isinstance(s, SAssign) and s.create is not None}
        tids = (tids - gset) | {"self"}
        for s in stmts:
            match s:
                case SLock(m, p) | SUnlock(m, p):
                    if m not in mset:
                        raise error(f"undeclared mutex {m!r}", p)
                case SAssign(target, expr, _, create, join, p):
                    if create is not None and create not in prog.threads:
                        raise error(f"undeclared thread template {create!r}", p)
                    if target in RESERVED:
                        raise error(f"{target!r} is reserved", p)
                    if target in gset and (create or join):
                        raise error(f"create and join assign only locals, not global {target!r}", p)
                    if join is not None and join not in tids:
                        raise error(
                            f"join({join}): only 'self' and the targets of create can be joined", p)
                    if expr is not None:
                        check_expr(expr, p, "expressions", globals_ok=isinstance(expr, Var))
                case SReturn(expr, p):
                    check_expr(expr, p, "expressions", globals_ok=isinstance(expr, Var))
                case SIf(cond, _, _, p) | SWhile(cond, _, p):
                    check_expr(cond, p, "guards")
                case SAssert(cond, p):
                    # assert conditions may mention globals (reads are hoisted)
                    check_expr(cond, p, "assertions", globals_ok=True)
