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

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>//[^\n]*)
      | (?P<num>\d+)
      | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<op>==|!=|<=|>=|[-+*<>=();{},?])
    """,
    re.VERBOSE,
)


class ParseError(SyntaxError):
    def __init__(self, msg: str, line: int, col: int, filename: str = "<input>"):
        super().__init__(f"{filename}:{line}:{col}: error: {msg}")
        self.line = line
        self.col = col


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind  # 'num' | 'name' | literal text | 'eof'
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text: str, filename: str) -> list[_Token]:
    toks = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col, filename)
        lexeme = m.group()
        if m.lastgroup == "num":
            toks.append(_Token("num", lexeme, line, col))
        elif m.lastgroup == "name":
            kind = lexeme if lexeme in KEYWORDS else "name"
            toks.append(_Token(kind, lexeme, line, col))
        elif m.lastgroup == "op":
            toks.append(_Token(lexeme, lexeme, line, col))
        nl = lexeme.count("\n")
        if nl:
            line += nl
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
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
        if self.cur.kind == kind:
            tok = self.cur
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
        if self.accept("lock"):
            self.expect("(")
            m = self.expect("name").text
            self.expect(")")
            self.expect(";")
            return SLock(m, p)
        if self.accept("unlock"):
            self.expect("(")
            m = self.expect("name").text
            self.expect(")")
            self.expect(";")
            return SUnlock(m, p)
        if self.accept("return"):
            e, _ = self.expr(0)
            self.expect(";")
            return SReturn(e, p)
        if self.accept("assert"):
            self.expect("(")
            c = self.cond()
            self.expect(")")
            self.expect(";")
            return SAssert(c, p)
        if self.accept("if"):
            self.expect("(")
            c = self.cond()
            self.expect(")")
            then = self.block(level)
            orelse: tuple[Stmt, ...] = ()
            if self.accept("else"):
                orelse = self.block(level)
            return SIf(c, then, orelse, p)
        if self.accept("while"):
            self.expect("(")
            c = self.cond()
            self.expect(")")
            return SWhile(c, self.block(level), p)
        target = self.expect("name").text
        self.expect("=")
        if self.accept("?"):
            self.expect(";")
            return SAssign(target, None, havoc=True, pos=p)
        if self.accept("create"):
            self.expect("(")
            t = self.expect("name").text
            self.expect(")")
            self.expect(";")
            return SAssign(target, None, create=t, pos=p)
        if self.accept("join"):
            self.expect("(")
            x = self.expect("name").text
            self.expect(")")
            self.expect(";")
            return SAssign(target, None, join=x, pos=p)
        e, _ = self.expr(0)
        self.expect(";")
        return SAssign(target, e, pos=p)

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
        if tok := self.accept("num") or self.accept("name"):
            return IntLit(int(tok.text)) if tok.kind == "num" else Var(tok.text), level
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


def _resolve(prog: Program) -> None:
    """Checks that do not need the CFG: undeclared names, the entry point and
    misused thread ids."""
    if prog.entry not in prog.threads:
        raise ParseError("no 'main' thread template", 1, 1, prog.filename)
    gset = set(prog.globals)
    mset = set(prog.mutexes)

    def check_reserved(e: Expr | Cmp, p: Pos, what: str) -> None:
        # A thread id is no integer: ``self`` may only be joined.  ``ret``
        # names a thread's returned value and is never a readable local.
        names = expr_vars(e)
        for name in RESERVED:
            if name in names:
                raise ParseError(f"{name!r} cannot be used in {what}", p.line, p.col, prog.filename)

    def check_expr(e: Expr | Cmp, p: Pos, what: str, bare_global_ok: bool = False) -> None:
        # Guards and compound right-hand sides may contain only locals; a
        # bare global is fine where it denotes an atomic copy.
        check_reserved(e, p, what)
        names = expr_vars(e)
        if bare_global_ok and isinstance(e, Var):
            return
        bad = names & gset
        if bad:
            raise ParseError(
                f"globals forbidden in {what}: {', '.join(sorted(bad))}", p.line, p.col, prog.filename
            )

    def create_targets(stmts) -> set[str]:
        out = set()
        for s in stmts:
            match s:
                case SAssign(target, create=str()):
                    out.add(target)
                case SIf(_, then, orelse, _):
                    out |= create_targets(then) | create_targets(orelse)
                case SWhile(_, body, _):
                    out |= create_targets(body)
        return out

    def check_block(stmts, tids: set[str]) -> None:
        for s in stmts:
            match s:
                case SLock(m, p) | SUnlock(m, p):
                    if m not in mset:
                        raise ParseError(f"undeclared mutex {m!r}", p.line, p.col, prog.filename)
                case SAssign(target, expr, _, create, join, p):
                    if create is not None and create not in prog.threads:
                        raise ParseError(
                            f"undeclared thread template {create!r}", p.line, p.col, prog.filename
                        )
                    if target in RESERVED:
                        raise ParseError(f"{target!r} is reserved", p.line, p.col, prog.filename)
                    if target in gset and (create or join):
                        raise ParseError(
                            f"create and join assign only locals, not global {target!r}",
                            p.line, p.col, prog.filename)
                    if join is not None and join not in tids:
                        raise ParseError(
                            f"join({join}): only 'self' and the targets of create can be joined",
                            p.line, p.col, prog.filename)
                    if expr is not None:
                        check_expr(expr, p, "expressions", bare_global_ok=True)
                case SReturn(expr, p):
                    check_expr(expr, p, "expressions", bare_global_ok=True)
                case SIf(cond, then, orelse, p):
                    check_expr(cond, p, "guards")
                    check_block(then, tids)
                    check_block(orelse, tids)
                case SWhile(cond, body, p):
                    check_expr(cond, p, "guards")
                    check_block(body, tids)
                case SAssert(cond, p):
                    # assert conditions may mention globals (reads are hoisted)
                    check_reserved(cond, p, "assertions")
                case _:
                    pass

    for body in prog.threads.values():
        check_block(body, (create_targets(body) - gset) | {"self"})
