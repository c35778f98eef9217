"""Pretty-printer; `parse(pretty(parse(text)))` yields an identical Program."""

from __future__ import annotations

from .ast import (
    Program, SAssert, SAssign, SIf, SLock, SReturn, SUnlock, SWhile, Stmt,
)


def _stmt(s: Stmt, ind: str) -> list[str]:
    match s:
        case SLock(m, _):
            return [f"{ind}lock({m});"]
        case SUnlock(m, _):
            return [f"{ind}unlock({m});"]
        case SReturn(e, _):
            return [f"{ind}return {e};"]
        case SAssert(c, _):
            return [f"{ind}assert({c});"]
        case SAssign(x, e, havoc, create, join, _):
            if havoc:
                return [f"{ind}{x} = ?;"]
            if create:
                return [f"{ind}{x} = create({create});"]
            if join:
                return [f"{ind}{x} = join({join});"]
            return [f"{ind}{x} = {e};"]
        case SIf(c, then, orelse, _):
            out = [f"{ind}if ({c}) {{", *_block(then, ind)]
            if orelse:
                out += [f"{ind}}} else {{", *_block(orelse, ind)]
            return out + [f"{ind}}}"]
        case SWhile(c, body, _):
            return [f"{ind}while ({c}) {{", *_block(body, ind), f"{ind}}}"]
    raise TypeError(s)


def _block(stmts: tuple[Stmt, ...], ind: str) -> list[str]:
    """The lines of ``stmts``, indented one level deeper than ``ind``."""
    return [line for s in stmts for line in _stmt(s, ind + "  ")]


def pretty_print(prog: Program) -> str:
    lines: list[str] = []
    if prog.globals:
        lines.append("global " + ", ".join(prog.globals) + ";")
    if prog.mutexes:
        lines.append("mutex " + ", ".join(prog.mutexes) + ";")
    if prog.protections:
        for g in sorted(prog.protections):
            lines.append(f"protect {g} with " + ", ".join(sorted(prog.protections[g])) + ";")
    for name, body in prog.threads.items():
        lines += [f"thread {name} {{", *_block(body, ""), "}"]
    return "\n".join(lines) + "\n"
