from pathlib import Path

import pytest

from concurrel.frontend import (
    Lock, ParseError, ReadGlobal, Unlock, WriteGlobal, build_cfg, cfg_dump,
    parse_program, pretty_print, validate,
)
from concurrel.frontend.ast import BinOp, IntLit, Var
from conftest import CORPUS, load


def test_minimal_program():
    p = parse_program("thread main { }")
    assert p.entry == "main"
    assert p.threads["main"] == ()
    cfgs = build_cfg(p)
    assert len(cfgs["main"].points) == 1
    assert cfgs["main"].edges == []


def test_example1_shape():
    p = load("intro_cluster")
    assert set(p.threads) == {"main", "t1", "t2"}
    assert set(p.globals) == {"g", "h", "i"}
    assert p.mutexes == ("a",)


def test_globals_forbidden_in_expressions():
    with pytest.raises(ParseError, match="globals forbidden"):
        parse_program("global g; thread main { x = g + 1; }")
    with pytest.raises(ParseError, match="globals forbidden"):
        parse_program("global g; thread main { while (g < 2) { x = 1; } }")


def test_nesting_limit_is_100_levels():
    def parse_expr(e):
        return parse_program(f"thread main {{ x = {e}; }}")

    parse_expr("+".join(["1"] * 101))  # 100 operators
    parse_expr("(" * 100 + "1" + ")" * 100)
    parse_expr("-" * 99 + "(1)")
    for too_deep in ("+".join(["1"] * 102), "(" * 101 + "1" + ")" * 101, "-" * 100 + "(1)",
                     "(" * 60 + "+".join(["1"] * 42) + ")" * 60):
        with pytest.raises(ParseError, match="nested deeper than 100 levels"):
            parse_expr(too_deep)


def test_parenthesized_left_factor_of_a_product():
    """A number, a name or a parenthesized expression may stand left of
    ``*``.  The printer writes every product in parentheses, so the round
    trip reads such factors back.  A product is one level deeper than its
    left factor."""
    def rhs(e):
        (stmt,) = parse_program(f"thread main {{ x = {e}; }}").threads["main"]
        return stmt.expr

    y, z = Var("y"), Var("z")
    assert rhs("(y + z) * 2") == BinOp("*", BinOp("+", y, z), IntLit(2))
    assert rhs("(y) * 2") == BinOp("*", y, IntLit(2))
    assert rhs("(y * 2) * 3") == BinOp("*", BinOp("*", y, IntLit(2)), IntLit(3))
    assert rhs("-(y) * 2 * z") == BinOp("-", IntLit(0), BinOp("*", y, BinOp("*", IntLit(2), z)))
    p = parse_program("thread main { y = 1; z = 2; x = ((y + z) * 2) * (z - 1); }")
    exprs = [s.expr for s in parse_program(pretty_print(p)).threads["main"]]
    assert exprs == [s.expr for s in p.threads["main"]]
    rhs("(" * 99 + "y" + ")" * 99 + " * 2")
    rhs("(" * 98 + "y + z" + ")" * 98 + " * 2")
    for too_deep in ("(" * 100 + "y" + ")" * 100 + " * 2", "(" * 99 + "y + z" + ")" * 99 + " * 2"):
        with pytest.raises(ParseError, match="nested deeper than 100 levels"):
            rhs(too_deep)


def test_joining_self_stays_legal():
    parse_program("thread main { x = create(t1); } thread t1 { y = join(self); }")


def test_missing_main():
    with pytest.raises(ParseError, match="main"):
        parse_program("thread t1 { x = 1; }")


def test_undeclared_names():
    with pytest.raises(ParseError, match="undeclared mutex"):
        parse_program("thread main { lock(a); }")
    with pytest.raises(ParseError, match="undeclared thread"):
        parse_program("thread main { x = create(nope); }")


def test_reserved_mutex_prefix():
    with pytest.raises(ParseError, match="reserved"):
        parse_program("mutex m_g; thread main { }")


def test_write_wrapped_in_atomicity_mutex():
    p = parse_program("global g; thread main { x = 1; g = x; }")
    cfg = build_cfg(p)["main"]
    acts = [e.action for e in cfg.edges]
    assert acts[1:] == [Lock("m_g"), WriteGlobal("g", "x"), Unlock("m_g")]


def test_every_global_access_is_wrapped(programs):
    for p in programs.values():
        for cfg in build_cfg(p).values():
            for e in cfg.edges:
                if isinstance(e.action, (ReadGlobal, WriteGlobal)):
                    m = p.protecting_mutex(e.action.glob)
                    (prev,) = [x for x in cfg.edges if x.dst == e.src]
                    (nxt,) = [x for x in cfg.edges if x.src == e.dst]
                    assert prev.action == Lock(m)
                    assert nxt.action == Unlock(m)


def test_while_lowering_is_a_diamond():
    p = parse_program("thread main { x = 0; while (x < 5) { x = x + 1; } y = x; }")
    cfg = build_cfg(p)["main"]
    guards = [e for e in cfg.edges if type(e.action).__name__ == "Guard"]
    conds = {str(g.action.cond) for g in guards}
    assert "x < 5" in conds and "x >= 5" in conds
    head = next(e.src for e in cfg.edges if str(getattr(e.action, "cond", "")) == "x < 5")
    assert any(e.dst == head for e in cfg.edges if e.src != head), "back edge missing"


def test_start_point_has_no_incoming_edges():
    p = parse_program("thread main { while (1 < 2) { x = 1; } }")
    for cfg in build_cfg(p).values():
        assert all(e.dst != cfg.start for e in cfg.edges)


# no corpus program branches, so the round trip also reads this one
_IF_ELSE = """
global g;
mutex a;
protect g with a;
thread main {
  x = ?;
  if (x > 0) {
    lock(a);
    g = x;
    unlock(a);
  } else {
    if (x < 1) { y = 1; }
  }
}
"""


_NESTED_ERRORS = """mutex a;
thread main {
  if (x < 1) {
    y = join(t);
    lock(c);
  } else {
    while (x > 0) {
      t = create(main);
      y = join(x);
    }
  }
  lock(b);
}
"""


def test_resolver_reports_nested_errors_in_source_order():
    """The first error in source order is raised, in a then block, in a loop
    inside an else block or after both; ``t`` may be joined above the
    nested create that makes it a thread id."""
    src = _NESTED_ERRORS
    for bad, good, error in (
        ("lock(c)", "lock(a)", "5:5: error: undeclared mutex 'c'"),
        ("join(x)", "join(t)",
         "9:7: error: join(x): only 'self' and the targets of create can be joined"),
        ("lock(b)", "lock(a)", "12:3: error: undeclared mutex 'b'"),
    ):
        with pytest.raises(ParseError) as e:
            parse_program(src, "nested.conc")
        assert str(e.value) == "nested.conc:" + error
        src = src.replace(bad, good)
    parse_program(src, "nested.conc")


def test_roundtrip_and_determinism():
    sources = [(path, Path(path).read_text(encoding="utf-8")) for path in CORPUS]
    sources.append(("if_else", _IF_ELSE))
    for path, text in sources:
        p1 = parse_program(text, path)
        p2 = parse_program(pretty_print(p1), path)
        assert pretty_print(p1) == pretty_print(p2)
        assert cfg_dump(build_cfg(p1)) == cfg_dump(build_cfg(p2))
        assert cfg_dump(build_cfg(p1)) == cfg_dump(build_cfg(parse_program(text, path)))


def test_validate_clean_on_example1():
    assert validate(load("intro_cluster")) == []


def test_validate_reentrant_lock():
    p = parse_program("mutex a; thread main { lock(a); lock(a); }")
    diags = validate(p)
    assert any("re-entrant lock" in d.message for d in diags)


def test_validate_unprotected_write():
    # a declaration may also follow the template that uses it
    for src in ("global g; thread main { g = 1; }", "thread main { g = 1; } global g;"):
        diags = validate(parse_program(src))
        assert any("no protecting mutex for g" in d.message for d in diags), src


def test_validate_diagnostic_format():
    p = parse_program("global g; thread main { g = 1; }", "file.conc")
    d = validate(p)[0]
    assert str(d).startswith("file.conc:") and ": warning: " in str(d)


def test_validate_diagnostics_point_at_the_statement():
    src = "global g;\nmutex a;\nprotect g with a;\nthread main {\n  x = 1;\n  g = x;\n}\n"
    (err,) = validate(parse_program(src, "w.conc"))
    assert (err.severity, err.line, err.col) == ("error", 6, 3)
    assert str(err).startswith("w.conc:6:3: error: write to 'g' at main.2")
    src = "global g;\nmutex a;\nthread main {\n  lock(a);\n  lock(a);\n}\nthread t {\n  unlock(a);\n}\n"
    diags = {d.message.split(" '")[0]: (d.line, d.col) for d in validate(parse_program(src))}
    assert diags == {"re-entrant lock": (5, 3), "unlock of un-held mutex": (8, 3)}
    # a step reached with two different held sets is reported once
    src = "mutex a, b;\nthread main {\n  x = 0;\n  if (x == 0) { lock(b); }\n  lock(a);\n  lock(a);\n}\n"
    assert [(d.line, d.message) for d in validate(parse_program(src))] == [
        (6, "re-entrant lock 'a' at main.6")]
    # declaration-level warnings have no statement
    src = "global g, h;\nmutex a;\nprotect h with a;\nthread main {\n  g = 1;\n}\n"
    assert [(d.line, d.col) for d in validate(parse_program(src))] == [(1, 1), (1, 1)]


def test_validate_protection_violation_is_error():
    src = """
    global g; mutex a;
    protect g with a;
    thread main { g = 1; }
    """
    diags = validate(parse_program(src))
    assert any(d.severity == "error" and "without declared protecting" in d.message
               for d in diags)
