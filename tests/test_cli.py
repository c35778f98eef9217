"""CLI exit codes, JSON schema, dump determinism, and compare tables."""

import json
from collections import Counter

import pytest

from concurrel.analysis import dump_solution, preset, run_analysis
from concurrel.cli import main
from concurrel.domains import KERNEL
from concurrel.frontend import parse_program

from conftest import corpus_path, load


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as e:
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_clusters_preset_proves_example1(capsys):
    code, out, _ = run_cli(capsys, "run", corpus_path("intro_cluster"),
                           "--preset", "clusters")
    assert code == 0
    assert out.count("PROVEN") == 2


def test_tids_preset_leaves_assert2_open(capsys):
    code, out, _ = run_cli(capsys, "run", corpus_path("intro_cluster"),
                           "--preset", "tids")
    assert code == 1
    assert "UNKNOWN" in out and "PROVEN" in out


def test_missing_file_exit_2(capsys):
    code, _, err = run_cli(capsys, "run", "no_such_file.conc")
    assert code == 2
    assert "no_such_file" in err


def test_parse_error_exit_2(tmp_path, capsys):
    f = tmp_path / "bad.conc"
    f.write_text("thread main { x = ; }")
    code, _, err = run_cli(capsys, "run", str(f))
    assert code == 2
    assert "error" in err


def test_non_utf8_source_exit_2(tmp_path, capsys):
    f = tmp_path / "latin1.conc"
    f.write_bytes("global g; // café\nthread main { g = 1; }\n".encode("latin-1"))
    code, _, err = run_cli(capsys, "run", str(f))
    assert code == 2
    assert "not valid UTF-8" in err and "Traceback" not in err


_SUM_400 = "+".join(["1"] * 400)
_SUM_3000 = "+".join(["1"] * 3000)
_PARENS_1500 = "(" * 1500 + "1" + ")" * 1500
_TOO_DEEP = "expression nested deeper than 100 levels"
_IFS_500 = "if (x < 1) { " * 500 + "}" * 500
_WHILES_101 = "while (x < 1) { " * 101 + "}" * 101
_TOO_DEEP_STMT = "statement nested deeper than 100 levels"


@pytest.mark.parametrize("src, position, message", [
    ("global g; thread main { g = create(t1); } thread t1 { }",
     "1:25", "create and join assign only locals, not global 'g'"),
    ("global g; thread main { x = create(t1); g = join(x); } thread t1 { return 0; }",
     "1:41", "create and join assign only locals, not global 'g'"),
    ("thread main {\n  x = self + 1; }", "2:3", "'self' cannot be used in expressions"),
    ("thread main { x = self; }", "1:15", "'self' cannot be used in expressions"),
    ("thread main { while (self < 3) { } }", "1:15", "'self' cannot be used in guards"),
    ("thread main { assert(self == 1); }", "1:15", "'self' cannot be used in assertions"),
    ("thread main { x = create(t1); } thread t1 { return self; }",
     "1:45", "'self' cannot be used in expressions"),
    (f"thread main {{ x = {_SUM_400}; }}", "1:222", _TOO_DEEP),
    (f"thread main {{ x = {_SUM_3000}; }}", "1:222", _TOO_DEEP),
    (f"thread main {{ x = {_PARENS_1500}; }}", "1:120", _TOO_DEEP),
    (f"thread main {{ {_IFS_500} }}", "1:1315", _TOO_DEEP_STMT),
    (f"thread main {{ {_WHILES_101} }}", "1:1615", _TOO_DEEP_STMT),
    ("thread main { y = 3; x = join(y); assert(0 == 1); }",
     "1:22", "join(y): only 'self' and the targets of create can be joined"),
    ("global g; thread main { x = join(g); assert(0 == 1); }",
     "1:25", "join(g): only 'self' and the targets of create can be joined"),
    ("thread main { x = join(z); assert(0 == 1); }",
     "1:15", "join(z): only 'self' and the targets of create can be joined"),
    ("thread main { x = ret; assert(x == 5); }", "1:15", "'ret' cannot be used in expressions"),
    ("thread main { while (ret < 3) { } }", "1:15", "'ret' cannot be used in guards"),
    ("thread main { assert(ret == 5); }", "1:15", "'ret' cannot be used in assertions"),
    ("thread main { x = create(t1); } thread t1 { return ret + 1; }",
     "1:45", "'ret' cannot be used in expressions"),
    ("global self; thread main { x = 1; }", "1:8", "'self' is reserved"),
    ("global ret; thread main { x = 1; }", "1:8", "'ret' is reserved"),
    ("global g, g; thread main { g = 1; }", "1:11", "duplicate global 'g'"),
    ("global g;\nglobal g; thread main { g = 1; }", "2:8", "duplicate global 'g'"),
    ("mutex a, a; thread main { }", "1:10", "duplicate mutex 'a'"),
    ("global g; mutex a, b; protect g with a; protect g with b; thread main { }",
     "1:49", "duplicate protect declaration for 'g'"),
    ("global g;\nmutex a;\nprotect h with a;\nthread main { }",
     "3:9", "protect: unknown global 'h'"),
    ("global g;\nmutex a;\nprotect g with b;\nthread main { }",
     "3:16", "protect: unknown mutex 'b'"),
    ("global g;\nmutex m_g;\nthread main { }",
     "2:7", "mutex name 'm_g' is reserved for implicit atomicity mutexes"),
    (f"thread main {{ x = {'9' * 4301}; }}", "1:19", "integer literal of 4301 digits is too long"),
    ("thread main { x = 1 $ 2; }", "1:21", "unexpected character '$'"),
    ("// a comment\nthread main { x = 1 $ 2; }", "2:21", "unexpected character '$'"),
    ("thread main {\n\tx = 1 $ 2; }", "2:8", "unexpected character '$'"),
    ("thread main {\r\n  x = 1 $ 2; }", "2:9", "unexpected character '$'"),
    ("thread main { x = 1 }", "1:21", "expected ';', found '}'"),
    ("global g; lock a;", "1:11", "expected declaration or 'thread', found 'lock'"),
    ("thread main { if (x) { } }", "1:20", "expected comparison operator"),
    ("thread main { self = 1; }", "1:15", "'self' is reserved"),
], ids=["create-to-global", "join-to-global", "self-sum", "self-copy", "self-guard",
        "self-assert", "self-return", "sum-400", "sum-3000", "parens-1500", "ifs-500",
        "whiles-101",
        "join-int-local", "join-global", "join-unassigned", "ret-copy", "ret-guard",
        "ret-assert", "ret-return", "global-self", "global-ret", "global-twice-in-one",
        "global-twice", "mutex-twice", "protect-twice", "protect-unknown-global",
        "protect-unknown-mutex", "mutex-reserved", "literal-4301-digits",
        "bad-character", "bad-character-after-comment", "bad-character-after-tab",
        "bad-character-after-crlf", "missing-semicolon", "statement-at-top-level",
        "guard-without-comparison", "assign-to-self"])
def test_bad_program_exit_2_with_position(tmp_path, capsys, src, position, message):
    f = tmp_path / "bad.conc"
    f.write_text(src)
    code, _, err = run_cli(capsys, "run", str(f), "--oracle")
    assert code == 2
    assert f"{f}:{position}: error: {message}" in err
    assert "Traceback" not in err


def test_eqconst_forgets_constants_too_long_to_print(tmp_path, capsys):
    """A computed constant of more digits than ``str`` prints, assigned or
    met in a guard, is forgotten, so both dumps render."""
    big = "1" + "0" * 4000
    f = tmp_path / "big.conc"
    f.write_text(f"global g; mutex a; protect g with a;\nthread main {{ x = {big}; "
                 f"y = x * 1{'0' * 400}; z = ?; if (z == {big} * {big}) {{ w = z; }} "
                 "lock(a); g = y; unlock(a); }")
    for dump in ("--dump-solution", "--dump-invariants"):
        code, out, err = run_cli(capsys, "run", str(f), "--domain", "eqconst", dump)
        assert code == 0 and err == ""
        assert f"x={big}" in out and "y=1" not in out and "z=1" not in out


@pytest.mark.parametrize("domain", ["octagon", "interval"])
def test_huge_coefficient_of_an_unbounded_variable(tmp_path, capsys, domain):
    """A coefficient beyond float range times a variable with a missing
    bound leaves that side of the result unbounded and the other exact."""
    big = "1" + "0" * 400
    f = tmp_path / "huge.conc"
    f.write_text(f"thread main {{ x = ?; y = x * {big}; "
                 f"if (x >= 0) {{ z = x * {big} + 1; assert(z >= 1); }} }}")
    code, out, err = run_cli(capsys, "run", str(f), "--domain", domain, "--dump-solution")
    assert code == 0 and err == ""
    assert "PROVEN" in out and "y>=" not in out and "y<=" not in out


def test_nesting_at_the_bound_runs(tmp_path, capsys):
    """100 nested blocks around an expression 100 levels deep pass every
    phase, oracle and solution dump included."""
    f = tmp_path / "deep.conc"
    f.write_text("thread main { " + "if (x < 1) { " * 100 + f"x = {_SUM_400[:201]}; "
                 + "}" * 100 + " }")
    code, out, err = run_cli(capsys, "run", str(f), "--oracle", "--dump-solution")
    assert code == 0 and err == ""
    assert "oracle: checked 202 states, 0 witnesses" in out and "x=101" in out


def test_protect_may_precede_its_declarations(tmp_path, capsys):
    f = tmp_path / "early.conc"
    f.write_text("protect g with a;\nglobal g;\nmutex a;\n"
                 "thread main { lock(a); g = 1; unlock(a); }\n")
    code, _, err = run_cli(capsys, "run", str(f))
    assert code == 0 and "error" not in err


def test_non_integer_step_budget_exit_2(capsys, monkeypatch):
    monkeypatch.setenv("CONCURREL_STEP_BUDGET", "abc")
    code, _, err = run_cli(capsys, "run", corpus_path("joins"))
    assert code == 2
    assert "CONCURREL_STEP_BUDGET must be an integer" in err


def test_compare_bad_program_exit_2(tmp_path, capsys, monkeypatch):
    # a program that fails validation, then a valid one that exhausts the budget
    f = tmp_path / "unprotected.conc"
    f.write_text("global g; mutex a; protect g with a;\nthread main { x = 1; g = x; }\n")
    code, _, err = run_cli(capsys, "compare", str(f), "--presets", "octagon,tids")
    assert code == 2
    assert "without declared protecting mutex(es) a" in err
    monkeypatch.setenv("CONCURREL_STEP_BUDGET", "5")
    code, _, err = run_cli(capsys, "compare", corpus_path("joins"), "--presets", "octagon,tids")
    assert code == 2
    assert "solver aborted after 6 constraint evaluations" in err


@pytest.mark.parametrize("presets, message", [
    ("octagon", "concurrel: compare needs at least two presets"),
    ("octagon,bogus", "concurrel: unknown preset 'bogus'"),
    ("octagon,interval", "concurrel: compare requires a common domain"),
    ("octagon,octagon", "concurrel: duplicate preset 'octagon'"),
    ("octagon,tids,octagon", "concurrel: duplicate preset 'octagon'"),
], ids=["one-preset", "unknown-preset", "two-domains", "duplicate-preset",
        "duplicate-preset-later"])
def test_compare_bad_presets_exit_2_before_analyzing(capsys, monkeypatch, presets, message):
    import concurrel.cli as cli

    def no_analysis(*_):
        raise AssertionError("analyzed despite bad presets")

    monkeypatch.setattr(cli, "_load_and_analyze", no_analysis)
    code, _, err = run_cli(capsys, "compare", corpus_path("joins"), "--presets", presets)
    assert code == 2
    assert err.strip() == message
    assert "Traceback" not in err


def test_conflicting_flags_exit_2(capsys):
    for program, flags, message in [
        ("joins", ("--preset", "tids", "--lock-once"),
         "lock-once digest is only supported in base mode"),
        ("ancestor", ("--preset", "octagon", "--exclude-ancestor-writes"),
         "concurrel: --exclude-ancestor-writes needs thread ids (tids/clusters)"),
    ]:
        code, _, err = run_cli(capsys, "run", corpus_path(program), *flags)
        assert code == 2
        assert message in err


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as e:
        main(["run", "x.conc", "--preset", "bogus"])
    assert e.value.code == 2


def test_json_schema_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "run", corpus_path("example8"),
                           "--preset", "tids", "--format", "json",
                           "--dump-invariants")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"asserts", "invariants", "stats"}
    assert all(set(a) == {"file", "line", "verdict"} for a in doc["asserts"])
    counts = ("unknowns", "evaluations", "constraints", "widenings", "relations", "memo_hits")
    assert {*counts, "wall_ms", "kernel"} <= set(doc["stats"])
    assert doc["stats"]["kernel"] == KERNEL
    assert json.loads(json.dumps(doc)) == doc
    # the text output's stats line reports the same solver and domain counts,
    # and the closure kernel
    _, text, _ = run_cli(capsys, "run", corpus_path("example8"), "--preset", "tids",
                         "--dump-invariants")
    line = next(l for l in text.splitlines() if l.startswith("unknowns="))
    fields = dict(f.split("=") for f in line.split())
    assert {k: int(fields[k]) for k in counts} == {k: doc["stats"][k] for k in counts}
    assert fields["kernel"] == KERNEL


def test_json_dump_solution_is_one_document(capsys):
    """With --format json the solution dump is the document's "solution"
    string, so stdout parses as JSON; text mode still appends the dump."""
    path = corpus_path("joins")
    code, out, _ = run_cli(capsys, "run", path, "--preset", "clusters", "--format", "json",
                           "--dump-solution")
    assert code == 0
    solution = dump_solution(run_analysis(load("joins"), preset("clusters")))
    assert json.loads(out)["solution"] == solution
    _, text, _ = run_cli(capsys, "run", path, "--preset", "clusters", "--dump-solution")
    assert text.endswith(solution) and not text.startswith("{")


def test_text_and_json_verdicts_agree(capsys):
    _, out_text, _ = run_cli(capsys, "run", corpus_path("example8"), "--preset", "octagon")
    _, out_json, _ = run_cli(capsys, "run", corpus_path("example8"), "--preset", "octagon",
                             "--format", "json")
    text_verdicts = [l.split(": ")[-1] for l in out_text.splitlines() if "assert(" in l]
    json_verdicts = [a["verdict"] for a in json.loads(out_json)["asserts"]]
    assert text_verdicts == json_verdicts


def test_dump_solution_byte_identical(capsys):
    def dump_lines(out):
        return [l for l in out.splitlines() if l.startswith("[")]

    _, out1, _ = run_cli(capsys, "run", corpus_path("joins"), "--preset", "clusters",
                         "--dump-solution")
    _, out2, _ = run_cli(capsys, "run", corpus_path("joins"), "--preset", "clusters",
                         "--dump-solution")
    assert dump_lines(out1) and dump_lines(out1) == dump_lines(out2)


def test_oracle_flag_clean_program(capsys):
    code, out, _ = run_cli(capsys, "run", corpus_path("joins"), "--preset", "tids",
                           "--oracle")
    assert code == 0
    assert "oracle: checked" in out


def test_oracle_reports_truncation(capsys):
    # tid_loop's exploration stops at the thread cap, so its check exits 1
    # although every assert is proven; joins' is complete
    for prog, truncated in (("tid_loop", True), ("joins", False)):
        code, out, _ = run_cli(capsys, "run", corpus_path(prog), "--preset", "tids",
                               "--oracle", "--format", "json")
        assert code == (1 if truncated else 0), prog
        oracle = json.loads(out)["oracle"]
        assert oracle["truncated"] is truncated, prog
        assert oracle["truncated_by"] == (["max_threads"] if truncated else []), prog
        # every reachable row is checked; states counts collapsed states and
        # may be fewer than the rows
        assert oracle["checked_states"] == oracle["reachable"] > 0
        assert oracle["schedules"] > 0 and oracle["segments"] > 0
        assert oracle["digest_misses"] == []
        # the text reports the same facts
        _, out, _ = run_cli(capsys, "run", corpus_path(prog), "--preset", "tids", "--oracle")
        assert (f"oracle: checked {oracle['checked_states']} states, 0 witnesses, "
                "0 proven-violated, 0 digest misses\n") in out
        assert (f" after {oracle['states']} states in {oracle['segments']} segments, "
                f"{oracle['reachable']} reachable rows and {oracle['schedules']} final states"
                ) in out
        assert ("exploration truncated after" in out) is truncated, prog
        assert ("exploration complete after" in out) is not truncated, prog
        assert ("by max_threads=6; the check is incomplete" in out) is truncated, prog


def test_oracle_soundness_bug_exit_3(capsys, monkeypatch):
    from concurrel.analysis.base_system import BaseAnalysis

    from conftest import unlock_publishing_nothing

    monkeypatch.setattr(BaseAnalysis, "_unlock_rhs",
                        unlock_publishing_nothing(BaseAnalysis._unlock_rhs))
    code, out, err = run_cli(capsys, "run", corpus_path("fig_ex0"),
                             "--preset", "octagon", "--oracle")
    assert code == 3


def test_dump_invariants_text(capsys):
    code, out, _ = run_cli(capsys, "run", corpus_path("four_asserts"),
                           "--preset", "octagon", "--dump-invariants")
    assert code == 0
    assert "invariant at" in out and "lock(a)" in out


def test_compare_tids_never_less_precise_than_octagon(capsys):
    for name in ("example8", "intro_cluster", "joins", "four_asserts"):
        code, out, _ = run_cli(capsys, "compare", corpus_path(name),
                               "--presets", "octagon,tids")
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("tids vs octagon"))
        assert "less-precise=0" in line and "incomparable=0" in line, (name, line)


@pytest.mark.parametrize("name, presets, line", [
    # against clusters, tids loses precision at 21 points and gains none
    ("one_element", "clusters,tids",
     "tids vs clusters: equal=38, incomparable=0, less-precise=21, more-precise=0"),
    # the base system names the threads created in a loop with other
    # abstract ids than the thread-id system, so their id sets do not compare
    ("tid_loop", "octagon,tids",
     "tids vs octagon: equal=1, incomparable=8, less-precise=0, more-precise=7"),
])
def test_compare_reports_every_outcome(capsys, name, presets, line):
    code, out, _ = run_cli(capsys, "compare", corpus_path(name), "--presets", presets)
    assert code == 0
    assert out.splitlines()[0] == line


def test_compare_json(capsys):
    code, out, _ = run_cli(capsys, "compare", corpus_path("intro_cluster"),
                           "--presets", "tids,clusters", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["base"] == "tids"
    assert doc["points"]["clusters"]["less-precise"] == 0
    assert doc["asserts"]["clusters"] == ["PROVEN", "PROVEN"]


def test_flag_plumbing_overrides_preset(capsys):
    # octagon preset + explicit eqconst domain still proves the equality program
    code, out, _ = run_cli(capsys, "run", corpus_path("four_asserts"),
                           "--preset", "octagon", "--domain", "eqconst")
    assert code == 0
    # clusters flag with size 1: singletons only, assert (2) of one_element holds
    code, out, _ = run_cli(capsys, "run", corpus_path("one_element"),
                           "--mode", "clusters", "--clusters", "le-k",
                           "--cluster-size", "1")
    lines = [l for l in out.splitlines() if "assert(" in l]
    assert "h == 12" in lines[1] and lines[1].endswith("PROVEN")


def _dump(capsys, path, *flags):
    """The exit code and the solution dump of ``concurrel run``."""
    code, out, _ = run_cli(capsys, "run", path, "--dump-solution", *flags)
    return code, [l for l in out.splitlines() if l.startswith("[")]


def test_cluster_size_keeps_the_preset_cluster_mode(capsys):
    """Without --clusters, --cluster-size resizes the preset's own family:
    clusters of at most K globals under the clusters preset, and still one
    cluster per mutex under the monolithic tids preset."""
    path = corpus_path("one_element")
    resized = _dump(capsys, path, "--preset", "clusters", "--cluster-size", "1")
    assert resized == _dump(capsys, path, "--preset", "clusters", "--clusters", "le-k",
                            "--cluster-size", "1")
    assert resized != _dump(capsys, path, "--preset", "clusters")
    assert (_dump(capsys, path, "--preset", "tids", "--cluster-size", "1")
            == _dump(capsys, path, "--preset", "tids"))


def test_exclude_ancestor_writes_flag(capsys):
    """The flag reaches the analysis: t1's assert (1) on the creator's
    earlier writes is proven with it and not without."""
    path = corpus_path("ancestor")
    code, out, _ = run_cli(capsys, "run", path, "--preset", "tids",
                           "--exclude-ancestor-writes", "--dump-solution")
    assert code == 1  # assert (2) stays open
    assert "assert(g == h): PROVEN" in out
    assert out.endswith(dump_solution(
        run_analysis(load("ancestor"), preset("tids", exclude_ancestor_writes=True))))
    _, out, _ = run_cli(capsys, "run", path, "--preset", "tids")
    assert "assert(g == h): UNKNOWN" in out


def test_inferred_protections_flag(tmp_path, capsys):
    """g is declared protected by a, and every write of it also holds b: with
    inferred protections b publishes g too."""
    src = ("global g; mutex a, b; protect g with a;\n"
           "thread main { lock(a); lock(b); g = 1; unlock(b); unlock(a); }\n")
    f = tmp_path / "nested.conc"
    f.write_text(src)
    code, out, _ = run_cli(capsys, "run", str(f), "--preset", "octagon",
                           "--protections", "inferred", "--dump-solution")
    assert code == 0
    assert out.endswith(dump_solution(
        run_analysis(parse_program(src), preset("octagon", protections="inferred"))))
    assert "\n[b, {g}, ()] := g<=1, g>=0\n" in out
    assert "[b, {}, ()] := ⊤" in _dump(capsys, str(f), "--preset", "octagon")[1]


def test_compare_verbose_lists_every_point(capsys):
    """--verbose adds, under each summary line, one line per program point
    whose relations add up to the summary's counts."""
    path = corpus_path("joins")
    code, out, _ = run_cli(capsys, "compare", path, "--presets", "octagon,tids", "--verbose")
    assert code == 0
    _, brief, _ = run_cli(capsys, "compare", path, "--presets", "octagon,tids")
    lines = out.splitlines()
    detail = [l for l in lines if l.startswith("  ")]
    assert [l for l in lines if l not in detail] == brief.splitlines()
    assert lines[1:len(detail) + 1] == detail
    points = [str(p) for cfg in run_analysis(load("joins"), preset("octagon")).cfgs.values()
              for p in cfg.points]
    assert [l.strip().split(": ")[0] for l in detail] == points
    counts = Counter(l.split(": ")[1] for l in detail)
    kinds = ("equal", "incomparable", "less-precise", "more-precise")
    assert lines[0] == "tids vs octagon: " + ", ".join(f"{k}={counts[k]}" for k in kinds)


def test_lock_once_flag(capsys):
    code, _, _ = run_cli(capsys, "run", corpus_path("lockonce_strict"),
                         "--preset", "octagon", "--lock-once")
    assert code == 0
    code, _, _ = run_cli(capsys, "run", corpus_path("lockonce_strict"),
                         "--preset", "octagon")
    assert code == 1


def test_cluster_size_validation(capsys):
    code, _, err = run_cli(capsys, "run", corpus_path("joins"), "--cluster-size", "0")
    assert code == 2
    assert err == "concurrel: --cluster-size must be >= 1\n"
