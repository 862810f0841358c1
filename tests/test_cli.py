import contextlib
import io
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tabparse
import tabparse.cli as cli
from tabparse.algorithms import ALGORITHMS
from conftest import CNF_TEXT, EXPR_TEXT, SPS_TEXT

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
README = Path(__file__).resolve().parents[1] / "README.md"
EXPR_CFG = Path(__file__).resolve().parents[1] / "demos/grammars/expr.cfg"
GOLDEN = Path(__file__).resolve().parent / "golden"
PACKAGE_DIR = Path(tabparse.__file__).resolve().parent
INSTALLED_SCRIPT = shutil.which("tabparse")

PARENS_TEXT = "L -> ( L )\nL -> x\n"
CYCLIC_TEXT = "S -> S\nS -> a\n"


def _checkout_env():
    """The environment with this checkout's package first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE_DIR.parent), env.get("PYTHONPATH")])
    )
    return env


@pytest.fixture
def run(capsys):
    def go(*argv):
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return go


@pytest.fixture
def grammars(tmp_path):
    paths = {}
    for name, text in [
        ("expr", EXPR_TEXT),
        ("cnf", CNF_TEXT),
        ("sps", SPS_TEXT),
        ("parens", PARENS_TEXT),
        ("cyclic", CYCLIC_TEXT),
        ("eps", "S ->\n"),
    ]:
        p = tmp_path / f"{name}.cfg"
        p.write_text(text, encoding="utf-8")
        paths[name] = str(p)
    return paths


def test_recognized_and_rejected(run, grammars):
    code, out, _ = run("--grammar", grammars["expr"], "--input", "a + a")
    assert code == 0 and out == "RECOGNIZED\n"
    code, out, _ = run("--grammar", grammars["expr"], "--input", "a +")
    assert code == 1 and out == "REJECTED\n"


@pytest.mark.parametrize("alg", ["earley", "glr", "glr-binarized", "topdown"])
def test_algorithms_agree_on_expr(run, grammars, alg):
    code, out, _ = run(
        "--grammar", grammars["expr"], "--input", "a + a * a", "--algorithm", alg
    )
    assert (code, out) == (0, "RECOGNIZED\n"), alg
    code, out, _ = run(
        "--grammar", grammars["expr"], "--input", "* a", "--algorithm", alg
    )
    assert (code, out) == (1, "REJECTED\n"), alg


@pytest.mark.parametrize("alg", ["cky", "bottomup"])
def test_cnf_algorithms(run, grammars, alg):
    code, out, _ = run(
        "--grammar", grammars["cnf"], "--input", "aabb", "--chars", "--algorithm", alg
    )
    assert (code, out) == (0, "RECOGNIZED\n")
    code, _, _ = run(
        "--grammar", grammars["cnf"], "--input", "ab", "--chars", "--algorithm", alg
    )
    assert code == 1


def test_naive_mode(run, grammars):
    code, out, _ = run(
        "--grammar", grammars["parens"], "--input", "( ( x ) )", "--algorithm", "naive"
    )
    assert (code, out) == (0, "RECOGNIZED\n")
    code, _, _ = run(
        "--grammar", grammars["parens"], "--input", "( x", "--algorithm", "naive"
    )
    assert code == 1


def test_naive_bound_exceeded(run, grammars):
    code, out, err = run(
        "--grammar", grammars["cyclic"], "--input", "b", "--algorithm", "naive"
    )
    assert (code, out, err) == (2, "", "tabparse: naive simulation exceeded its bounds\n")


def test_empty_input_default(run, grammars):
    code, out, _ = run("--grammar", grammars["eps"])
    assert (code, out) == (0, "RECOGNIZED\n")
    code, _, _ = run("--grammar", grammars["expr"])
    assert code == 1


def test_chars_tokenization_strips_spaces(run, grammars):
    code, _, _ = run(
        "--grammar", grammars["cnf"], "--input", " a ab b ", "--chars", "--algorithm", "cky"
    )
    assert code == 0


def test_show_table_earley(run, grammars):
    code, out, _ = run(
        "--grammar", grammars["expr"], "--input", "a + a * a", "--show-table"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "RECOGNIZED"
    assert lines[1] == "T[0,0]: E -> . E * E, E -> . E + E, E -> . a, S -> . E"
    assert "T[4,5]: E -> E . * E, E -> E . + E, E -> a ." in lines


def test_show_table_cky(run, grammars):
    code, out, _ = run(
        "--grammar",
        grammars["cnf"],
        "--input",
        "aabb",
        "--chars",
        "--algorithm",
        "cky",
        "--show-table",
    )
    assert code == 0
    assert "T[0,4]: A, S" in out.splitlines()


def test_show_pda_and_lr(run, grammars):
    code, out, _ = run(
        "--grammar",
        grammars["sps"],
        "--input",
        "a",
        "--algorithm",
        "glr",
        "--show-pda",
        "--show-lr",
    )
    assert code == 0
    assert "init: q0" in out
    assert any(l.startswith("reduce: ") for l in out.splitlines())
    assert "state 0:" in out
    assert any(l.startswith("goto(") for l in out.splitlines())


def test_show_pda_topdown_parenthesizes_symbols(run, grammars):
    code, out, _ = run(
        "--grammar",
        grammars["expr"],
        "--input",
        "a",
        "--algorithm",
        "topdown",
        "--show-pda",
    )
    assert code == 0
    assert "init: (S -> . E)" in out


def test_count_and_trees(run, grammars):
    code, out, _ = run(
        "--grammar",
        grammars["expr"],
        "--input",
        "a + a * a",
        "--count",
        "--trees",
        "5",
    )
    assert code == 0
    lines = out.splitlines()
    assert "trees: 2" in lines
    assert "(S (E (E a) + (E (E a) * (E a))))" in lines
    assert "(S (E (E (E a) + (E a)) * (E a)))" in lines


def test_count_on_glr(run, grammars):
    code, out, _ = run(
        "--grammar",
        grammars["sps"],
        "--input",
        "a + a + a",
        "--algorithm",
        "glr",
        "--count",
    )
    assert code == 0
    assert "trees: 2" in out.splitlines()


def test_count_infinite_and_shallowest_trees(run, grammars):
    code, out, _ = run(
        "--grammar",
        grammars["cyclic"],
        "--input",
        "a",
        "--count",
        "--trees",
        "3",
    )
    assert code == 0
    assert out.splitlines() == [
        "RECOGNIZED",
        "trees: infinite",
        "(S a)",
        "(S (S a))",
        "(S (S (S a)))",
    ]


def test_forest_full_marks_eliminated(run, grammars):
    code, out, _ = run(
        "--grammar",
        grammars["cnf"],
        "--input",
        "aabb",
        "--chars",
        "--algorithm",
        "cky",
        "--forest",
        "full",
    )
    assert code == 0
    lines = out.splitlines()[1:]
    assert len(lines) == 24
    assert sum(1 for l in lines if l.endswith(" #eliminated")) == 6
    code, out, _ = run(
        "--grammar",
        grammars["cnf"],
        "--input",
        "aabb",
        "--chars",
        "--algorithm",
        "cky",
        "--forest",
        "reduced",
    )
    lines = out.splitlines()[1:]
    assert len(lines) == 18
    assert not any(l.endswith("#eliminated") for l in lines)


@pytest.mark.parametrize("kind", ["full", "reduced"])
@pytest.mark.parametrize("alg", ["earley", "topdown", "glr", "glr-binarized"])
def test_forest_text_golden(run, alg, kind):
    # Item forests print their nodes through the chart's item views; the
    # exact text, eliminated marks included, is pinned per algorithm.
    code, out, err = run(
        "--grammar",
        str(EXPR_CFG),
        "--input",
        "a + a * a",
        "--algorithm",
        alg,
        "--forest",
        kind,
    )
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"forest-{alg}-{kind}.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "alg, grammar, text",
    [
        ("topdown", "expr", "a + a * a"),
        ("glr-binarized", "sps", "a + a + a"),
        ("bottomup", "cnf", "a a b b"),
        ("glr", "expr", "a + a * a"),
    ],
)
def test_pda_text_golden(run, alg, grammar, text):
    # Each compiler's machine, transitions in order, is pinned by its dump.
    # The lazy shift-reduce machine comes with the automaton its reductions
    # read: each state's item set, and the goto map in its build order.
    path = EXPR_CFG.with_name(f"{grammar}.cfg")
    show = ("--show-pda", "--show-lr") if alg == "glr" else ("--show-pda",)
    code, out, err = run("--grammar", str(path), "--input", text, "--algorithm", alg, *show)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"pda-{alg}.txt").read_text(encoding="utf-8")


def test_binarized_symbols_and_completes():
    # What the dump leaves out of the binarized machine: its stack symbols
    # and the rule each finishing step completes.
    p = ALGORITHMS["glr-binarized"].prepare(tabparse.parse_grammar(SPS_TEXT))
    assert sorted(map(str, p.stack_symbols)) == [
        "[S -> S + S; 0]", "[S -> S + S; 1]", "q0", "q1", "q2", "q3", "q4", "q_final"
    ]
    assert sorted(f"{t} => {rule}" for t, rule in p.completes.items()) == [
        "q0 ([S -> S + S; 0]) , eps , q0 q1 => S -> S + S",
        "q0 q1 , eps , q_final => S' -> S",
        "q0 q2 , eps , q0 q1 => S -> a",
        "q3 ([S -> S + S; 0]) , eps , q3 q4 => S -> S + S",
        "q3 q2 , eps , q3 q4 => S -> a",
    ]


def test_dot_output(run, grammars, tmp_path):
    target = tmp_path / "chart.dot"
    code, _, _ = run(
        "--grammar",
        grammars["expr"],
        "--input",
        "a",
        "--algorithm",
        "topdown",
        "--dot",
        str(target),
    )
    assert code == 0
    text = target.read_text(encoding="utf-8")
    assert text.startswith("digraph chart {")
    assert text.endswith("}\n")


def test_dot_to_missing_directory_is_a_usage_error(run, grammars, tmp_path):
    # The verdict is printed before the chart is written, so it stands.
    target = tmp_path / "missing" / "chart.dot"
    argv = ["--grammar", grammars["expr"], "--input", "a", "--algorithm", "topdown"]
    code, out, err = run(*argv, "--dot", str(target))
    assert (code, out) == (2, "RECOGNIZED\n")
    assert err == f"tabparse: cannot write {target}: No such file or directory\n"
    assert not target.parent.exists()


def test_oracle_agreement(run, grammars):
    code, out, _ = run(
        "--grammar", grammars["expr"], "--input", "a + a", "--oracle"
    )
    assert code == 0
    assert "oracle: agree" in out.splitlines()
    code, out, _ = run("--grammar", grammars["expr"], "--input", "+", "--oracle")
    assert code == 1
    assert "oracle: agree" in out.splitlines()


def test_oracle_token_spelled_like_a_nonterminal(run, tmp_path):
    # The token "S" is no terminal: nothing derives it, the oracle included.
    path = tmp_path / "spelled.cfg"
    path.write_text("S -> A b\nA -> a\n", encoding="utf-8")
    code, out, err = run("--grammar", str(path), "--input", "S", "--oracle")
    assert (code, out, err) == (1, "REJECTED\noracle: agree\n", "")


def test_binarized_forest_counts_and_trees(run, grammars):
    code, out, _ = run(
        "--grammar",
        grammars["sps"],
        "--input",
        "a + a + a",
        "--algorithm",
        "glr-binarized",
        "--count",
        "--trees",
        "5",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[:2] == ["RECOGNIZED", "trees: 2"]
    assert set(lines[2:]) == {"(S (S (S a) + (S a)) + (S a))", "(S (S a) + (S (S a) + (S a)))"}


@st.composite
def _fuzz_grammar_text(draw):
    """Up to four rules over a few symbols, "->" among them, and at most one
    malformed line: no arrow, no left-hand side, blank, or a comment."""
    lines = draw(
        st.lists(
            st.builds(
                lambda lhs, rhs: " ".join([lhs, "->", *rhs]),
                st.sampled_from(["S", "A", "a"]),
                st.lists(st.sampled_from(["S", "A", "a", "b", "->"]), max_size=3),
            ),
            min_size=1,
            max_size=4,
        )
    )
    bad = draw(st.sampled_from([None, "S a", "-> a", "", "# note"]))
    if bad is not None:
        lines.insert(draw(st.integers(0, len(lines))), bad)
    return "\n".join(lines) + "\n"


# Flags other than --oracle, which is drawn on its own.
_FUZZ_FLAGS = st.lists(
    st.sampled_from(
        [
            ("--chars",),
            ("--show-pda",),
            ("--show-lr",),
            ("--show-table",),
            ("--forest", "full"),
            ("--forest", "reduced"),
            ("--count",),
            ("--trees", "0"),
            ("--trees", "3"),
            ("--dot", "DOT"),
        ]
    ),
    unique=True,
    max_size=4,
)


@settings(deadline=None)
@given(
    text=_fuzz_grammar_text(),
    # Tokens over the terminals, the nonterminal names and one unknown symbol.
    tokens=st.lists(st.sampled_from(["S", "A", "a", "b", "c"]), max_size=4),
    alg=st.sampled_from([alg for alg in ALGORITHMS if alg != "naive"]),
    flags=_FUZZ_FLAGS,
    oracle=st.booleans(),
)
@example(text="S -> A b\nA -> a\n", tokens=["S"], alg="earley", flags=[], oracle=True)
@example(
    text="S -> S a\nS -> a\n",
    tokens=["a", "a"],
    alg="glr-binarized",
    flags=[("--forest", "full"), ("--count",), ("--trees", "3")],
    oracle=True,
)
def test_cli_fuzz_exits_cleanly(tmp_path_factory, text, tokens, alg, flags, oracle):
    # Any grammar text, input and flag set ends in exit 0, 1 or 2: never in
    # an oracle disagreement (3) or an exception.  `naive` is left out: its
    # search may take about 20 s before it reports exhausted bounds.
    where = tmp_path_factory.getbasetemp() / "fuzz"
    where.mkdir(exist_ok=True)
    path = where / "fuzz.cfg"
    path.write_text(text, encoding="utf-8")
    argv = ["--grammar", str(path), "--input", " ".join(tokens), "--algorithm", alg]
    for flag in flags:
        argv += [str(where / "chart.dot") if part == "DOT" else part for part in flag]
    if oracle:
        argv.append("--oracle")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2), (argv, out.getvalue(), err.getvalue())


def test_oracle_disagreement_exits_3(run, grammars, monkeypatch):
    monkeypatch.setattr(cli, "recognizes", lambda g, toks: False)
    code, out, _ = run(
        "--grammar", grammars["expr"], "--input", "a", "--oracle"
    )
    assert code == 3
    assert "oracle: disagree" in out.splitlines()


@pytest.mark.parametrize("count", ["0", "-3"])
def test_unusable_requests(run, grammars, count):
    argv = ("--grammar", grammars["expr"], "--input", "a", "--trees", count)
    assert run(*argv) == (2, "", "tabparse: --trees: K must be positive\n")


# The CLI's capability matrix, written out: each algorithm and artifact flag
# it refuses, with the exact error line.  Every other cell is allowed.
_MATRIX_ALGORITHMS = ("earley", "cky", "glr", "glr-binarized", "topdown", "bottomup", "naive")
_MATRIX_FLAGS = (
    "--show-pda", "--show-lr", "--show-table", "--dot", "--count", "--forest", "--trees"
)
_REFUSED = {
    ("earley", "--show-pda"): "--show-pda: earley builds no stack machine",
    ("earley", "--show-lr"): "--show-lr: earley builds no shift-reduce automaton",
    ("earley", "--dot"): "--dot: earley builds no item graph",
    ("cky", "--show-pda"): "--show-pda: cky builds no stack machine",
    ("cky", "--show-lr"): "--show-lr: cky builds no shift-reduce automaton",
    ("cky", "--dot"): "--dot: cky builds no item graph",
    ("topdown", "--show-lr"): "--show-lr: topdown builds no shift-reduce automaton",
    ("bottomup", "--show-lr"): "--show-lr: bottomup builds no shift-reduce automaton",
    ("naive", "--show-lr"): "--show-lr: naive builds no shift-reduce automaton",
    ("naive", "--show-table"): "--show-table: naive simulation builds no table",
    ("naive", "--dot"): "--dot: naive builds no item graph",
    ("naive", "--count"): "naive simulation builds no forest",
    ("naive", "--forest"): "naive simulation builds no forest",
    ("naive", "--trees"): "naive simulation builds no forest",
}
# A grammar each algorithm takes: naive searches for about 20 s on cnf.
_MATRIX_GRAMMAR = {"cky": "cnf", "bottomup": "cnf", "naive": "parens"}


@pytest.mark.parametrize("flag", _MATRIX_FLAGS)
@pytest.mark.parametrize("alg", _MATRIX_ALGORITHMS)
def test_capability_matrix(run, grammars, tmp_path, alg, flag):
    dot = tmp_path / "chart.dot"
    value = {"--dot": str(dot), "--forest": "full", "--trees": "3"}.get(flag)
    argv = ["--algorithm", alg, flag, *([value] if value else [])]
    grammar = grammars[_MATRIX_GRAMMAR.get(alg, "expr")]
    code, out, err = run("--grammar", grammar, "--input", "a", *argv)
    if (alg, flag) in _REFUSED:
        assert (code, out, err) == (2, "", f"tabparse: {_REFUSED[alg, flag]}\n")
        assert not dot.exists()
    else:
        assert code in (0, 1) and err == ""


def test_first_refusal_is_reported(run, grammars, tmp_path):
    # Flags are checked in a fixed order, before the grammar file is read.
    argv = ["--grammar", grammars["parens"], "--algorithm", "naive", "--show-table", "--count"]
    assert run(*argv) == (2, "", "tabparse: --show-table: naive simulation builds no table\n")
    argv = ["--grammar", str(tmp_path / "missing.cfg"), "--algorithm", "cky", "--dot", "x.dot"]
    assert run(*argv) == (2, "", "tabparse: --dot: cky builds no item graph\n")


def test_bad_grammar_file(run, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("S - a\n", encoding="utf-8")
    code, _, err = run("--grammar", str(bad), "--input", "a")
    assert code == 2
    assert "bad grammar" in err


def test_duplicate_rules_reported_one_line_each(run, tmp_path):
    # Each dropped duplicate is one warning line on stderr, never a
    # traceback, even when the interpreter turns warnings into errors.
    path = tmp_path / "dup.cfg"
    path.write_text("S -> a\nS -> S S\nS -> a\nS -> S S\n", encoding="utf-8")
    warned = (
        "tabparse: warning: line 3: duplicate rule S -> a dropped\n"
        "tabparse: warning: line 4: duplicate rule S -> S S dropped\n"
    )
    argv = ["--grammar", str(path), "--input", "a a", "--count"]
    assert run(*argv) == (0, "RECOGNIZED\ntrees: 1\n", warned)
    proc = subprocess.run(
        [sys.executable, "-m", "tabparse.cli", *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env={**_checkout_env(), "PYTHONWARNINGS": "error"},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "RECOGNIZED\ntrees: 1\n", warned)


def test_missing_grammar_file(run, tmp_path):
    code, _, err = run("--grammar", str(tmp_path / "nope.cfg"), "--input", "a")
    assert code == 2
    assert "cannot read" in err


def test_grammar_file_with_byte_order_mark(run, tmp_path):
    # The mark is no part of the first left-hand side: S stays the start.
    path = tmp_path / "bom.cfg"
    path.write_bytes(b"\xef\xbb\xbfS -> a S\nS -> b\n")
    code, out, err = run("--grammar", str(path), "--input", "a a b", "--oracle")
    assert (code, out, err) == (0, "RECOGNIZED\noracle: agree\n", "")


def test_grammar_file_not_utf8(run, tmp_path):
    path = tmp_path / "latin1.cfg"
    path.write_bytes("S -> \xe9\n".encode("latin-1"))
    code, out, err = run("--grammar", str(path), "--input", "a")
    assert (code, out) == (2, "")
    assert f"cannot read {path}: not UTF-8 at byte 5" in err


def test_algorithm_grammar_mismatch(run, grammars):
    # expression grammar is not in Chomsky normal form
    code, _, err = run(
        "--grammar", grammars["expr"], "--input", "a", "--algorithm", "cky"
    )
    assert code == 2
    assert "normal form" in err
    # empty rules are out of reach for shift-reduce construction
    code, _, err = run(
        "--grammar", grammars["eps"], "--input", "", "--algorithm", "glr"
    )
    assert code == 2
    assert "empty rules" in err


def test_deep_tree_extracts(tmp_path):
    # A 2,000-token left list is a tree 2,000 levels deep, far past the
    # interpreter's recursion limit.  Run in its own process so that an
    # uncaught error would show as a traceback on stderr.
    n = 2000
    path = tmp_path / "left.cfg"
    path.write_text("L -> L a\nL -> a\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "tabparse.cli", "--grammar", str(path),
         "--input", " ".join(["a"] * n), "--trees", "1"],
        capture_output=True,
        text=True,
        timeout=60,
        env=_checkout_env(),
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    left_comb = "(L " * n + "a)" + " a)" * (n - 1)
    assert proc.stdout == "RECOGNIZED\n" + left_comb + "\n"


def test_naive_long_right_list(tmp_path):
    # The simulator's branch grows three configurations per token; in its
    # own process, an uncaught RecursionError would show as a traceback.
    n = 1000
    path = tmp_path / "right.cfg"
    path.write_text("L -> a L\nL -> a\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "tabparse.cli", "--grammar", str(path),
         "--algorithm", "naive", "--input", " ".join(["a"] * n)],
        capture_output=True,
        text=True,
        timeout=60,
        env=_checkout_env(),
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "RECOGNIZED\n", "")


def test_readme_matches_the_table():
    # The usage block lists the table's algorithms in order, and the
    # artifact matrix says what each record can show.
    text = README.read_text(encoding="utf-8")
    text = text[text.index("## Command line") :]
    assert re.search(r"--algorithm \{(.*?)\}", text).group(1).split(",") == list(ALGORITHMS)
    rows = dict(re.findall(r"^\| `([\w-]+)` \| (.*) \|$", text, re.M))
    assert rows == {
        name: " | ".join(
            "yes" if shown else "no"
            for shown in (a.shows_pda, a.shows_lr, a.dump_table, a.shows_graph, a.build_forest)
        )
        for name, a in ALGORITHMS.items()
    }


def _scan_scripts_table(text):
    """The ``name = "module:function"`` lines of the [project.scripts] table.

    Stands in for tomllib, which Python 3.10 lacks."""
    scripts = {}
    in_table = False
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            in_table = line.replace(" ", "") == "[project.scripts]"
        elif in_table and "=" in line:
            name, _, target = line.partition("=")
            scripts[name.strip().strip("\"'")] = target.strip().strip("\"'")
    return scripts


def _declared_scripts():
    text = PYPROJECT.read_text(encoding="utf-8")
    try:
        import tomllib
    except ModuleNotFoundError:
        return _scan_scripts_table(text)
    return tomllib.loads(text)["project"]["scripts"]


def _script_interpreter(script):
    """The interpreter command named in an installed console script's header."""
    with open(script, encoding="utf-8") as handle:
        shebang, second = handle.readline(), handle.readline()
    command = shlex.split(shebang[2:])
    if command == ["/bin/sh"]:
        # long interpreter paths: '''exec' "/path/to/python" "$0" "$@"
        command = shlex.split(second)[1:-2]
    return command


def test_scripts_table_scan_agrees_with_tomllib():
    tomllib = pytest.importorskip("tomllib")
    text = PYPROJECT.read_text(encoding="utf-8")
    assert _scan_scripts_table(text) == tomllib.loads(text)["project"]["scripts"]


def test_console_entry_point():
    # Launch the declared entry point in its own process the way a generated
    # console script does, with this checkout's package first on the path.
    module, _, func = _declared_scripts()["tabparse"].partition(":")
    launcher = (
        "import sys\n"
        f"from {module} import {func.split('.')[0]}\n"
        f"sys.exit({func}())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", launcher, "--help"],
        capture_output=True,
        text=True,
        timeout=60,
        env=_checkout_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert "--algorithm" in proc.stdout


@pytest.mark.skipif(INSTALLED_SCRIPT is None, reason="no tabparse script on PATH")
def test_installed_console_script(tmp_path):
    # The script has to find the package through its own installation, so the
    # source tree on PYTHONPATH is not passed on.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [INSTALLED_SCRIPT, "--help"],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "--algorithm" in proc.stdout
    where = subprocess.run(
        [
            *_script_interpreter(INSTALLED_SCRIPT),
            "-c",
            "import tabparse; print(tabparse.__file__)",
        ],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
        cwd=tmp_path,
    )
    assert where.returncode == 0, where.stderr
    # an install from another checkout would run other code than this suite tests
    assert Path(where.stdout.strip()).resolve().parent == PACKAGE_DIR
