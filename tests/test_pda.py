import copy
import pickle

import pytest

from tabparse.algorithms import ALGORITHMS
from tabparse.pda import (
    Configuration,
    Interned,
    Marker,
    Pda,
    Run,
    Transition,
    applicable,
    dump_pda,
    dump_run,
    pda_size,
    simulate,
)
from tabparse.grammar import Rule, augment_start, parse_grammar
from tabparse.lr import AuxSymbol, LrState
from tabparse.strategies import DottedRule, compile_topdown
from conftest import BRANCHING_TRANSITIONS

RUN_LEFT = """\
q0 | 0
q0 q1 | 1
q0 q2 | 2
q0 q2 q4 | 3
q0 q2 q4 q5 | 4
q0 q2 q6 | 4
q0 q7 | 4
q9 | 4"""

RUN_RIGHT = """\
q0 | 0
q0 q1 | 1
q0 q3 | 2
q0 q3 q4 | 3
q0 q3 q4 q5 | 4
q0 q3 q6 | 4
q0 q8 | 4
q9 | 4"""


def test_pda_size(branching_pda):
    assert pda_size(branching_pda) == 41


def test_transition_str():
    assert str(Transition(("q0",), ("a",), ("q0", "q1"))) == "q0 , a , q0 q1"
    assert str(Transition(("q4", "q5"), (), ("q6",))) == "q4 q5 , eps , q6"


def test_marker_identity():
    assert Marker("bot") == Marker("bot")
    assert Marker("bot") != Marker("top")
    assert Marker("S") != "S" and "S" != Marker("S")
    assert len({Marker("S"), "S"}) == 2
    assert str(Marker("bot")) == "bot"


INTERNED = (Marker, DottedRule, LrState, AuxSymbol)


def _key(cls, n):
    """A key of `cls`, built afresh on each call; equal for equal `n`."""
    rule = Rule("E", ("E", "+", "E"))
    return {
        Marker: (f"m{n}",),
        DottedRule: (rule, n),
        LrState: (n, frozenset({DottedRule(rule, n)})),
        AuxSymbol: (rule, n),
    }[cls]


@pytest.mark.parametrize("cls", INTERNED, ids=lambda cls: cls.__name__)
def test_symbol_is_hash_consed(cls):
    s = cls(*_key(cls, 1))
    assert type(s) is cls and isinstance(s, Interned)
    assert cls(*_key(cls, 1)) is s
    assert cls(*_key(cls, 2)) is not s
    # Each class has a table of its own.
    assert all(other(*_key(other, 1)) is not s for other in INTERNED if other is not cls)
    assert copy.copy(s) is s
    assert copy.deepcopy(s) is s
    assert pickle.loads(pickle.dumps(s)) is s
    field = cls.__slots__[0]
    with pytest.raises(AttributeError):
        setattr(s, field, getattr(s, field))
    with pytest.raises(AttributeError):
        s.extra = None
    # Identity comparison and hashing stay in C: no Python-level slot.
    for name in ("__eq__", "__hash__", "__lt__", "__le__", "__gt__", "__ge__"):
        assert getattr(cls, name) is getattr(object, name), name


@pytest.mark.parametrize("algorithm", ["topdown", "bottomup", "glr", "glr-binarized"])
def test_compiled_stack_symbols_are_interned(algorithm, expr_grammar, cnf_grammar):
    for g in (expr_grammar, cnf_grammar):
        if algorithm == "bottomup" and g is expr_grammar:
            continue  # not in Chomsky normal form
        p = ALGORITHMS[algorithm].prepare(g)
        assert all(isinstance(s, (str, Interned)) for s in p.stack_symbols)


def test_symbol_validation():
    with pytest.raises(ValueError, match="stack symbol"):
        Pda(frozenset("a"), frozenset("q"), "q", "r", ())
    with pytest.raises(ValueError, match="stack symbol"):
        Pda(
            frozenset("a"),
            frozenset("q"),
            "q",
            "q",
            (Transition(("r",), (), ("q",)),),
        )
    with pytest.raises(ValueError, match="input symbol"):
        Pda(
            frozenset("a"),
            frozenset("q"),
            "q",
            "q",
            (Transition(("q",), ("b",), ("q", "q")),),
        )


def test_applicable():
    t = Transition(("q0", "q1"), ("b",), ("q0", "q2"))
    c = Configuration(("q0", "q1"), 1)
    assert applicable(t, c, "abcd") == Configuration(("q0", "q2"), 2)
    assert applicable(t, Configuration(("q1", "q0"), 1), "abcd") is None
    assert applicable(t, Configuration(("q0", "q1"), 0), "abcd") is None
    # pops need the full suffix present
    assert applicable(t, Configuration(("q1",), 1), "abcd") is None


def test_branching_runs_byte_exact(branching_pda):
    res = simulate(branching_pda, "abcd")
    assert res.verdict == "yes"
    assert len(res.runs) == 2
    assert dump_run(res.runs[0]) == RUN_LEFT
    assert dump_run(res.runs[1]) == RUN_RIGHT


def test_runs_follow_declaration_order(branching_pda):
    # Swapping the two competing push transitions swaps the run order.
    ts = list(BRANCHING_TRANSITIONS)
    ts[1], ts[2] = ts[2], ts[1]
    swapped = Pda(
        branching_pda.input_alphabet,
        branching_pda.stack_symbols,
        "q0",
        "q9",
        tuple(ts),
    )
    res = simulate(swapped, "abcd")
    assert dump_run(res.runs[0]) == RUN_RIGHT
    assert dump_run(res.runs[1]) == RUN_LEFT


def test_runs_are_sound(branching_pda):
    tokens = tuple("abcd")
    for run in simulate(branching_pda, tokens).runs:
        assert run.steps[0] == Configuration(("q0",), 0)
        assert run.steps[-1] == Configuration(("q9",), 4)
        for before, after in zip(run.steps, run.steps[1:]):
            assert any(
                applicable(t, before, tokens) == after
                for t in branching_pda.transitions
            )


@pytest.mark.parametrize(
    "text, verdict",
    [("abcd", "yes"), ("abc", "no"), ("", "no"), ("abdc", "no"), ("abcdd", "no")],
)
def test_verdicts(branching_pda, text, verdict):
    assert simulate(branching_pda, text).verdict == verdict


def test_max_runs_truncates(branching_pda):
    res = simulate(branching_pda, "abcd", max_runs=1)
    assert res.verdict == "yes"
    assert len(res.runs) == 1
    assert dump_run(res.runs[0]) == RUN_LEFT


@pytest.mark.parametrize(
    "text, bounds, verdict, truncated, runs",
    [
        ("abcd", {"max_steps": 3}, "bound-exceeded", True, 0),
        ("abcd", {"max_stack_depth": 3}, "bound-exceeded", True, 0),
        ("abcd", {"max_runs": 1}, "yes", True, 1),
        ("abcd", {}, "yes", False, 2),
        ("abc", {}, "no", False, 0),
    ],
)
def test_how_a_search_ends(branching_pda, text, bounds, verdict, truncated, runs):
    # Both runs pass a four-symbol stack (q0 q2 q4 q5, q0 q3 q4 q5), so depth 3 cuts both.
    res = simulate(branching_pda, text, **bounds)
    assert (res.verdict, res.truncated, len(res.runs)) == (verdict, truncated, runs)


def test_step_bound_reported():
    # One self-feeding push transition: the only way to stop is the bound.
    p = Pda(
        frozenset("a"),
        frozenset("q"),
        "q",
        "q",
        (Transition(("q",), (), ("q", "q")),),
    )
    res = simulate(p, "a", max_steps=100)
    assert res.verdict == "bound-exceeded"
    assert res.runs == ()


def test_stack_depth_bound_reported():
    p = Pda(
        frozenset("a"),
        frozenset({"q", "r"}),
        "q",
        "r",
        (Transition(("q",), (), ("q", "q")),),
    )
    res = simulate(p, "", max_stack_depth=5)
    assert res.verdict == "bound-exceeded"


def test_dump_pda(branching_pda):
    text = dump_pda(branching_pda)
    lines = text.splitlines()
    assert lines[0] == "init: q0"
    assert lines[1] == "final: q9"
    assert lines[2] == "q0 , a , q0 q1"
    assert lines[8] == "q4 q5 , eps , q6"
    assert len(lines) == 13


def test_empty_input_acceptance():
    # initial == final accepts the empty input with a one-configuration run
    p = Pda(frozenset(), frozenset("q"), "q", "q", ())
    res = simulate(p, [])
    assert res.verdict == "yes" and not res.truncated
    assert res.runs == (Run((Configuration(("q",), 0),)),)


def test_long_branch_runs_without_recursion():
    # Each token of a right list adds three configurations to the branch, so
    # 1,000 tokens make a 3,001-configuration run, past the interpreter's
    # recursion limit.
    n = 1000
    p = compile_topdown(augment_start(parse_grammar("L -> a L\nL -> a")))
    res = simulate(p, ["a"] * n, max_runs=1)
    assert res.verdict == "yes"
    (run,) = res.runs
    assert len(run.steps) == 3 * n + 1
    assert run.steps[0] == Configuration((p.initial,), 0)
    assert run.steps[-1] == Configuration((p.final,), n)
    assert max(len(c.stack) for c in run.steps) == n + 1
    res = simulate(p, ["a"] * n, max_steps=5_000)
    assert res.verdict == "yes" and len(res.runs) == 1
    assert simulate(p, ["a"] * n + ["b"], max_steps=5_000).verdict == "bound-exceeded"
