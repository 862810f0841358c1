from typing import NamedTuple

import pytest

from tabparse.grammar import GrammarError, Rule, augment_start, parse_grammar
from tabparse.pda import Marker, pda_size, simulate
from tabparse.strategies import (
    DottedRule,
    compile_bottomup,
    compile_topdown,
    dotted_rules,
)


def test_dotted_rule_str():
    r = Rule("E", ("E", "+", "E"))
    assert str(DottedRule(r, 0)) == "E -> . E + E"
    assert str(DottedRule(r, 2)) == "E -> E + . E"
    assert str(DottedRule(r, 3)) == "E -> E + E ."
    assert str(DottedRule(Rule("S", ()), 0)) == "S -> ."


def test_dotted_rule_goal_and_advance():
    d = DottedRule(Rule("S", ("E",)), 0)
    assert d.goal == "E"
    assert not d.is_complete
    done = d.advance()
    assert done is DottedRule(Rule("S", ("E",)), 1) and done is d.advance()
    assert done.is_complete and done.goal is None
    with pytest.raises(ValueError):
        done.advance()


class _NamedTupleDottedRule(NamedTuple):
    """The tuple-based DottedRule that the hash-consed class replaced."""

    rule: Rule
    dot: int

    def __str__(self) -> str:
        parts = [self.rule.lhs, "->"]
        parts += self.rule.rhs[: self.dot]
        parts.append(".")
        parts += self.rule.rhs[self.dot :]
        return " ".join(parts)


def test_dotted_rule_text_matches_named_tuple(expr_grammar, cnf_grammar, sps_grammar):
    for g in (expr_grammar, cnf_grammar, sps_grammar):
        for d in dotted_rules(augment_start(g)):
            old = _NamedTupleDottedRule(d.rule, d.dot)
            assert str(d) == str(old)
            assert repr(d) == repr(old).replace("_NamedTupleDottedRule", "DottedRule")


def test_dotted_rules_count(expr_grammar):
    # one position per dot, so sum of |rhs| + 1
    assert len(list(dotted_rules(expr_grammar))) == 12


def test_topdown_machine_shape(expr_grammar):
    p = compile_topdown(expr_grammar)
    assert p.kind == "topdown"
    assert p.initial == DottedRule(Rule("S", ("E",)), 0)
    assert p.final == DottedRule(Rule("S", ("E",)), 1)
    assert p.accept_stack() == (p.final,)
    # goals: 5 nonterminal occurrences across dotted positions expand into
    # 3 E-rules each, matched by as many completion pops; 3 terminal reads
    expands = [t for t in p.transitions if not t.read and len(t.pop) == 1]
    reads = [t for t in p.transitions if t.read]
    pops = [t for t in p.transitions if len(t.pop) == 2]
    assert len(expands) == 15
    assert len(pops) == 15
    assert len(reads) == 3
    assert all(len(t.read) == 1 for t in reads)


@pytest.mark.parametrize(
    "text, verdict",
    [
        ("a", "yes"),
        ("a + a", "yes"),
        ("a + a * a", "yes"),
        ("a +", "no"),
        ("+ a", "no"),
        ("", "no"),
    ],
)
def test_topdown_simulation(text, verdict):
    # right-recursive variant: depth-first search terminates on it
    g = parse_grammar("S -> E\nE -> a + E\nE -> a * E\nE -> a")
    p = compile_topdown(g)
    assert simulate(p, text.split()).verdict == verdict


def test_topdown_left_recursion_defeats_simulation(expr_grammar):
    # prediction re-expands the leftmost goal without consuming input, so
    # the search space explodes; this is what tabulation is for
    p = compile_topdown(expr_grammar)
    res = simulate(p, ["a"], max_steps=20_000)
    assert res.verdict == "bound-exceeded"


def test_topdown_epsilon_only_grammar():
    p = compile_topdown(parse_grammar("S ->"))
    assert p.transitions == ()
    assert p.initial == p.final
    assert simulate(p, []).verdict == "yes"
    assert simulate(p, ["x"]).verdict == "no"


def test_bottomup_machine_shape(cnf_grammar):
    p = compile_bottomup(cnf_grammar)
    assert p.kind == "bottomup"
    assert p.bottom_marker_start
    assert p.initial == Marker("bot^")
    assert p.final == "S"
    assert p.accept_stack() == (Marker("bot^"), "S")
    shifts = [t for t in p.transitions if t.read]
    reduces = [t for t in p.transitions if not t.read]
    assert len(shifts) == 2 and all(not t.pop for t in shifts)
    assert len(reduces) == 4 and all(len(t.pop) == 2 for t in reduces)


def test_bottomup_rejects_non_cnf(expr_grammar):
    with pytest.raises(GrammarError, match="normal form"):
        compile_bottomup(expr_grammar)


@pytest.mark.parametrize(
    "text, verdict",
    [("b", "yes"), ("aabb", "yes"), ("ab", "no"), ("", "no"), ("ba", "no")],
)
def test_bottomup_simulation(cnf_grammar, text, verdict):
    p = compile_bottomup(cnf_grammar)
    assert simulate(p, text).verdict == verdict


def test_compiled_sizes_are_linear_in_grammar(expr_grammar, cnf_grammar):
    # not a tight bound, just a sanity guard against duplicated transitions
    assert pda_size(compile_topdown(expr_grammar)) == 15 * 3 + 3 * 3 + 15 * 3
    assert pda_size(compile_bottomup(cnf_grammar)) == 2 * 2 + 4 * 3
