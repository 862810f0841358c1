import itertools

import pytest

from tabparse.earley import (
    EarleyItem,
    dump_matrix,
    earley_ambiguous_final,
    earley_parse,
    earley_recognized,
)
from tabparse.engine import Item, run_tabular
from tabparse.forest import build_forest_items, count_trees
from tabparse.grammar import GrammarError, augment_start, parse_grammar
from tabparse.oracle import recognizes
from tabparse.strategies import DottedRule, compile_topdown

EXPR_MATRIX = """\
T[0,0]: E -> . E * E, E -> . E + E, E -> . a, S -> . E
T[0,1]: E -> E . * E, E -> E . + E, E -> a ., S -> E .
T[0,2]: E -> E + . E
T[0,3]: E -> E + E ., E -> E . * E, E -> E . + E, S -> E .
T[0,4]: E -> E * . E
T[0,5]: E -> E * E ., E -> E + E ., E -> E . * E, E -> E . + E, S -> E .
T[2,2]: E -> . E * E, E -> . E + E, E -> . a
T[2,3]: E -> E . * E, E -> E . + E, E -> a .
T[2,4]: E -> E * . E
T[2,5]: E -> E * E ., E -> E . * E, E -> E . + E
T[4,4]: E -> . E * E, E -> . E + E, E -> . a
T[4,5]: E -> E . * E, E -> E . + E, E -> a ."""


def test_expr_matrix_frozen(expr_grammar):
    c = earley_parse(expr_grammar, "a + a * a".split())
    assert dump_matrix(c) == EXPR_MATRIX
    assert earley_recognized(c)
    assert c.fired == 38


def test_empty_cells_stay_empty(expr_grammar):
    c = earley_parse(expr_grammar, "a + a * a".split())
    filled = {(it.origin, it.end) for it in map(EarleyItem._make, c.items)}
    expected = {
        (0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (0, 5),
        (2, 2), (2, 3), (2, 4), (2, 5), (4, 4), (4, 5),
    }
    assert filled == expected


def test_ambiguity_count(expr_grammar):
    c = earley_parse(expr_grammar, "a + a * a".split())
    assert earley_ambiguous_final(c) == 2
    final = c.final_item()
    completed = {
        ants[1] for tag, ants, _ in c.justifications[final] if tag == "complete"
    }
    g = expr_grammar
    assert completed == {
        EarleyItem(0, DottedRule(g.rules[1], 3), 5),
        EarleyItem(0, DottedRule(g.rules[2], 3), 5),
    }
    # One final completion, two trees: both end in E -> E + E . over the
    # whole input, so a count of 1 does not prove the input unambiguous.
    c = earley_parse(expr_grammar, "a + a + a".split())
    assert earley_ambiguous_final(c) == 1
    assert count_trees(build_forest_items(c)).value == 2


def test_unambiguous_final(expr_grammar):
    c = earley_parse(expr_grammar, ["a"])
    assert earley_ambiguous_final(c) == 1
    assert earley_ambiguous_final(earley_parse(expr_grammar, ["a", "+"])) == 0


def test_agenda_order_irrelevant(expr_grammar):
    a = earley_parse(expr_grammar, "a + a * a".split(), agenda_order="lifo")
    b = earley_parse(expr_grammar, "a + a * a".split(), agenda_order="fifo")
    assert a.items == b.items
    just_a = {it: set(js) for it, js in a.justifications.items()}
    just_b = {it: set(js) for it, js in b.justifications.items()}
    assert just_a == just_b
    with pytest.raises(ValueError, match="agenda order"):
        earley_parse(expr_grammar, [], agenda_order="dfs")


@pytest.mark.parametrize(
    "start", [lambda g: earley_parse(g, ["a"]), compile_topdown], ids=["earley", "topdown"]
)
def test_needs_single_start_rule(start):
    message = "^needs a single S rule; augment the grammar first$"
    for text in ("S -> a\nS -> b", "S -> S\nS -> a"):
        g = parse_grammar(text)
        with pytest.raises(GrammarError, match=message):
            start(g)
        start(augment_start(g))
        assert earley_recognized(earley_parse(augment_start(g), ["a"]))


def test_epsilon_and_cycles():
    g = augment_start(parse_grammar("S -> S S\nS ->\nS -> a"))
    for text, want in [("", True), ("a", True), ("aa", True), ("b", False)]:
        assert earley_recognized(earley_parse(g, list(text))) == want


def test_matches_oracle_on_small_sweep():
    g = augment_start(parse_grammar("S -> A B\nA -> a A\nA ->\nB -> b\nB -> S b"))
    base = parse_grammar("S -> A B\nA -> a A\nA ->\nB -> b\nB -> S b")
    for n in range(5):
        for w in map("".join, itertools.product("ab", repeat=n)):
            assert earley_recognized(earley_parse(g, list(w))) == recognizes(
                base, list(w)
            ), w


def test_projection_equals_goal_driven_table(expr_grammar):
    # the dotted-rule machine's table carries the same information: an arc
    # ending in a dotted rule at position i whose own start is j
    p = compile_topdown(expr_grammar)
    for text in ["a + a * a", "a", "a +", ""]:
        toks = text.split()
        c = run_tabular(p, toks)
        native = earley_parse(expr_grammar, toks)
        proj = {
            (it.lower_pos, str(it.upper), it.upper_pos)
            for it in map(Item._make, c.items)
            if isinstance(it.upper, DottedRule)
        }
        want = {
            (it.origin, str(it.dotted), it.end)
            for it in map(EarleyItem._make, native.items)
        }
        assert proj == want, text


def test_item_str(expr_grammar):
    it = EarleyItem(0, DottedRule(expr_grammar.rules[0], 1), 3)
    assert str(it) == "( 0 , S -> E . , 3 )"



def test_predicted_rules_built_once_per_grammar(expr_grammar):
    # Grammar setup lists no prediction; the first parse lists those it
    # makes and keeps them on the grammar for the next parse.
    g = augment_start(expr_grammar)
    assert g._predicted_rules is None
    first = earley_parse(g, "a + a".split())
    table = g._predicted_rules
    assert dict(table) == {"E": tuple(DottedRule(r, 0) for r in g.rules_for("E"))}
    again = earley_parse(g, "a * a".split())
    assert g._predicted_rules is table
    assert earley_recognized(first) and earley_recognized(again)
