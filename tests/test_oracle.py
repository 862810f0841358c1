import itertools

import pytest

from tabparse.grammar import parse_grammar
from tabparse.oracle import derivable, enumerate_trees, recognizes
from tabparse.trees import render_tree, tree_yield, validate_tree


def test_derivable_spans(expr_grammar):
    toks = "a + a".split()
    spans = derivable(expr_grammar, toks)
    assert ("a", 0, 1) in spans
    assert ("E", 0, 1) in spans
    assert ("E", 0, 3) in spans
    assert ("S", 0, 3) in spans
    assert ("E", 0, 2) not in spans
    assert ("S", 1, 3) not in spans


def test_recognizes(expr_grammar):
    assert recognizes(expr_grammar, "a + a * a".split())
    assert not recognizes(expr_grammar, "a +".split())
    assert not recognizes(expr_grammar, [])


def test_epsilon_and_cycles():
    g = parse_grammar("S -> S\nS ->")
    assert recognizes(g, [])
    assert not recognizes(g, ["a"])
    g2 = parse_grammar("S -> A B\nA ->\nB -> b")
    assert recognizes(g2, ["b"])


def test_unknown_token_rejected(expr_grammar):
    assert not recognizes(expr_grammar, ["z"])


def test_enumerate_trees_matches_recognition():
    g = parse_grammar("S -> A B\nS ->\nA -> a A\nA -> a\nB -> b\nB -> S b")
    for n in range(0, 5):
        for toks in itertools.product("ab", repeat=n):
            trees = enumerate_trees(g, toks, 50)
            assert bool(trees) == recognizes(g, toks)
            for t in trees:
                assert validate_tree(g, t)
                assert tree_yield(t) == toks


def test_enumerate_trees_ambiguous(cnf_grammar):
    trees = enumerate_trees(cnf_grammar, tuple("aabb"), 50)
    assert len(trees) == 5
    assert len({render_tree(t) for t in trees}) == 5


def test_enumerate_trees_cap():
    g = parse_grammar("S -> S S\nS -> a")
    toks = ("a",) * 6
    some = enumerate_trees(g, toks, 3)
    assert len(some) == 3
    all_ = enumerate_trees(g, toks, 1000)
    assert len(all_) == 42  # Catalan number C(5)


def test_enumerate_trees_depth_budget_covers_finite_sets():
    # Without a deep enough default budget the unit-rule chain would be cut.
    g = parse_grammar("S -> A\nA -> B\nB -> C\nC -> a")
    trees = enumerate_trees(g, ["a"], 10)
    assert len(trees) == 1
    assert render_tree(trees[0]) == "(S (A (B (C a))))"


def test_enumerate_trees_rejects_bad_budgets(expr_grammar):
    with pytest.raises(ValueError):
        enumerate_trees(expr_grammar, ["a"], 0)
    with pytest.raises(ValueError):
        enumerate_trees(expr_grammar, ["a"], 5, max_depth=0)


def test_token_spelled_like_a_nonterminal_derives_nothing():
    # The token "A" is no terminal: only a rule can make A derive a span.
    g = parse_grammar("S -> A b\nA -> a")
    assert not recognizes(g, ("S",))
    assert not recognizes(g, ("A", "b"))
    assert ("A", 0, 1) not in derivable(g, ("A", "b"))
    assert enumerate_trees(g, ("A", "b"), 5) == []
    assert recognizes(g, ("a", "b"))
