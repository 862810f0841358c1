import pytest
from hypothesis import given
from hypothesis import strategies as st

from tabparse.grammar import parse_grammar
from tabparse.trees import (
    leaf,
    node,
    render_tree,
    tree_depth,
    tree_yield,
    validate_tree,
)

T = node("S", (node("A", (leaf("a"),)), node("B", (leaf("b"), leaf("c")))))


def test_render():
    assert render_tree(T) == "(S (A a) (B b c))"
    assert render_tree(leaf("x")) == "x"
    assert render_tree(node("A", ())) == "(A)"


def test_yield():
    assert tree_yield(T) == ("a", "b", "c")
    assert tree_yield(node("A", ())) == ()


def test_depth():
    assert tree_depth(leaf("x")) == 0
    assert tree_depth(T) == 2
    assert tree_depth(node("A", ())) == 1


def test_validate():
    g = parse_grammar("S -> A B\nA -> a\nB -> b c")
    good = node("S", (node("A", (leaf("a"),)), node("B", (leaf("b"), leaf("c")))))
    assert validate_tree(g, good)
    # wrong rule shape
    bad = node("S", (node("A", (leaf("a"),)),))
    assert not validate_tree(g, bad)
    # terminal used as an inner node
    assert not validate_tree(g, node("a", ()))


def test_validate_epsilon():
    g = parse_grammar("S -> A\nA ->")
    assert validate_tree(g, node("S", (node("A", ()),)))
    assert not validate_tree(g, node("S", ()))


def test_deep_tree():
    # 2,000 levels, far past the interpreter's recursion limit
    g = parse_grammar("L -> L a\nL -> a")
    t = node("L", (leaf("a"),))
    for _ in range(1999):
        t = node("L", (t, leaf("a")))
    assert render_tree(t) == "(L " * 2000 + "a)" + " a)" * 1999
    assert validate_tree(g, t)
    assert tree_yield(t) == ("a",) * 2000
    assert tree_depth(t) == 2000
    assert not validate_tree(g, node("L", (t, leaf("b"))))


def _reference_render(t):
    if t.is_leaf:
        return t.label
    return "(" + " ".join([t.label] + [_reference_render(c) for c in t.children]) + ")"


def _reference_yield(t):
    if t.is_leaf:
        return (t.label,)
    return tuple(x for c in t.children for x in _reference_yield(c))


def _reference_depth(t):
    if t.is_leaf:
        return 0
    return 1 + max((_reference_depth(c) for c in t.children), default=0)


def _reference_validate(g, t):
    if t.is_leaf:
        return t.label in g.terminals
    return (
        t.label in g.nonterminals
        and (t.label, tuple(c.label for c in t.children)) in g.rule_index
        and all(_reference_validate(g, c) for c in t.children)
    )


_TREES = st.recursive(
    st.sampled_from("abS").map(leaf),
    lambda kids: st.builds(node, st.sampled_from("SAa"), st.lists(kids, max_size=3)),
    max_leaves=12,
)


@given(_TREES)
def test_iterative_walks_match_recursion(t):
    g = parse_grammar("S -> A a\nS -> S S\nA -> a\nA -> b\nA ->")
    assert render_tree(t) == _reference_render(t)
    assert tree_yield(t) == _reference_yield(t)
    assert tree_depth(t) == _reference_depth(t)
    assert validate_tree(g, t) == _reference_validate(g, t)
