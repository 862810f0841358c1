import dataclasses
import itertools
import math
import os
import signal
import subprocess
import sys
import time
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from conftest import RANDOM_GRAMMARS
from tabparse import forest
from tabparse.algorithms import ALGORITHMS
from tabparse.cky import cky_parse
from tabparse.earley import EarleyItem, earley_parse
from tabparse.engine import run_tabular
from tabparse.forest import (
    ForestError,
    ForestRule,
    ParseForest,
    SpanNode,
    TreeCount,
    build_forest_cky,
    build_forest_items,
    count_trees,
    dump_forest,
    extract_trees,
    reduce_forest,
    _choose_trees,
)
from tabparse.grammar import (
    Grammar,
    Rule,
    augment_start,
    has_epsilon_rules,
    is_cnf,
    parse_grammar,
)
from tabparse.lr import binarize_reductions, compile_lr
from tabparse.oracle import enumerate_trees
from tabparse.pda import Marker, Pda, Transition, simulate
from tabparse.strategies import DottedRule, compile_bottomup, compile_topdown
from tabparse.trees import render_tree, tree_depth, tree_yield, validate_tree

# Any grammar rule: the search reads only whether a step names one.
_RULE = Rule("X", ())

CNF_FOREST = """\
( 0 , A , 1 ) -> ( 0 , a , 1 )
( 0 , A , 2 ) -> ( 0 , A , 1 ) ( 1 , A , 2 )
( 0 , A , 3 ) -> ( 0 , A , 1 ) ( 1 , A , 3 )
( 0 , A , 3 ) -> ( 0 , A , 2 ) ( 2 , S , 3 )
( 0 , A , 4 ) -> ( 0 , A , 1 ) ( 1 , A , 4 )
( 0 , A , 4 ) -> ( 0 , A , 2 ) ( 2 , S , 4 )
( 0 , A , 4 ) -> ( 0 , A , 3 ) ( 3 , S , 4 )
( 0 , S , 2 ) -> ( 0 , A , 1 ) ( 1 , A , 2 )
( 0 , S , 3 ) -> ( 0 , A , 1 ) ( 1 , A , 3 )
( 0 , S , 3 ) -> ( 0 , S , 2 ) ( 2 , S , 3 )
( 0 , S , 4 ) -> ( 0 , A , 1 ) ( 1 , A , 4 )
( 0 , S , 4 ) -> ( 0 , S , 2 ) ( 2 , S , 4 )
( 0 , S , 4 ) -> ( 0 , S , 3 ) ( 3 , S , 4 )
( 0 , a , 1 ) -> a
( 1 , A , 2 ) -> ( 1 , a , 2 )
( 1 , A , 3 ) -> ( 1 , A , 2 ) ( 2 , S , 3 )
( 1 , A , 4 ) -> ( 1 , A , 2 ) ( 2 , S , 4 )
( 1 , A , 4 ) -> ( 1 , A , 3 ) ( 3 , S , 4 )
( 1 , a , 2 ) -> a
( 2 , S , 3 ) -> ( 2 , b , 3 )
( 2 , S , 4 ) -> ( 2 , S , 3 ) ( 3 , S , 4 )
( 2 , b , 3 ) -> b
( 3 , S , 4 ) -> ( 3 , b , 4 )
( 3 , b , 4 ) -> b"""

ELIMINATED = {
    "( 0 , A , 2 ) -> ( 0 , A , 1 ) ( 1 , A , 2 )",
    "( 0 , A , 3 ) -> ( 0 , A , 1 ) ( 1 , A , 3 )",
    "( 0 , A , 3 ) -> ( 0 , A , 2 ) ( 2 , S , 3 )",
    "( 0 , A , 4 ) -> ( 0 , A , 1 ) ( 1 , A , 4 )",
    "( 0 , A , 4 ) -> ( 0 , A , 2 ) ( 2 , S , 4 )",
    "( 0 , A , 4 ) -> ( 0 , A , 3 ) ( 3 , S , 4 )",
}

FIVE_TREES = {
    "(S (A a) (A (A (A a) (S b)) (S b)))",
    "(S (A a) (A (A a) (S (S b) (S b))))",
    "(S (S (A a) (A (A a) (S b))) (S b))",
    "(S (S (A a) (A a)) (S (S b) (S b)))",
    "(S (S (S (A a) (A a)) (S b)) (S b))",
}


@pytest.fixture
def cnf_forest(cnf_grammar):
    return build_forest_cky(cky_parse(cnf_grammar, "aabb"))


def test_span_forest_frozen(cnf_forest):
    assert len(cnf_forest.rules) == 24
    assert set(dump_forest(cnf_forest).splitlines()) == set(CNF_FOREST.splitlines())
    assert dump_forest(cnf_forest) == CNF_FOREST
    assert cnf_forest.start == SpanNode(0, "S", 4)


def test_dump_prints_hand_built_tuples_by_arity():
    # A plain tuple prints through the origin's view only with its arity.
    span = ParseForest((ForestRule((0, "S", 1), ("a",)),), (0, "S", 1), "cky", None)
    assert dump_forest(span) == "( 0 , S , 1 ) -> a"
    rules = (ForestRule((0, 1), ((1, 2), "a")), ForestRule((1, 2), ()))
    pairs = ParseForest(rules, (0, 1), "pda", None)
    assert dump_forest(pairs) == "(0, 1) -> (1, 2) a\n(1, 2) -> eps"


def test_reduce_drops_unreachable_heads(cnf_forest):
    reduced = reduce_forest(cnf_forest)
    assert len(reduced.rules) == 18
    gone = set(cnf_forest.rules) - set(reduced.rules)
    assert {f"{r.head} -> " + " ".join(str(b) for b in r.body) for r in gone} == ELIMINATED
    # reduction is idempotent
    assert set(reduce_forest(reduced).rules) == set(reduced.rules)


def test_dump_marks_eliminated(cnf_forest):
    reduced = reduce_forest(cnf_forest)
    gone = set(cnf_forest.rules) - set(reduced.rules)
    text = dump_forest(cnf_forest, eliminated=gone)
    marked = [l for l in text.splitlines() if l.endswith(" #eliminated")]
    assert {l.removesuffix(" #eliminated") for l in marked} == ELIMINATED


def test_count_matches_enumeration(cnf_grammar, cnf_forest):
    reduced = reduce_forest(cnf_forest)
    counted = count_trees(reduced)
    assert not counted.infinite
    assert counted.value == 5
    assert counted.value == len(enumerate_trees(cnf_grammar, "aabb", 100))


def test_extracted_trees_validate(cnf_grammar, cnf_forest):
    reduced = reduce_forest(cnf_forest)
    trees = extract_trees(reduced, 10)
    assert {render_tree(t) for t in trees} == FIVE_TREES
    for t in trees:
        assert validate_tree(cnf_grammar, t)
        assert tree_yield(t) == ("a", "a", "b", "b")


def test_extract_prefix_and_budget(cnf_forest):
    reduced = reduce_forest(cnf_forest)
    assert len(extract_trees(reduced, 3)) == 3
    with pytest.raises(ValueError, match="budget"):
        extract_trees(reduced, 0)
    with pytest.raises(ValueError, match="budget"):
        extract_trees(reduced, -2)


def test_count_unreduced_counts_complete_trees_only(cnf_forest):
    # the unreduced forest is acyclic here, and dead rules contribute zero
    assert count_trees(cnf_forest).value == 5


EXPR_TREES = {"(S (E (E a) + (E (E a) * (E a))))", "(S (E (E (E a) + (E a)) * (E a)))"}


def _assert_holds(reduced, g, expected):
    """The reduced forest holds the expected trees and no other, each one
    a tree of the grammar."""
    assert count_trees(reduced).value == len(expected)
    trees = extract_trees(reduced, len(expected) + 3)
    assert {render_tree(t) for t in trees} == expected
    for t in trees:
        assert validate_tree(g, t)


def test_earley_item_forest(expr_grammar):
    reduced = _item_forest("earley", expr_grammar, "a + a * a".split())
    _assert_holds(reduced, expr_grammar, EXPR_TREES)


def test_topdown_item_forest(expr_grammar):
    reduced = _item_forest("topdown", expr_grammar, "a + a * a".split())
    _assert_holds(reduced, expr_grammar, EXPR_TREES)


def test_lr_item_forest(sps_grammar):
    # On the grammar as it is: the shift-reduce compiler needs no fresh
    # start rule.
    c = run_tabular(compile_lr(sps_grammar), "a + a + a".split())
    _assert_holds(
        reduce_forest(build_forest_items(c)),
        sps_grammar,
        {"(S (S (S a) + (S a)) + (S a))", "(S (S a) + (S (S a) + (S a)))"},
    )


def test_bottomup_item_forest(cnf_grammar):
    _assert_holds(_item_forest("bottomup", cnf_grammar, "aabb"), cnf_grammar, FIVE_TREES)


def test_cyclic_forest_infinite():
    g = augment_start(parse_grammar("S -> S\nS -> a"))
    c = run_tabular(compile_topdown(g), ["a"])
    reduced = reduce_forest(build_forest_items(c))
    counted = count_trees(reduced)
    assert counted.infinite
    assert counted.value is None
    trees = extract_trees(reduced, 3)
    assert [render_tree(t) for t in trees] == ["(S a)", "(S (S a))", "(S (S (S a)))"]
    base = parse_grammar("S -> S\nS -> a")
    for t in trees:
        assert validate_tree(base, t)


def _chart(algorithm, g, tokens):
    """The chart of one algorithm of the table on a grammar."""
    a = ALGORITHMS[algorithm]
    return a.saturate(a.prepare(g), tokens)


def _item_forest(algorithm, g, tokens):
    """The reduced forest of one item-chart algorithm on a grammar."""
    return reduce_forest(build_forest_items(_chart(algorithm, g, tokens)))


@pytest.mark.parametrize("text", ["a b b b", "b b a b"])
def test_cyclic_binarized_trees_match_glr(text):
    # Aux cells name no rule, so they add no depth: the binarized machine's
    # rounds meet the lazy machine's trees at the same depths.
    g = parse_grammar(
        "A -> b a B\nA -> A\nA -> a A\nA -> b b b\nA -> b\nA -> A B A\nB -> b A B\nB -> A"
    )
    lazy, binarized = (
        extract_trees(_item_forest(a, g, text.split()), 3) for a in ("glr", "glr-binarized")
    )
    assert binarized == lazy and len(lazy) == 3
    depths = [tree_depth(t) for t in lazy]
    assert depths == sorted(depths)


@pytest.mark.parametrize("algorithm", ["earley", "topdown"])
def test_cyclic_dotted_item_trees_come_shallowest_first(algorithm):
    # Partial dotted items and pushes name no rule: counted as forest depth
    # they put a depth-3 tree before the depth-2 one.
    g = parse_grammar("S -> B\nS -> B B B\nS -> B a\nS ->\nB -> a B\nB -> a\nB -> S a\nB -> B")
    trees = extract_trees(_item_forest(algorithm, g, "a a a".split()), 3)
    assert [tree_depth(t) for t in trees] == [2, 3, 3]
    assert render_tree(trees[0]) == "(S (B a) (B a) (B a))"
    g = parse_grammar("S ->\nS -> b b\nS -> S S\nS -> S\nS -> S a b\nS -> S S S")
    trees = extract_trees(_item_forest(algorithm, g, "a b a b".split()), 3)
    assert [tree_depth(t) for t in trees] == [3, 3, 3]


def test_count_reads_the_reduced_walk():
    # 1 -> 1 derives no token string: a walk over the unreduced rules meets
    # its cycle, but the one tree is 0 -> a.
    f = ParseForest(
        (ForestRule(0, ("a",), _RULE), ForestRule(0, (1,), _RULE), ForestRule(1, (1,), _RULE)),
        0,
        "cky",
        None,
    )
    assert count_trees(f) == count_trees(reduce_forest(f)) == TreeCount(1, False)
    assert [r for t in _choose_trees(f, 3) for r in t] == [(0, (), ("a",), _RULE)]


def _within_seconds(seconds, call):
    """call(), stopped with TimeoutError if it runs longer than `seconds`."""

    def stop(*_):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return call()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def test_cycle_of_rule_less_steps_raises():
    # 0 -> 1 -> 0 names no rule, so it pumps trees of one depth forever.
    f = ParseForest(
        (ForestRule(0, ("a",), _RULE), ForestRule(0, (1,)), ForestRule(1, (0,))), 0, "cky", None
    )
    reduced = reduce_forest(f)
    assert count_trees(reduced).infinite
    with pytest.raises(ForestError, match="editor"):
        _within_seconds(5, lambda: extract_trees(reduced, 3))
    # A hand-built machine whose x -> x swap loops on one cell.
    p = Pda(
        frozenset("a"),
        frozenset("sxf"),
        "s",
        "f",
        (
            Transition(("s",), ("a",), ("s", "x")),
            Transition(("x",), (), ("x",)),
            Transition(("s", "x"), (), ("f",)),
        ),
    )
    reduced = reduce_forest(build_forest_items(run_tabular(p, ["a"])))
    assert count_trees(reduced).infinite
    with pytest.raises(ForestError, match="editor"):
        _within_seconds(5, lambda: extract_trees(reduced, 3))


def test_no_editor_for_plain_machines(branching_pda, sps_grammar):
    c = run_tabular(branching_pda, "abcd")
    f = reduce_forest(build_forest_items(c))
    assert count_trees(f).value == 2
    with pytest.raises(ForestError, match="editor"):
        extract_trees(f, 2)
    # A compiled machine rebuilt by hand without its `completes` compares
    # equal to it, but none of its steps names a rule.
    p = compile_lr(sps_grammar)
    q = dataclasses.replace(p, completes={})
    assert p == q
    f = reduce_forest(build_forest_items(run_tabular(q, ["a"])))
    assert count_trees(f).value == 1
    with pytest.raises(ForestError, match="editor"):
        extract_trees(f, 1)


@pytest.mark.parametrize(
    "fixture,text", [("sps_grammar", "a + a + a"), ("expr_grammar", "a + a * a")]
)
def test_binarized_trees_match_glr(request, fixture, text):
    # The binarized machine's finishing steps name the rule its aux cells
    # spell out, so the one fold gives the lazy machine's trees.
    g = request.getfixturevalue(fixture)
    lazy = compile_lr(g)
    forests = [
        reduce_forest(build_forest_items(run_tabular(p, text.split())))
        for p in (lazy, binarize_reductions(lazy))
    ]
    assert [f.origin for f in forests] == ["lr", "lr-binarized"]
    assert count_trees(forests[0]) == count_trees(forests[1]) == forest.TreeCount(2, False)
    lazy_trees, binarized_trees = (extract_trees(f, 5) for f in forests)
    assert len(binarized_trees) == 2 and set(binarized_trees) == set(lazy_trees)
    for t in binarized_trees:
        assert validate_tree(g, t)


def test_binarizing_twice_keeps_trees(sps_grammar):
    # A binarized machine has no lazy reductions left, so a second
    # binarization returns it as it is, with the rules its steps complete.
    once = binarize_reductions(compile_lr(sps_grammar))
    assert binarize_reductions(once) is once
    forests = [
        reduce_forest(build_forest_items(run_tabular(p, "a + a".split())))
        for p in (once, binarize_reductions(once))
    ]
    assert count_trees(forests[0]) == count_trees(forests[1]) == forest.TreeCount(1, False)
    assert extract_trees(forests[0], 5) == extract_trees(forests[1], 5)


@pytest.mark.parametrize("single_push", [True, False])
def test_multi_pop_forest_keeps_first_cell(single_push):
    # x y z -> w pops the arc under x too: a single-push F7 consumes what
    # its first cell derives, here `a` in two ways (s -a-> s x, and
    # s -a-> s v then v -> x), like the two-push form s x y z -> s w.
    s, x, v, y, z, w, f = (Marker(f"f7-{name}") for name in "sxvyzwf")
    reduce_step = (
        Transition((x, y, z), (), (w,))
        if single_push
        else Transition((s, x, y, z), (), (s, w))
    )
    p = Pda(
        frozenset("abc"),
        frozenset({s, x, v, y, z, w, f}),
        s,
        f,
        (
            Transition((s,), ("a",), (s, x)),
            Transition((s,), ("a",), (s, v)),
            Transition((v,), (), (x,)),
            Transition((x,), ("b",), (x, y)),
            Transition((y,), ("c",), (y, z)),
            reduce_step,
            Transition((s, w), (), (f,)),
        ),
    )
    tokens = "a b c".split()
    reduced = reduce_forest(build_forest_items(run_tabular(p, tokens)))
    assert count_trees(reduced).value == 2 == len(simulate(p, tokens).runs)
    assert (s, 0, x, 1) in {r.head for r in reduced.rules}


def _assert_empty(f):
    # The start node has no chart entry, so it has no rules to walk.
    reduced = reduce_forest(f)
    assert reduced.rules == ()
    assert _walk_of(reduced) == ([], [f.start], False)
    assert count_trees(reduced).value == 0
    assert extract_trees(reduced, 5) == []


def test_rejected_input_gives_empty_forest(cnf_grammar):
    _assert_empty(build_forest_cky(cky_parse(cnf_grammar, "ab")))


@pytest.mark.parametrize("algorithm", ["earley", "topdown", "bottomup", "glr"])
def test_rejected_input_gives_empty_item_forest(algorithm, expr_grammar, cnf_grammar):
    if algorithm == "bottomup":
        c = _chart(algorithm, cnf_grammar, "ab")
    else:
        c = _chart(algorithm, expr_grammar, "a + * a".split())
    _assert_empty(build_forest_items(c))


class _CountingJustifications(dict):
    """A chart's justifications that count those a forest builder reads."""

    read = 0

    def get(self, key, default=None):
        justs = super().get(key, default)
        self.read += len(justs or ())
        return justs


@pytest.mark.parametrize(
    "algorithm,made,total", [("earley", 151, 1478), ("topdown", 151, 1478), ("glr", 102, 1376)]
)
def test_reduce_makes_only_rules_it_keeps(algorithm, made, total):
    # Under right recursion most items are partial lists the whole input
    # never uses; reduction reads only the justifications of the heads the
    # start node reaches, and keeps those very lists as their entries.
    c = _chart(algorithm, parse_grammar("L -> a L\nL -> a"), ("a",) * 50)
    steps = reduce_forest(build_forest_items(c))._graph[3]
    eager = {
        ForestRule(head, body, rule)
        for h, justs in c.justifications.items()
        for head, _, body, rule in steps(h, justs)
    }
    # Builders read a head's justifications through `get`, once per call.
    c.justifications = counted = _CountingJustifications(c.justifications)
    full = build_forest_items(c)
    reduced = reduce_forest(full)
    assert counted.read == made
    assert made == sum(len(c.justifications[h]) for h in reduced._graph[1])
    by_head = reduced._graph[0]
    assert all(by_head[h] is c.justifications[h] for h in reduced._graph[1])
    assert sum(map(len, c.justifications.values())) == total > 5 * made
    assert len(reduced.rules) == made  # one rule per justification here
    # Reading the full rules makes every rule, as an eager build did.
    assert set(full.rules) == eager and len(full.rules) == len(eager)
    assert counted.read == made + total


def test_forest_from_wrong_object():
    with pytest.raises(ForestError, match="cannot build"):
        build_forest_items({"not": "a chart"})


def test_forest_rule_dedup():
    # same head and body twice under the same rule collapses to one
    r1 = ForestRule("h", ("x",), None)
    r2 = ForestRule("h", ("x",), None)
    assert r1 == r2 and len({r1, r2}) == 1


T = Transition
# Hand machines with two transitions that make equal forest steps on one
# item: the second is the first less its kept lower symbol.  Each makes that
# step twice, once by each transition, so it accepts its input along two
# runs that pass the same configurations.
_REPEAT_MACHINES = {
    "F1-beside-F6": ("a", [T(("s",), ("a",), ("s", "x")), T((), ("a",), ("x",))], "x"),
    "F2-full-beside-bare": (
        "ab",
        [
            T(("s",), ("a",), ("s", "x")),
            T(("s", "x"), ("b",), ("s", "y")),
            T(("x",), ("b",), ("y",)),
        ],
        "y",
    ),
    "F3-beside-two-push-F7": (
        "ab",
        [
            T(("s",), ("a",), ("s", "x")),
            T(("x",), ("b",), ("x", "y")),
            T(("x", "y"), (), ("z",)),
            T(("s", "x", "y"), (), ("s", "z")),
        ],
        "z",
    ),
}


def _repeat_chart(name):
    """The chart of one of `_REPEAT_MACHINES`, given a final pop, on its text."""
    text, transitions, top = _REPEAT_MACHINES[name]
    transitions = (*transitions, T(("s", top), (), ("f",)))
    symbols = {sym for t in transitions for sym in t.pop + t.push}
    p = Pda(frozenset(text), frozenset(symbols), "s", "f", transitions)
    return run_tabular(p, list(text))


@pytest.mark.parametrize("name", sorted(_REPEAT_MACHINES))
def test_repeated_steps_are_dropped(name):
    # None is: each justification is a step, and its `rules` view one rule,
    # so the two equal steps count two trees, one per run of the simulator.
    c = _repeat_chart(name)
    full = build_forest_items(c)
    assert len(full.rules) == sum(map(len, c.justifications.values()))
    assert len(set(full.rules)) == len(full.rules) - 1
    reduced = reduce_forest(full)
    rebuilt = ParseForest(reduced.rules, full.start, full.origin, full.grammar)
    runs = len(simulate(c.pda, c.tokens).runs)
    assert count_trees(reduced) == count_trees(rebuilt) == TreeCount(runs, False)
    assert runs == 2


def test_one_step_per_justification_on_demo_grammars():
    # Every chart forest has one rule per justification, and Earley's
    # initial item, the start symbol's prediction at 0, is not predicted
    # again where the start symbol occurs in a rule body.
    here = Path(__file__).resolve().parents[1] / "demos/grammars"
    for name, text in [("expr", "a + a * a"), ("sps", "a + a + a"), ("cnf", "a a b b")]:
        g = parse_grammar((here / f"{name}.cfg").read_text())
        aug, tokens = augment_start(g), text.split()
        lazy = compile_lr(aug)
        machines = [compile_topdown(aug), lazy, binarize_reductions(lazy)]
        charts = [earley_parse(aug, tokens)]
        if is_cnf(g):
            machines.append(compile_bottomup(g))
            span = cky_parse(g, tokens)
            assert len(build_forest_cky(span).rules) == span.fired + len(tokens)
        charts += [run_tabular(p, tokens) for p in machines]
        for c in charts:
            assert len(build_forest_items(c).rules) == sum(map(len, c.justifications.values()))
    # Unaugmented grammars whose start symbol occurs in a rule body.
    # Predicting it again at 0 would give the axiom a second justification,
    # one more fired, and every tree a second copy;
    # `test_chart_forests_hold_the_oracle_trees` checks their trees.
    unaugmented = [("S -> A\nA -> S b\nA -> a", "abb", 12), ("S -> A\nA -> S\nA -> a", "a", 7)]
    for text, tokens, fired in unaugmented:
        g = parse_grammar(text)
        c = earley_parse(g, list(tokens))
        initial = (0, DottedRule(g.rules[0], 0), 0)
        assert [tag for tag, _, _ in c.justifications[initial]] == ["init"]
        assert c.fired == fired
        full = build_forest_items(c)
        assert [r for r in full.rules if r.head == initial] == [(initial, (), None)]
        assert len(full.rules) == sum(map(len, c.justifications.values()))


def _snapshot(c):
    """A copy of a chart's justification lists; their tuples are immutable."""
    return {head: list(justs) for head, justs in c.justifications.items()}


@pytest.mark.parametrize(
    "name,text,count",
    [("expr", "a + a * a", 2), ("sps", "a + a + a", 2), ("cnf", "a a b b", 5)]
    + [pytest.param(name, None, 2, id=name) for name in sorted(_REPEAT_MACHINES)],
)
def test_reduce_and_count_copy_nothing(name, text, count):
    # The walk keeps each reached item's own justification list as its
    # entries, and counting and extraction read them as they are: the
    # forest aliases the chart's lists and never changes them.  So does
    # every item chart, the hand machines' whose steps repeat included;
    # their steps name no grammar rule, so their trees are not edited.
    if text is None:
        charts = [_repeat_chart(name)]
    else:
        here = Path(__file__).resolve().parents[1] / "demos/grammars"
        g = parse_grammar((here / f"{name}.cfg").read_text())
        aug, tokens = augment_start(g), text.split()
        lazy = compile_lr(aug)
        machines = [compile_topdown(aug), lazy, binarize_reductions(lazy)]
        if is_cnf(g):
            machines.append(compile_bottomup(g))
        charts = [earley_parse(aug, tokens), *(run_tabular(p, tokens) for p in machines)]
    for c in charts:
        before = _snapshot(c)
        reduced = reduce_forest(build_forest_items(c))
        by_head, order, _, _ = reduced._graph
        assert order and all(by_head[h] is c.justifications[h] for h in order)
        assert count_trees(reduced) == TreeCount(count, False)
        extract = _choose_trees if text is None else extract_trees
        assert len(extract(reduced, 3)) == min(count, 3)
        assert c.justifications == before


def _cnf_inside(g, tokens):
    """The number of trees of a CNF grammar over tokens, by the inside
    recursion over spans."""
    n = len(tokens)
    inside: dict = {}
    for i, t in enumerate(tokens):
        for r in g.rules:
            if r.rhs == (t,):
                inside[i, r.lhs, i + 1] = inside.get((i, r.lhs, i + 1), 0) + 1
    for width in range(2, n + 1):
        for i in range(n - width + 1):
            k = i + width
            for j in range(i + 1, k):
                for r in g.rules:
                    if len(r.rhs) == 2:
                        ways = inside.get((i, r.rhs[0], j), 0) * inside.get((j, r.rhs[1], k), 0)
                        inside[i, r.lhs, k] = inside.get((i, r.lhs, k), 0) + ways
    return inside.get((0, g.start, n), 0)


def test_benchmark_ladders_count_big_integers(expr_grammar, cnf_grammar):
    # The ambiguous benchmark's shapes, counted over the charts' own lists:
    # a 17-operand expression has Catalan(16) trees, whichever operators
    # join the operands, and one 16-token CNF string counts alike under
    # every algorithm that takes it.
    tokens = " + ".join(" * ".join("a" * 2) for _ in range(8)).split() + ["*", "a"]
    assert tokens.count("a") == 17
    catalan = math.comb(32, 16) // 17
    assert catalan == 35_357_670
    for algorithm in ("earley", "topdown", "glr", "glr-binarized"):
        counted = count_trees(_item_forest(algorithm, expr_grammar, tokens))
        assert counted == TreeCount(catalan, False), algorithm
    tokens = "a b b a a b b a a b a b b a a b".split()
    assert _cnf_inside(cnf_grammar, tokens) == 1_242_319
    for algorithm in ("cky", "bottomup", "earley", "topdown"):
        a = ALGORITHMS[algorithm]
        f = a.build_forest(_chart(algorithm, cnf_grammar, tokens))
        assert count_trees(reduce_forest(f)) == TreeCount(1_242_319, False), algorithm


def _reference_reduce(f):
    """The sweep-until-fixpoint reduction: re-test every rule until no new
    head becomes productive, then keep what the start node reaches."""
    productive = set()
    changed = True
    while changed:
        changed = False
        for r in f.rules:
            if r.head not in productive and all(
                isinstance(b, str) or b in productive for b in r.body
            ):
                productive.add(r.head)
                changed = True
    usable = [
        r for r in f.rules if all(isinstance(b, str) or b in productive for b in r.body)
    ]
    reached = {f.start}
    stack = [f.start]
    while stack:
        head = stack.pop()
        for r in usable:
            if r.head == head:
                for b in r.body:
                    if not isinstance(b, str) and b not in reached:
                        reached.add(b)
                        stack.append(b)
    return tuple(r for r in usable if r.head in reached)


# Few nodes and short bodies, so that random forests often have cycles,
# repeated body nodes, empty bodies, heads that derive no token string and
# heads the start node cannot reach.
_NODES = st.integers(0, 5)
_BODY_PARTS = st.one_of(_NODES, st.sampled_from(["a", "b"]))


def _forests(rules):
    """Random forests whose steps name a rule drawn from `rules`."""
    return st.builds(
        lambda rules, start: ParseForest(tuple(rules), start, "cky", None),
        st.lists(
            st.builds(ForestRule, _NODES, st.lists(_BODY_PARTS, max_size=3).map(tuple), rules),
            max_size=12,
        ),
        _NODES,
    )


_FORESTS = _forests(st.none())


@given(_FORESTS)
@example(
    ParseForest(
        (
            ForestRule(0, (1, 1)),  # repeated body node
            ForestRule(1, (1, "a")),  # cycle, no base rule: unproductive
            ForestRule(0, (2, 2, "b")),
            ForestRule(2, ()),  # empty body
            ForestRule(3, ("a",)),  # unreachable
            ForestRule(2, (0,)),  # cycle through productive heads
        ),
        0,
        "cky",
        None,
    )
)
def test_reduce_matches_sweep_reference(f):
    reduced = reduce_forest(f)
    assert reduced == ParseForest(_reference_reduce(f), f.start, f.origin, f.grammar)
    assert reduce_forest(reduced) == reduced


def test_reduce_linear_on_chain():
    # Listed head first, a chain needs one sweep per rule to settle
    # productivity; the worklist visits each body node once.
    n = 10_000
    rules = [ForestRule(i, (i + 1,)) for i in range(n)]
    rules.append(ForestRule(n, ("a",)))
    f = ParseForest(tuple(rules), 0, "cky", None)
    t0 = time.perf_counter()
    reduced = reduce_forest(f)
    elapsed = time.perf_counter() - t0
    assert reduced.rules == f.rules
    assert elapsed < 1.0


def _chart_forests(rules, tokens):
    """The forest of each algorithm that takes the grammar, on tokens, and
    of Earley on the grammar itself when it has one start rule."""
    g = Grammar(tuple(rules), rules[0].lhs)
    for name, a in ALGORITHMS.items():
        # CKY and the bottom-up machine need CNF, shift-reduce machines no
        # empty rules; an algorithm that refuses any other grammar fails.
        if name in ("cky", "bottomup") and not is_cnf(g):
            continue
        if name.startswith("glr") and has_epsilon_rules(g):
            continue
        if a.build_forest is not None:
            yield a.build_forest(_chart(name, g, tokens))
    if len(g.start_rules()) == 1:  # Earley on the grammar as it is, unaugmented
        yield build_forest_items(earley_parse(g, tokens))


def _walk_of(reduced):
    """The walk of a reduced forest: the steps made from each reached head's
    entries, in the order the walk closed the heads, the nodes reached
    children first, and the cycle flag."""
    by_head, order, cyclic, steps = reduced._graph
    return [(h, steps(h, entries)) for h, entries in by_head.items()], order, cyclic


@given(RANDOM_GRAMMARS, st.lists(st.sampled_from("ab"), max_size=4))
def test_chart_forest_reduces_like_copy_built_by_hand(rules, tokens):
    # A chart forest skips the productivity pass, a copy built by hand takes
    # it: both must keep the same rules, in the same walk.
    for f in _chart_forests(rules, tokens):
        assert len(set(f.rules)) == len(f.rules)
        reduced = reduce_forest(f)
        plain = reduce_forest(ParseForest(f.rules, f.start, f.origin, f.grammar))
        assert reduced == plain
        assert _walk_of(reduced) == _walk_of(plain)
        assert count_trees(reduced) == count_trees(plain)
        assert extract_trees(reduced, 3) == extract_trees(plain, 3)
        again = reduce_forest(reduced)
        assert again == reduced
        assert _walk_of(again) == _walk_of(reduced)


@given(RANDOM_GRAMMARS, st.lists(st.sampled_from("ab"), max_size=4))
def test_chart_forest_rules_are_views_of_its_steps(rules, tokens):
    # A chart forest's steps are plain tuples; `rules`, full or reduced,
    # gives their `ForestRule` views, and the steps count and extract as a
    # copy of those views built by hand does.
    for f in _chart_forests(rules, tokens):
        for r in f.rules + reduce_forest(f).rules:
            assert type(r) is ForestRule
            assert (r.head, r.body, r.rule) == tuple(r)
        plain = ParseForest(f.rules, f.start, f.origin, f.grammar)
        assert count_trees(f) == count_trees(plain)
        assert extract_trees(f, 3) == extract_trees(plain, 3)


@st.composite
def _derived(draw, rules):
    """A sentence of the grammar: up to eight leftmost expansions from the
    start symbol, kept if they leave at most four terminals."""
    heads = {rule.lhs for rule in rules}
    form = [rules[0].lhs]
    for _ in range(8):
        at = next((i for i, sym in enumerate(form) if sym in heads), None)
        if at is None:
            break
        form[at : at + 1] = draw(st.sampled_from([r for r in rules if r.lhs == form[at]])).rhs
    assume(len(form) <= 4 and heads.isdisjoint(form))
    return form


def _token_lists(rules):
    """Up to four tokens over the grammar's terminals, its nonterminal
    names and one symbol it does not know."""
    symbols = {r.lhs for r in rules}.union(*(r.rhs for r in rules))
    return st.lists(st.sampled_from(sorted(symbols) + ["c"]), max_size=4)


# Drawn strings are mostly rejected; derived ones are accepted, so their
# forests hold trees, the glr reductions and acceptance among them.
_GRAMMAR_INPUTS = RANDOM_GRAMMARS.flatmap(
    lambda rules: st.tuples(st.just(rules), st.one_of(_derived(rules), _token_lists(rules)))
)


@given(_GRAMMAR_INPUTS)
@example(([Rule("S", ("S", "S")), Rule("S", ("a",))], list("aaaa")))  # 5 trees
@example(([Rule("S", ("A", "A")), Rule("A", ("a",)), Rule("A", ())], ["a"]))  # 2 trees
@example(([Rule("S", ("S",)), Rule("S", ("a",))], ["a"]))  # infinitely many
@example(([Rule("S", ())], []))  # the axiom completes the start rule
@example(([Rule("S", ("a",))], ["S"]))  # a token spelled like the start symbol
@example(  # the start symbol in a rule body, predicted at 0 by unaugmented Earley
    ([Rule("S", ("A",)), Rule("A", ("S", "b")), Rule("A", ("a",))], list("abb"))
)
@example(([Rule("S", ("A",)), Rule("A", ("S",)), Rule("A", ("a",))], ["a"]))  # and cyclic
@example(  # cyclic; dotted items and pushes must add no depth
    (
        [Rule("S", rhs) for rhs in [("B",), ("B", "B", "B"), ("B", "a"), ()]]
        + [Rule("B", rhs) for rhs in [("a", "B"), ("a",), ("S", "a"), ("B",)]],
        list("aaa"),
    )
)
@example(  # cyclic; aux cells of the binarized machine must add no depth
    (
        [Rule("A", tuple(rhs)) for rhs in ["baB", "A", "aA", "bbb", "b", "ABA"]]
        + [Rule("B", tuple(rhs)) for rhs in ["bAB", "A"]],
        list("abbb"),
    )
)
def test_chart_forests_hold_the_oracle_trees(case):
    # Differential property: every algorithm's forest counts the same trees,
    # and a finite count is the oracle's, tree for tree.  An infinite forest
    # gives its trees shallowest first, so every tree the oracle finds below
    # the deepest of them is among them.
    rules, tokens = case
    g = Grammar(tuple(rules), rules[0].lhs)
    counts, extracted = [], []
    for f in _chart_forests(rules, tokens):
        reduced = reduce_forest(f)
        counted = count_trees(reduced)
        counts.append(counted)
        extracted.append(extract_trees(reduced, 3 if counted.infinite else counted.value + 1))
    assert all(c == counts[0] for c in counts), counts
    if counts[0].infinite:
        for trees in extracted:
            depths = [tree_depth(t) for t in trees]
            assert len(trees) == 3 and depths == sorted(depths)
            if depths[-1] > 1:
                shallower = enumerate_trees(g, tokens, len(trees), max_depth=depths[-1] - 1)
                assert set(shallower) <= set(trees)
        return
    oracle = enumerate_trees(g, tokens, counts[0].value + 1)
    assert len(oracle) == counts[0].value
    for trees in extracted:
        assert len(trees) == len(oracle)
        assert set(trees) == set(oracle)


def test_replaced_chart_forest_takes_productivity_pass(expr_grammar):
    f = build_forest_items(earley_parse(expr_grammar, "a + a * a".split()))
    ghost = EarleyItem(0, DottedRule(expr_grammar.rules[0], 0), 5)  # has no rule
    dead = ForestRule(f.start, (ghost,))
    shortcut = ForestRule(f.start, ("a",))  # productive, and in no builder index
    edited = dataclasses.replace(f, rules=f.rules + (dead, shortcut))
    reduced = reduce_forest(edited)
    assert dead not in reduced.rules
    assert shortcut in reduced.rules
    assert reduced.rules == _reference_reduce(edited)
    # Every tree scans the first token: without its rules nothing is left.
    scanned = EarleyItem(0, DottedRule(expr_grammar.rules[3], 1), 1)
    cut = dataclasses.replace(f, rules=tuple(r for r in f.rules if r.head != scanned))
    assert reduce_forest(cut).rules == _reference_reduce(cut) == ()
    assert count_trees(reduce_forest(cut)).value == 0
    # The chart forest itself reduces once and for all.
    once = reduce_forest(f)
    assert reduce_forest(once) == once
    assert _walk_of(reduce_forest(once)) == _walk_of(once)


def test_earley_forest_one_rule_per_predicted_item():
    text = (Path(__file__).resolve().parents[1] / "demos/grammars/expr.cfg").read_text()
    g = parse_grammar(text)
    c = earley_parse(g, "a + a * a".split())
    f = build_forest_items(c)
    item = EarleyItem(0, DottedRule(Rule("E", ("a",)), 0), 0)
    justs = c.justifications[item]
    # Three parents wait for E at 0, but prediction is positional: it fires
    # once for the vertex, without antecedents.
    assert justs == [("predict", (), None)]
    assert [r for r in f.rules if r.head == item] == [ForestRule(item, ())]
    # 38 justifications give 38 rules, as many as a global dedupe of whole rules gave.
    assert sum(map(len, c.justifications.values())) == 38
    assert len(f.rules) == 38


_ORDER_SCRIPT = """
import sys
from pathlib import Path
from tabparse.earley import EarleyItem, earley_parse
from tabparse.engine import Item, run_tabular
from tabparse.forest import build_forest_items, extract_trees, reduce_forest
from tabparse.grammar import augment_start, parse_grammar
from tabparse.lr import binarize_reductions, compile_lr
from tabparse.pda import dump_pda
from tabparse.strategies import compile_topdown
from tabparse.trees import render_tree

g = augment_start(parse_grammar(Path(sys.argv[1]).read_text()))
tokens = "a + a * a + a".split()
binarized = binarize_reductions(compile_lr(g))
print(dump_pda(binarized))
for name, parse, view in [
    ("earley", lambda: earley_parse(g, tokens), EarleyItem._make),
    ("topdown", lambda: run_tabular(compile_topdown(g), tokens), Item._make),
    ("glr", lambda: run_tabular(compile_lr(g), tokens), Item._make),
    ("glr-binarized", lambda: run_tabular(binarized, tokens), Item._make),
]:
    full = build_forest_items(parse())
    reduced = reduce_forest(full)
    for label, f in (("full", full), ("reduced", reduced)):
        print(name, label)
        for r in f.rules:
            body = (b if isinstance(b, str) else view(b) for b in r.body)
            print(" ", view(r.head), "->", *body)
    for tree in extract_trees(reduced, 3):
        print(" ", render_tree(tree))
"""


def test_rule_order_is_the_same_under_any_hash_seed():
    # Rule order is chart order, the order items were first derived, not a
    # sort: neither it nor the trees picked may depend on string hashing,
    # nor the binarized machine's transition order on symbols hashed by
    # address.
    here = Path(__file__).resolve().parents[1]
    printed = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        path = [str(here / "src"), env.get("PYTHONPATH")]
        env["PYTHONPATH"] = os.pathsep.join(filter(None, path))
        proc = subprocess.run(
            [sys.executable, "-c", _ORDER_SCRIPT, str(here / "demos/grammars/expr.cfg")],
            capture_output=True,
            text=True,
            timeout=60,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        printed.append(proc.stdout)
    assert printed[0] == printed[1]
    assert printed[0].count(" reduced\n") == 4


def _reference_count(f):
    """The count before the walk was shared: a topological sort of the whole
    forest, where any cycle means infinitely many trees."""
    by_head, graph = {}, {}
    for r in f.rules:
        by_head.setdefault(r.head, []).append(r)
        graph.setdefault(r.head, set()).update(b for b in r.body if not isinstance(b, str))
    try:
        order = list(TopologicalSorter(graph).static_order())
    except CycleError:
        return None, True
    counts = {}
    for head in order:
        counts[head] = sum(
            math.prod(1 if isinstance(b, str) else counts.get(b, 0) for b in r.body)
            for r in by_head.get(head, ())
        )
    return counts.get(f.start, 0), False


# Every step names a rule, so each adds a level.
@given(_forests(st.just(_RULE)))
@example(
    ParseForest(
        (
            ForestRule(0, (1, 1), _RULE),
            ForestRule(1, ("a",), _RULE),
            ForestRule(1, (2, "b"), _RULE),
            ForestRule(2, ("a",), _RULE),
            ForestRule(2, (), _RULE),
            ForestRule(0, (2,), _RULE),
        ),
        0,
        "cky",
        None,
    )
)
@example(
    ParseForest(
        (ForestRule(0, (0, 0), _RULE), ForestRule(0, ("a",), _RULE), ForestRule(0, (0,), _RULE)),
        0,
        "cky",
        None,
    )
)
def test_count_and_choice_match_references(f):
    reduced = reduce_forest(f)
    counted = count_trees(reduced)
    assert (counted.value, counted.infinite) == _reference_count(reduced)
    # a forest built by hand is walked on demand, with the same result
    rebuilt = ParseForest(reduced.rules, f.start, f.origin, f.grammar)
    assert count_trees(rebuilt) == counted
    for k in range(1, 6):
        expected = _reference_choose_by_rule(reduced, k)
        assert _rules_only(_choose_trees(reduced, k)) == expected
        assert _rules_only(_choose_trees(rebuilt, k)) == expected


def _is_comb(t, n, left):
    """Whether t is the only tree of n tokens under L -> L a | a (left) or
    L -> a L | a, checked level by level: == on a tree this deep would
    recurse past the interpreter's limit."""
    for _ in range(n - 1):
        if t.label != "L" or len(t.children) != 2:
            return False
        inner, token = t.children if left else reversed(t.children)
        if token != ("a", None):
            return False
        t = inner
    return t == ("L", (("a", None),))


@pytest.mark.parametrize(
    "algorithm,text,n",
    [
        ("earley", "L -> L a\nL -> a", 2000),
        ("topdown", "L -> L a\nL -> a", 2000),
        ("glr", "L -> L a\nL -> a", 2000),
        ("glr", "L -> a L\nL -> a", 360),
        ("glr-binarized", "L -> L a\nL -> a", 2000),
    ],
)
def test_extract_deep_list(algorithm, text, n):
    f = _item_forest(algorithm, parse_grammar(text), ("a",) * n)
    t0 = time.perf_counter()
    trees = extract_trees(f, 2)
    elapsed = time.perf_counter() - t0
    assert len(trees) == 1
    assert _is_comb(trees[0], n, left=text.startswith("L -> L"))
    # Measured 4-23 ms a call on a 2-core host under Python 3.11 (16-23 ms
    # for the 2,000-token lists, 4 ms for the right list); the bound leaves
    # room for slower machines but not for extraction quadratic in depth.
    assert elapsed < 0.5


def _reference_lowest(f):
    """Each head's shallowest tree depth, by sweeps over the rules until no
    depth falls; only a rule that names a grammar rule adds a level."""
    low, changed = {}, True
    while changed:
        changed = False
        for r in f.rules:
            kids = [b for b in r.body if not isinstance(b, str)]
            if all(b in low for b in kids):
                d = max((low[b] for b in kids), default=0) + (r.rule is not None)
                if d < low.get(r.head, math.inf):
                    low[r.head], changed = d, True
    return low


def _rules_only(trees):
    """Trees of steps (head, kids, body, rule) as lists of their rules."""
    return [[ForestRule(head, body, rule) for head, _, body, rule in t] for t in trees]


def _reference_choose_by_rule(f, k):
    """Up to k forest trees of a reduced forest, each as its rules in
    preorder, where only a rule that names a grammar rule adds a level:
    acyclic forests in rule order, cyclic ones in rounds of increasing
    depth from 0.  ForestError when rules that name none form a cycle."""
    by_head, spine = {}, {}
    for r in f.rules:
        by_head.setdefault(r.head, []).append(r)
        nodes = [b for b in r.body if not isinstance(b, str)] if r.rule is None else []
        spine.setdefault(r.head, set()).update(nodes)
    try:
        TopologicalSorter(spine).prepare()
    except CycleError:
        return ForestError

    def trees(node_, limit):  # (rules in preorder, depth) of each tree at node_
        if isinstance(node_, str):
            yield (), 0
            return
        for r in by_head.get(node_, ()):
            level = r.rule is not None
            if limit >= level:
                for rules, d in bodies(r.body, limit - level):
                    yield (r, *rules), d + level

    def bodies(parts, limit):
        if not parts:
            yield (), 0
            return
        for first, d0 in trees(parts[0], limit):
            for rest, d1 in bodies(parts[1:], limit):
                yield first + rest, max(d0, d1)

    if _reference_count(f)[1]:
        rounds = itertools.count()
        found = (t for depth in rounds for t, d in trees(f.start, depth) if d == depth)
    else:
        found = (t for t, _ in trees(f.start, len(by_head) + 1))
    return [list(t) for t in itertools.islice(found, k)]


@given(_forests(st.sampled_from([None, _RULE])))
@example(
    ParseForest(
        (ForestRule(0, ("a",), _RULE), ForestRule(0, (1,)), ForestRule(1, (0,))), 0, "cky", None
    )
)
@example(
    ParseForest(
        (
            ForestRule(0, (1, 1), _RULE),
            ForestRule(1, ("a",)),
            ForestRule(1, (0, "b")),
            ForestRule(0, (1,)),
        ),
        0,
        "cky",
        None,
    )
)
def test_choice_adds_depth_only_for_rule_naming_steps(f):
    # Steps that name no rule (spines, tokens, the axiom) add no depth, as
    # they add no node to the edited tree.
    assert forest._lowest(forest._lookup(f.rules)) == _reference_lowest(f)
    reduced = reduce_forest(f)
    for k in range(1, 6):
        expected = _reference_choose_by_rule(reduced, k)
        if expected is ForestError:
            with pytest.raises(ForestError, match="editor"):
                _choose_trees(reduced, k)
        else:
            assert _rules_only(_choose_trees(reduced, k)) == expected
