import inspect
import itertools
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import RANDOM_GRAMMARS
from tabparse.algorithms import ALGORITHMS
from tabparse.cky import CkyJustification, cky_parse, cky_recognized
from tabparse.earley import EarleyItem, earley_parse, earley_recognized
from tabparse.engine import (
    BOTTOM,
    Deduction,
    Item,
    UnsupportedTransition,
    _trigger_tables,
    chart_to_dot,
    classify_transition,
    dump_chart,
    recognized,
    run_tabular,
)
from tabparse.grammar import (
    Grammar,
    augment_start,
    has_epsilon_rules,
    is_cnf,
    parse_grammar,
)
from tabparse.forest import build_forest_items, count_trees
from tabparse.lr import Reduction, binarize_reductions, compile_lr
from tabparse.oracle import recognizes
from tabparse.pda import Pda, Transition, simulate
from tabparse.strategies import compile_bottomup, compile_topdown

BRANCHING_CHART = """\
( bot , 0 , q0 , 0 )
( q0 , 0 , q1 , 1 )
( q0 , 0 , q2 , 2 )
( q0 , 0 , q3 , 2 )
( q2 , 2 , q4 , 3 )
( q3 , 2 , q4 , 3 )
( q0 , 0 , q7 , 4 )
( q0 , 0 , q8 , 4 )
( bot , 0 , q9 , 4 )
( q2 , 2 , q6 , 4 )
( q3 , 2 , q6 , 4 )
( q4 , 3 , q5 , 4 )"""


def replay_justifications(c):
    """Structural soundness: every recorded inference checks out against its
    transition, its antecedents, and the input."""
    p = c.pda
    toks = c.tokens
    auto = p.automaton
    assert set(c.justifications) == c.items
    vertices = {(upper, upper_pos) for _, _, upper, upper_pos in c.items}
    for item, justs in c.justifications.items():
        assert justs
        item = Item._make(item)
        for tag, ants, via in justs:
            assert all(a in c.items for a in ants)
            ants = tuple(map(Item._make, ants))
            if tag == "axiom":
                assert item == Item(BOTTOM, 0, p.initial, 0)
                assert ants == () and via is None
            elif tag == "F1":
                # positional: some arc ends at the lower vertex, via.pop[0]
                assert ants == ()
                assert (item.lower, item.lower_pos) in vertices
                assert item.lower == via.pop[0]
                assert toks[item.lower_pos] == via.read[0]
                assert item == Item(item.lower, item.lower_pos, via.push[1], item.lower_pos + 1)
            elif tag == "F2":
                (a,) = ants
                assert a.upper == via.pop[-1]
                if len(via.pop) == 2:
                    assert a.lower == via.pop[0]
                assert toks[a.upper_pos] == via.read[0]
                assert item == Item(a.lower, a.lower_pos, via.push[-1], a.upper_pos + 1)
            elif tag == "F3":
                below, pair = ants
                assert below.upper == via.pop[0] == pair.lower
                assert below.upper_pos == pair.lower_pos
                assert pair.upper == via.pop[1]
                assert item == Item(
                    below.lower, below.lower_pos, via.push[0], pair.upper_pos
                )
            elif tag == "F4":
                # positional: some arc ends at the lower vertex, via.pop[0]
                assert ants == ()
                assert (item.lower, item.lower_pos) in vertices
                assert item.lower == via.pop[0]
                assert item == Item(item.lower, item.lower_pos, via.push[1], item.lower_pos)
            elif tag == "F5":
                (a,) = ants
                assert a.upper == via.pop[-1]
                if len(via.pop) == 2:
                    assert a.lower == via.pop[0]
                assert item == Item(a.lower, a.lower_pos, via.push[-1], a.upper_pos)
            elif tag == "F6":
                assert ants == ()
                assert item.upper == via.push[0]
                assert item.upper_pos == item.lower_pos + 1
                assert toks[item.lower_pos] == via.read[0]
                # positional: some arc must end at the inherited lower vertex
                assert (item.lower, item.lower_pos) in vertices
            elif tag == "F7":
                chain = ants
                assert all(
                    x.upper == y.lower and x.upper_pos == y.lower_pos
                    for x, y in zip(chain, chain[1:])
                )
                if len(via.push) == 2:
                    assert len(chain) == len(via.pop) - 1
                    assert chain[0].lower == via.pop[0]
                    assert [a.upper for a in chain] == list(via.pop[1:])
                    assert item == Item(
                        via.pop[0], chain[0].lower_pos, via.push[1], chain[-1].upper_pos
                    )
                else:
                    assert len(chain) == len(via.pop)
                    assert [a.upper for a in chain] == list(via.pop)
                    assert item == Item(
                        chain[0].lower,
                        chain[0].lower_pos,
                        via.push[0],
                        chain[-1].upper_pos,
                    )
            elif tag in ("reduce", "accept"):
                chain = ants
                if tag == "accept":
                    below, *chain = ants
                    assert below.lower == BOTTOM
                    assert below.upper == p.initial == chain[0].lower
                    assert below.upper_pos == chain[0].lower_pos
                    assert via.rule.lhs == p.grammar.start
                chain = tuple(chain)
                rhs = via.rule.rhs
                assert len(chain) == len(rhs)
                assert all(
                    x.upper == y.lower and x.upper_pos == y.lower_pos
                    for x, y in zip(chain, chain[1:])
                )
                states = [chain[0].lower] + [a.upper for a in chain]
                assert all(
                    auto.goto_state(states[k], rhs[k]) == states[k + 1]
                    for k in range(len(rhs))
                )
                assert chain[-1].upper == via.state
                if tag == "reduce":
                    assert item == Item(
                        states[0],
                        chain[0].lower_pos,
                        auto.goto_state(states[0], via.rule.lhs),
                        chain[-1].upper_pos,
                    )
                else:
                    assert item == Item(
                        BOTTOM, chain[0].lower_pos, p.final, chain[-1].upper_pos
                    )
            else:
                raise AssertionError(f"unknown justification tag {tag}")


def test_classification():
    cases = [
        (Transition(("q",), ("a",), ("q", "r")), "F1"),
        (Transition(("q",), ("a",), ("r",)), "F2"),
        (Transition(("q", "r"), ("a",), ("q", "s")), "F2"),
        (Transition(("q", "r"), (), ("s",)), "F3"),
        (Transition(("q",), (), ("q", "r")), "F4"),
        (Transition(("q",), (), ("r",)), "F5"),
        (Transition(("q", "r"), (), ("q", "s")), "F5"),
        (Transition((), ("a",), ("A",)), "F6"),
        (Transition(("q", "r", "s"), (), ("q", "t")), "F7"),
        (Transition(("q", "r", "s"), (), ("t",)), "F7"),
    ]
    for t, want in cases:
        assert classify_transition(t) == want, t


@pytest.mark.parametrize(
    "t",
    [
        Transition(("q",), ("a", "b"), ("q", "r")),
        Transition(("q",), ("a",), ("r", "s")),
        Transition((), (), ("q",)),
        Transition(("q", "r"), (), ()),
        Transition(("q", "r"), ("a",), ("s", "t")),
        Transition(("q", "r", "s"), (), ("x", "y")),
    ],
)
def test_unsupported_shapes(t):
    with pytest.raises(UnsupportedTransition):
        classify_transition(t)


def test_unsupported_machine_rejected():
    p = Pda(
        frozenset("ab"),
        frozenset("qr"),
        "q",
        "r",
        (Transition(("q",), ("a", "b"), ("q", "r")),),
    )
    with pytest.raises(UnsupportedTransition):
        run_tabular(p, "ab")


# Machines that use a value the engine reserves, each with an input that
# the engine would recognize if it let them run, though no run accepts it.
RESERVED_MACHINES = {
    "bottom-as-stack-symbol": (
        Pda(
            frozenset("a"),
            frozenset({"s", "f", BOTTOM}),
            "s",
            "f",
            (
                Transition(("s",), (), ("s", BOTTOM)),
                Transition((BOTTOM, "s"), (), ("f",)),
                Transition(("s", "f"), (), ("f",)),
            ),
        ),
        (),
        "stack symbol bot ",
    ),
    "none-as-kept-lower": (
        Pda(
            frozenset("a"),
            frozenset({"s", "x", "y", "f", None}),
            "s",
            "f",
            (
                Transition(("s",), (), ("s", "x")),
                Transition((None, "x"), (), (None, "y")),
                Transition(("s", "y"), (), ("f",)),
            ),
        ),
        (),
        "stack symbol None ",
    ),
    "none-as-input": (
        Pda(frozenset({"a", None}), frozenset("sf"), "s", "f", (Transition(("s",), (None,), ("f",)),)),
        ("a",),
        "input symbol None ",
    ),
}


@pytest.mark.parametrize("order", ["lifo", "fifo"])
@pytest.mark.parametrize("name", RESERVED_MACHINES)
def test_reserved_values_rejected(name, order):
    p, tokens, message = RESERVED_MACHINES[name]
    assert simulate(p, tokens).verdict == "no"
    with pytest.raises(UnsupportedTransition, match=message):
        run_tabular(p, tokens, agenda_order=order)


def test_bad_agenda_order(branching_pda):
    with pytest.raises(ValueError, match="agenda order"):
        run_tabular(branching_pda, "abcd", agenda_order="random")


def test_branching_chart_frozen(branching_pda):
    c = run_tabular(branching_pda, "abcd")
    assert dump_chart(c) == BRANCHING_CHART
    assert len(c.items) == 12
    assert c.fired == 13
    assert recognized(c)
    replay_justifications(c)


def test_branching_chart_key_justification(branching_pda):
    c = run_tabular(branching_pda, "abcd")
    justs = c.justifications[Item("q0", 0, "q7", 4)]
    assert len(justs) == 1
    tag, ants, via = justs[0]
    assert tag == "F3"
    assert ants == (Item("q0", 0, "q2", 2), Item("q2", 2, "q6", 4))
    assert via == Transition(("q2", "q6"), (), ("q7",))
    accept = c.justifications[c.accept_item()]
    assert len(accept) == 2
    pairs = {ants[1] for _, ants, _ in accept}
    assert pairs == {Item("q0", 0, "q7", 4), Item("q0", 0, "q8", 4)}


def test_branching_rejections(branching_pda):
    for text in ["", "abc", "abcyz", "abdd"]:
        c = run_tabular(branching_pda, list(text))
        assert not recognized(c)
        replay_justifications(c)


def test_agenda_order_irrelevant(branching_pda, sps_grammar, cnf_grammar):
    machines = [
        (branching_pda, list("abcd")),
        (compile_lr(sps_grammar), "a + a + a".split()),
        (compile_bottomup(cnf_grammar), list("aabb")),
    ]
    for p, toks in machines:
        a = run_tabular(p, toks, agenda_order="lifo")
        b = run_tabular(p, toks, agenda_order="fifo")
        assert a.items == b.items
        just_a = {it: set(js) for it, js in a.justifications.items()}
        just_b = {it: set(js) for it, js in b.justifications.items()}
        assert just_a == just_b


def test_topdown_engine_handles_left_recursion(expr_grammar):
    p = compile_topdown(expr_grammar)
    for text, want in [
        ("a", True),
        ("a + a", True),
        ("a + a * a", True),
        ("a +", False),
        ("", False),
    ]:
        c = run_tabular(p, text.split())
        assert recognized(c) == want
        replay_justifications(c)


def test_bottomup_engine(cnf_grammar):
    p = compile_bottomup(cnf_grammar)
    assert p.bottom_marker_start
    for text, want in [("b", True), ("aabb", True), ("ab", False), ("", False)]:
        c = run_tabular(p, list(text))
        assert c.accept_item() == Item(p.initial, 0, "S", len(text))
        assert recognized(c) == want
        replay_justifications(c)


def test_lr_engine_lazy_and_binarized(sps_grammar):
    plain = compile_lr(sps_grammar)
    binarized = binarize_reductions(plain)
    for text in ["", "a", "a + a", "a + a + a", "a +", "a a"]:
        toks = text.split()
        want = recognizes(sps_grammar, toks)
        for p in (plain, binarized):
            c = run_tabular(p, toks)
            assert recognized(c) == want, (p.kind, text)
            replay_justifications(c)


def test_epsilon_machine():
    p = compile_topdown(parse_grammar("S ->"))
    assert recognized(run_tabular(p, []))
    assert not recognized(run_tabular(p, ["x"]))


def test_cyclic_machine_terminates():
    g = augment_start(parse_grammar("S -> S\nS -> a"))
    p = compile_topdown(g)
    c = run_tabular(p, ["a"])
    assert recognized(c)
    replay_justifications(c)
    assert not recognized(run_tabular(p, []))


GRAMMARS = Path(__file__).resolve().parent.parent / "demos" / "grammars"
NESTED_BRACKETS = "S -> L\nL -> ( L )\nL -> [ L ]\nL -> x\nL -> L L\n"


@pytest.mark.parametrize(
    "text, inputs",
    [
        ((GRAMMARS / "expr.cfg").read_text(), ["a + a * a + a", "a * a", "a + + a"]),
        ((GRAMMARS / "sps.cfg").read_text(), ["a + a + a + a", "a", "a +"]),
        (NESTED_BRACKETS, ["( [ x ] x ) x", "[ x ] ( x ) ( x x )", "( x"]),
    ],
    ids=["expr", "sps", "brackets"],
)
def test_reduction_chains_follow_goto(text, inputs):
    # The engine walks arc linkage without checking goto consistency.
    g = parse_grammar(text)
    tags = set()
    for p in (compile_lr(g), compile_lr(augment_start(g))):
        auto = p.automaton
        for text in inputs:
            c = run_tabular(p, text.split())
            for tag, ants, red in (j for js in c.justifications.values() for j in js):
                if tag not in ("reduce", "accept"):
                    continue
                tags.add(tag)
                chain = ants[1:] if tag == "accept" else ants
                chain = tuple(map(Item._make, chain))
                states = [chain[0].lower] + [arc.upper for arc in chain]
                assert len(chain) == len(red.rule.rhs)
                for sym, q, t in zip(red.rule.rhs, states, states[1:]):
                    assert auto.goto_state(q, sym) == t
                assert states[-1] == red.state
    assert tags == {"reduce", "accept"}


def test_glr_inference_counts(expr_grammar):
    # Each inference fires once: `fired` is the number of distinct
    # justifications, which indexing reductions by goto arc must not change.
    c = run_tabular(compile_lr(expr_grammar), " + ".join(["a"] * 33).split())
    assert (c.fired, len(c.items)) == (6147, 691)
    right_list = augment_start(parse_grammar("L -> a L\nL -> a"))
    c = run_tabular(compile_lr(right_list), ["a"] * 100)
    assert (c.fired, len(c.items)) == (5251, 5251)


def _fired(algorithm, g, tokens):
    a = ALGORITHMS[algorithm]
    return a.saturate(a.prepare(g), tokens).fired


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("algorithm", ["earley", "topdown", "glr-binarized", "glr"])
def test_work_grows_polynomially_on_ambiguous_products(algorithm, m):
    # S -> S^m | a on a^n: the binary machines stay cubic, while a lazy
    # reduction pops m + 1 cells, so its chains number up to n^(m + 1).
    g = parse_grammar(f"S -> {' '.join(['S'] * m)}\nS -> a")
    small, large = (_fired(algorithm, g, ["a"] * n) for n in (24, 48))
    predicted = m + 1 if algorithm == "glr" else 3
    assert math.log2(large / small) <= predicted + 0.25


def make_f7_machine(single: bool) -> Pda:
    reduce_pop = ("x", "y", "z")
    if single:
        f7 = Transition(reduce_pop, (), ("w",))
    else:
        f7 = Transition(("s",) + reduce_pop, (), ("s", "w"))
    return Pda(
        frozenset("abc"),
        frozenset("sxyzwf"),
        "s",
        "f",
        (
            Transition(("s",), ("a",), ("s", "x")),
            Transition(("x",), ("b",), ("x", "y")),
            Transition(("y",), ("c",), ("y", "z")),
            f7,
            Transition(("s", "w"), (), ("f",)),
        ),
    )


@pytest.mark.parametrize("single", [True, False])
def test_literal_multipop(single):
    p = make_f7_machine(single)
    for text, want in [("abc", "yes"), ("ab", "no"), ("", "no"), ("abcc", "no")]:
        c = run_tabular(p, list(text))
        assert recognized(c) == (want == "yes")
        assert simulate(p, list(text)).verdict == want
        replay_justifications(c)


def test_chart_to_dot(branching_pda):
    dot = chart_to_dot(run_tabular(branching_pda, "abcd"))
    assert dot.startswith("digraph chart {")
    assert dot.rstrip().endswith("}")
    for pos in range(5):
        assert f"subgraph cluster_{pos}" in dot
    assert dot.count("->") == 12
    assert '[label="q0"]' in dot


def test_dot_name_collisions():
    # distinct symbols may sanitize to the same identifier; names must stay unique
    p = Pda(
        frozenset("a"),
        frozenset({"s", "q.1", "q_1", "f"}),
        "s",
        "f",
        (
            Transition(("s",), ("a",), ("s", "q_1")),
            Transition(("s",), ("a",), ("s", "q.1")),
        ),
    )
    dot = chart_to_dot(run_tabular(p, "a"))
    assert "p1_q_1 " in dot and "p1_q_1_2 " in dot


def assert_fires_once(saturate):
    """Each inference fires once under either agenda order: `fired` counts
    the recorded justifications, no list repeats one, and both orders
    record the same justification sets."""
    charts = [saturate(order) for order in ("lifo", "fifo")]
    for c in charts:
        assert c.fired == sum(len(js) for js in c.justifications.values())
        assert all(len(set(js)) == len(js) for js in c.justifications.values())
    lifo, fifo = ({it: set(js) for it, js in c.justifications.items()} for c in charts)
    assert lifo == fifo
    return charts[0]


# Shapes where an item could meet itself, or a transition be found twice:
# (transitions, input, inferences fired).
T = Transition
EDGE_MACHINES = {
    # (s, 0, s, 0) is both the popped pair and the arc beneath it.
    "f3-self-pair": ([T(("s",), (), ("s", "s")), T(("s", "s"), (), ("f",))], "", 4),
    # Two arcs end at vertex (x, 1); the push on it has no antecedent.
    "f6-two-arcs-below": (
        [
            T(("s",), ("a",), ("s", "x")),
            T(("s",), ("a",), ("x",)),
            T((), ("b",), ("f",)),
        ],
        "ab",
        4,
    ),
    # (s, 0, s, 0) fills every cell of one multi-pop chain.
    "f7-repeated-cell": ([T(("s",), (), ("s", "s")), T(("s", "s", "s"), (), ("f",))], "", 4),
    "duplicate-transition": ([T(("s",), ("a",), ("f",))] * 2, "a", 2),
}


@pytest.mark.parametrize("name", EDGE_MACHINES)
def test_edge_machines_fire_once(name):
    transitions, text, fired = EDGE_MACHINES[name]
    symbols = {sym for t in transitions for sym in t.pop + t.push}
    p = Pda(frozenset("ab"), frozenset(symbols), "s", "f", tuple(transitions))
    c = assert_fires_once(lambda order: run_tabular(p, list(text), agenda_order=order))
    assert c.fired == fired
    replay_justifications(c)


def test_multipop_first_cell_any_lower():
    # The first cell of a single-push F7 path may have any lower symbol.
    # Arc (t, 0, x, 1) is a second arc into vertex (x, 1), under the cells
    # popping y and z; it comes through two F5 swaps, so under fifo it is
    # popped after both cells, and only its own walk forward finds them.
    p = Pda(
        frozenset("abc"),
        frozenset("stuvwxyzf"),
        "s",
        "f",
        (
            T(("s",), ("a",), ("s", "x")),
            T(("s",), (), ("s", "t")),
            T(("t",), ("a",), ("t", "u")),
            T(("u",), (), ("v",)),
            T(("v",), (), ("x",)),
            T(("x",), ("b",), ("x", "y")),
            T(("y",), ("c",), ("y", "z")),
            T(("x", "y", "z"), (), ("w",)),
            T(("s", "w"), (), ("f",)),
        ),
    )
    charts = [run_tabular(p, list("abc"), agenda_order=order) for order in ("lifo", "fifo")]
    c = assert_fires_once(lambda order: charts[order == "fifo"])
    for chart in charts:
        assert Item("t", 0, "w", 3) in chart.items
        assert recognized(chart) == (simulate(p, list("abc")).verdict == "yes")
    replay_justifications(c)


def test_f3_partners_found_from_below():
    # Two F3 transitions pop x with different second symbols, y and z; a
    # third arc above (x, 1), topped by w, is no pair at all.  Arc
    # (t, 0, x, 1) is a second arc into vertex (x, 1); it comes through an
    # F5 swap, so under fifo it is popped after the pairs above that vertex,
    # and only the F3 loop from below can pair it with them.
    pop_y = T(("x", "y"), (), ("f",))
    pop_z = T(("x", "z"), (), ("g",))
    p = Pda(
        frozenset("ab"),
        frozenset("stuwxyzfg"),
        "s",
        "f",
        (
            T(("s",), ("a",), ("s", "x")),
            T(("s",), (), ("s", "t")),
            T(("t",), ("a",), ("t", "u")),
            T(("u",), (), ("x",)),
            T(("x",), ("b",), ("x", "y")),
            T(("x",), ("b",), ("x", "w")),
            T(("x",), ("b",), ("x", "z")),
            pop_y,
            pop_z,
        ),
    )
    charts = [run_tabular(p, list("ab"), agenda_order=order) for order in ("lifo", "fifo")]
    c = assert_fires_once(lambda order: charts[order == "fifo"])
    order = list(charts[1].items)
    late = ("t", 0, "x", 1)
    assert order.index(late) > order.index(("x", 1, "z", 2)) > order.index(("x", 1, "y", 2))
    for chart in charts:
        js = chart.justifications
        for below in (("s", 0, "x", 1), late):
            assert js[below[:2] + ("f", 2)] == [("F3", (below, ("x", 1, "y", 2)), pop_y)]
            assert js[below[:2] + ("g", 2)] == [("F3", (below, ("x", 1, "z", 2)), pop_z)]
    replay_justifications(c)


# The engine files an arc by its upper vertex only when its top symbol has
# pushes.  Each machine below needs that index for one reason: an F6 push
# onto symbols with no pushes of their own, and an F3 or F7 pop whose
# lookup below must find a second arc into vertex (x, 1).  Both arcs into
# (x, 1) come through F5 swaps; under fifo the one resting on s is popped
# after the first but before the cell above (x, 1), so only the index finds
# it.
def swapped_into_x(pop: Transition) -> Pda:
    return Pda(
        frozenset("ab"),
        frozenset({"s", "t", "u", "u2", "u3", "v", "w", "x", "y", "f"}),
        "s",
        "f",
        (
            T(("s",), ("a",), ("s", "u")),
            T(("s",), (), ("s", "t")),
            T(("u",), (), ("u2",)),
            T(("u2",), (), ("u3",)),
            T(("u3",), (), ("x",)),
            T(("t",), ("a",), ("t", "v")),
            T(("v",), (), ("x",)),
            T(("x",), ("b",), ("x", "y")),
            pop,
            T(("s", "w"), (), ("f",)),
        ),
    )


SWAPPED_ARCS = {
    (BOTTOM, 0, "s", 0),
    ("s", 0, "u", 1),
    ("s", 0, "t", 0),
    ("s", 0, "u2", 1),
    ("t", 0, "v", 1),
    ("s", 0, "u3", 1),
    ("t", 0, "x", 1),
    ("s", 0, "x", 1),
    ("x", 1, "y", 2),
    ("s", 0, "w", 2),
    (BOTTOM, 0, "f", 2),
}


def assert_index_reason(p, tokens, items, key, justification):
    """Both agenda orders give exactly `items`, record only `justification`
    for `key` and accept, as the simulator does."""
    charts = {order: run_tabular(p, tokens, agenda_order=order) for order in ("lifo", "fifo")}
    replay_justifications(assert_fires_once(charts.get))
    for order, c in charts.items():
        assert set(c.items) == items, order
        assert c.justifications[key] == [justification], order
        assert recognized(c), order
    assert simulate(p, tokens).verdict == "yes"


def test_index_serves_f3_pairs_on_swapped_arcs():
    pop = T(("x", "y"), (), ("w",))
    items = SWAPPED_ARCS | {("t", 0, "w", 2)}
    pair = ("x", 1, "y", 2)
    just = ("F3", (("s", 0, "x", 1), pair), pop)
    assert_index_reason(swapped_into_x(pop), ["a", "b"], items, ("s", 0, "w", 2), just)


def test_index_serves_f7_walks_on_swapped_arcs():
    # A two-cell F7: the walk back from the cell (x, y) reads the arcs into
    # (x, 1) and keeps the one resting on s.
    pop = T(("s", "x", "y"), (), ("s", "w"))
    just = ("F7", (("s", 0, "x", 1), ("x", 1, "y", 2)), pop)
    assert_index_reason(swapped_into_x(pop), ["a", "b"], SWAPPED_ARCS, ("s", 0, "w", 2), just)


def test_index_serves_f6_pushes():
    # No symbol has pushes of its own, so every push here is an F6 one and
    # fires once per vertex.  The initial symbol is a bottom marker, so the
    # arc (s, 0, f, 2) accepts.
    reads_a, reads_b = T((), ("a",), ("x",)), T((), ("b",), ("y",))
    p = Pda(
        frozenset("ab"),
        frozenset("sxyf"),
        "s",
        "f",
        (reads_a, T(("x",), ("b",), ("f",)), reads_b),
        bottom_marker_start=True,
    )
    items = {(BOTTOM, 0, "s", 0), ("s", 0, "x", 1), ("x", 1, "y", 2), ("s", 0, "f", 2)}
    assert_index_reason(p, ["a", "b"], items, ("x", 1, "y", 2), ("F6", (), reads_b))


@given(RANDOM_GRAMMARS, st.lists(st.sampled_from("ab"), max_size=4))
def test_inferences_fire_once(rules, tokens):
    g = Grammar(tuple(rules), rules[0].lhs)
    aug = augment_start(g)
    assert_fires_once(lambda order: earley_parse(aug, tokens, agenda_order=order))
    machines = [compile_topdown(aug)]
    if is_cnf(g):
        machines.append(compile_bottomup(g))
    if not has_epsilon_rules(g):
        machines += [compile_lr(aug), binarize_reductions(compile_lr(aug))]
    for p in machines:
        assert_fires_once(lambda order: run_tabular(p, tokens, agenda_order=order))


# The ten transition shapes as (pop, read, push) over placeholders: `l` is a
# kept lower symbol or a first popped one, `p` and `q` are popped, `u` is
# pushed and `a` is read.
SHAPES = (
    ("p", "a", "pu"),  # F1
    ("p", "a", "u"),  # F2, bare
    ("lp", "a", "lu"),  # F2, full
    ("lp", "", "u"),  # F3
    ("p", "", "pu"),  # F4
    ("p", "", "u"),  # F5, bare
    ("lp", "", "lu"),  # F5, full
    ("", "a", "u"),  # F6
    ("lpq", "", "u"),  # F7, one push
    ("lpq", "", "lu"),  # F7, two pushes
)


@st.composite
def _transitions(draw):
    pop, read, push = draw(st.sampled_from(SHAPES))
    # Half the symbols are s, where every run starts, so that more of each
    # machine is reachable and symbols repeat within a transition.
    name = {c: draw(st.sampled_from("ssssxyzf")) for c in "lpqu"}
    name["a"] = draw(st.sampled_from("ab"))
    return Transition(*(tuple(name[c] for c in part) for part in (pop, read, push)))


def assert_agrees_with_simulation(p: Pda) -> set:
    """Run `p` on every input of up to three tokens and check the chart
    against `simulate`: its verdict, and a finite tree count against the
    number of runs.  Returns the inputs the chart recognizes."""
    q = len(p.stack_symbols)
    accepted = set()
    for n in range(4):
        for tokens in itertools.product("ab", repeat=n):
            c = assert_fires_once(lambda order: run_tabular(p, tokens, agenda_order=order))
            replay_justifications(c)
            assert len(c.items) <= q * q * (n + 1) * (n + 2) // 2
            result = simulate(p, tokens, max_steps=1_000, max_stack_depth=24)
            if result.verdict != "bound-exceeded":
                assert recognized(c) == (result.verdict == "yes")
            if recognized(c):
                accepted.add(tokens)
            # Runs never repeat a configuration, so cyclic forests compare
            # verdicts only, and so do machines `repeats` flags: two of
            # their inferences can make one forest step.
            if recognized(c) and not result.truncated and not _trigger_tables(p)[3]:
                counted = count_trees(build_forest_items(c))
                if not counted.infinite:
                    assert counted.value == len(result.runs)
    return accepted


@settings(max_examples=300, deadline=None)
@given(st.lists(_transitions(), min_size=2, max_size=9, unique=True))
def test_any_machine_agrees_with_simulation(transitions):
    # Random machines of every shape the engine runs, over stack symbols
    # s (initial) x y z f (final), on every input of up to three tokens.
    p = Pda(frozenset("ab"), frozenset("sxyzf"), "s", "f", tuple(transitions))
    assert_agrees_with_simulation(p)


READS = [shape for shape in SHAPES if shape[1]]
SHORTENS = [shape for shape in SHAPES if len(shape[0]) > len(shape[2])]
# Drawn runs push from more symbols than the noise transitions use, so
# that fewer of their steps close a cycle by accident.
RUN_SYMBOLS = "stuvwxyzfghk"


@st.composite
def _drawn_run(draw, tokens):
    """The transitions of one accepting run on `tokens`, each in one of the
    ten shapes and drawn to apply where the run stands: a few free steps,
    then reads to the end of the input, pops down to one symbol, and a swap
    to the final symbol f unless it is there already."""
    stack, i, steps = ("s",), 0, []

    def step(shapes, pushed=None):
        nonlocal stack, i
        fits = [sh for sh in shapes if len(sh[0]) <= len(stack) and (i < len(tokens) or not sh[1])]
        pop, read, push = draw(st.sampled_from(fits))
        name = dict(zip(pop, stack[len(stack) - len(pop) :]))
        name["u"] = pushed or draw(st.sampled_from(RUN_SYMBOLS))
        name["a"] = tokens[i] if read else None
        t = Transition(*(tuple(name[c] for c in part) for part in (pop, read, push)))
        stack = stack[: len(stack) - len(t.pop)] + t.push
        i += len(t.read)
        steps.append(t)

    for _ in range(draw(st.integers(0, 4))):
        step(SHAPES)
    while i < len(tokens):
        step(READS)
    while len(stack) > 1:
        step(SHORTENS)
    if stack != ("f",):
        step([("p", "", "u")], pushed="f")
    return steps


@st.composite
def _accepting_machine(draw):
    """An input and a machine built around two or three drawn runs on it,
    plus noise transitions of any shape."""
    tokens = tuple(draw(st.lists(st.sampled_from("ab"), max_size=3)))
    runs = draw(st.lists(_drawn_run(tokens), min_size=2, max_size=3))
    noise = draw(st.lists(_transitions(), max_size=4))
    transitions = dict.fromkeys([t for run in runs for t in run] + noise)
    return Pda(frozenset("ab"), frozenset(RUN_SYMBOLS), "s", "f", tuple(transitions)), tokens


@settings(max_examples=200, deadline=None)
@given(_accepting_machine())
def test_machines_drawn_to_accept_count_their_runs(drawn):
    # Counts on machines no compiler makes: each machine accepts its input
    # along the two or three runs it was drawn around, and often other
    # inputs too, so most examples compare tree counts, many above 1.
    p, tokens = drawn
    assert tokens in assert_agrees_with_simulation(p)


def assert_plain_entries(c, view):
    """Chart entries, justifications and antecedents are exact tuples, which
    the named item view reads back: saturation builds no named tuple per
    inference.  The positional pushes and predictions fire once per vertex,
    so no item has two justifications of one such tag.  Returns the tags
    seen."""
    tags = set()
    for item, justs in c.justifications.items():
        assert type(item) is tuple and view._make(item) == item
        positional = [just[0] for just in justs if just[0] in ("F1", "F4", "F6", "predict")]
        assert len(positional) == len(set(positional)), (item, positional)
        for just in justs:
            assert type(just) is tuple and type(just[1]) is tuple
            tags.add(just[0])
            for a in just[1]:
                assert type(a) is tuple and view._make(a) == a
    return tags


def test_chart_entries_are_plain_tuples(branching_pda, expr_grammar, sps_grammar, cnf_grammar):
    f6_machine = EDGE_MACHINES["f6-two-arcs-below"][0]
    expr = augment_start(expr_grammar)
    runs = [
        (branching_pda, "abcd"),
        (make_f7_machine(True), "abc"),
        (make_f7_machine(False), "abc"),
        (Pda(frozenset("ab"), frozenset("sxf"), "s", "f", tuple(f6_machine)), "ab"),
        (compile_topdown(expr), "a + a * a".split()),
        (compile_bottomup(cnf_grammar), "aabb"),
        (compile_lr(sps_grammar), "a + a + a".split()),
        (binarize_reductions(compile_lr(sps_grammar)), "a + a + a".split()),
    ]
    tags = set()
    kinds = set()
    for p, text in runs:
        tags |= assert_plain_entries(run_tabular(p, list(text)), Item)
        kinds.add(p.kind)
    assert kinds == {"pda", "topdown", "bottomup", "lr", "lr-binarized"}
    assert tags == {"axiom", "F1", "F2", "F3", "F4", "F5", "F6", "F7", "reduce", "accept"}
    earley = earley_parse(expr, "a + a * a".split())
    assert assert_plain_entries(earley, EarleyItem) == {"init", "predict", "scan", "complete"}


def test_trigger_tables_built_once_per_machine(expr_grammar, monkeypatch):
    # The LR machine's reduction entries are built with the other tables,
    # once per reduction.
    built = []
    pop_entries = Reduction.pop_entries
    monkeypatch.setattr(
        Reduction, "pop_entries", lambda red, bottom: built.append(red) or pop_entries(red, bottom)
    )
    expr = augment_start(expr_grammar)
    for p in (compile_topdown(expr), compile_lr(expr)):
        built.clear()
        first = run_tabular(p, "a + a".split())
        tables = p._triggers
        assert tables is not None
        assert built == list(p.reductions)
        again = run_tabular(p, "a + a".split())
        assert p._triggers is tables
        assert again.justifications == first.justifications
        assert recognized(again)
        assert built == list(p.reductions)


def test_equal_machines_get_equal_charts(expr_grammar):
    # A machine rebuilt from a compiled one's fields compares equal to it,
    # so it must get the same chart and agree with the simulator.
    p = compile_lr(augment_start(expr_grammar))
    q = Pda(
        p.input_alphabet,
        p.stack_symbols,
        p.initial,
        p.final,
        p.transitions,
        reductions=p.reductions,
        automaton=p.automaton,
        grammar=p.grammar,
        kind=p.kind,
    )
    assert p == q
    for text in ("a", "a + a", "a + a * a", "a +", "+ a"):
        toks = text.split()
        c = run_tabular(q, toks)
        assert list(c.justifications.items()) == list(run_tabular(p, toks).justifications.items())
        assert recognized(c) == (simulate(q, toks).verdict == "yes")


def test_mixed_families_fire_in_order():
    # All five push and swap families fire from the axiom on input "a",
    # declared in reverse; within a popped item they fire F1, F6, F4, F2, F5.
    transitions = (
        T(("s",), (), ("v",)),  # F5
        T(("s",), ("a",), ("w",)),  # F2
        T(("s",), (), ("s", "z")),  # F4
        T((), ("a",), ("y",)),  # F6
        T(("s",), ("a",), ("s", "x")),  # F1
    )
    p = Pda(frozenset("a"), frozenset("svwxyzf"), "s", "f", transitions)
    c = run_tabular(p, ["a"])
    assert list(c.items)[:6] == [
        (BOTTOM, 0, "s", 0),
        ("s", 0, "x", 1),
        ("s", 0, "y", 1),
        ("s", 0, "z", 0),
        (BOTTOM, 0, "w", 1),
        (BOTTOM, 0, "v", 0),
    ]
    tags = [justs[0][0] for justs in list(c.justifications.values())[1:6]]
    assert tags == ["F1", "F6", "F4", "F2", "F5"]


DEMO_GRAMMARS = Path(__file__).resolve().parents[1] / "demos/grammars"
CHART_GOLDEN = Path(__file__).resolve().parent / "golden/engine-charts.txt"
CHART_INPUTS = {
    "cnf.cfg": ("a a b b", "a b a", "b a"),
    "expr.cfg": ("a + a * a", "a * a", "a +"),
    "sps.cfg": ("a + a + a", "a", "+ a"),
}


def _render_chart(title, c, item_text, just_text):
    lines = [f"== {title}: {len(c.justifications)} items, fired {c.fired}"]
    for item, justs in c.justifications.items():
        lines.append(item_text(item))
        lines.extend(f"  {just_text(just)}" for just in justs)
    return lines


def _engine_just(just):
    tag, ants, via = just
    text = " ; ".join(str(Item._make(a)) for a in ants)
    return f"{tag} [{text}] {'-' if via is None else via}"


def _cky_just(just):
    j = CkyJustification._make(just)
    return f"{j.rule} split {j.split}"


def engine_chart_text():
    """Every engine chart of the demo grammars in chart order: each item,
    then its justifications in the order they were recorded."""
    lines = []
    for name, inputs in CHART_INPUTS.items():
        g = parse_grammar((DEMO_GRAMMARS / name).read_text(encoding="utf-8"))
        aug = augment_start(g)
        machines = {"topdown": compile_topdown(aug)}
        if is_cnf(g):
            machines["bottomup"] = compile_bottomup(g)
        machines["glr"] = compile_lr(aug)
        machines["glr-binarized"] = binarize_reductions(machines["glr"])
        for text in inputs:
            for alg, p in machines.items():
                for order in ("lifo", "fifo"):
                    c = run_tabular(p, text.split(), agenda_order=order)
                    title = f"{alg} {name} {text!r} {order}"
                    lines += _render_chart(title, c, lambda it: str(Item._make(it)), _engine_just)
            if is_cnf(g):
                c = cky_parse(g, text.split())
                lines += _render_chart(
                    f"cky {name} {text!r}",
                    c,
                    lambda key: "T[{0},{2}] {1}".format(*key),
                    _cky_just,
                )
    return "\n".join(lines) + "\n"


def test_engine_charts_golden():
    # Pins chart order, justification order and `fired` for every engine
    # machine and CKY: the engine's trigger tables and partner indexes may
    # change how partners are found, never the order in which they fire.
    assert engine_chart_text() == CHART_GOLDEN.read_text(encoding="utf-8")


EARLEY_GOLDEN = Path(__file__).resolve().parent / "golden/earley-charts.txt"


def _earley_just(just):
    tag, ants, token = just
    text = " ; ".join(str(EarleyItem._make(a)) for a in ants)
    return f"{tag} [{text}] {'-' if token is None else token}"


def earley_chart_text():
    """Every Earley chart of the demo grammars, lifo then fifo, in chart
    order: each item, then its justifications in the order they were
    recorded."""
    lines = []
    for name, inputs in CHART_INPUTS.items():
        aug = augment_start(parse_grammar((DEMO_GRAMMARS / name).read_text(encoding="utf-8")))
        for text in inputs:
            for order in ("lifo", "fifo"):
                c = earley_parse(aug, text.split(), agenda_order=order)
                title = f"earley {name} {text!r} {order}"
                lines += _render_chart(title, c, lambda it: str(EarleyItem._make(it)), _earley_just)
    return "\n".join(lines) + "\n"


def test_earley_charts_golden():
    # The same pin for `earley_parse`: its indexes and prediction lists may
    # change how partners are found, never the order in which they fire.
    assert earley_chart_text() == EARLEY_GOLDEN.read_text(encoding="utf-8")


def test_charts_keep_only_their_entries(expr_grammar, cnf_grammar):
    # Each saturation loop owns its agenda and search indexes; a chart keeps
    # only its tokens, its entries and its goal, all of them plain tuples,
    # and what the dumps read.  Recognition and `fired` are read off these,
    # each by one definition that all three chart classes share.
    aug, tokens = augment_start(expr_grammar), "a + a * a".split()
    core = {"tokens", "justifications", "items", "goal"}
    charts = [
        (run_tabular(compile_topdown(aug), tokens), {"pda"}, True),
        (run_tabular(compile_lr(aug), tokens[:2]), {"pda"}, False),
        (earley_parse(aug, tokens), {"grammar"}, True),
        (earley_parse(aug, tokens[:2]), {"grammar"}, False),
        (cky_parse(cnf_grammar, "aabb"), {"grammar", "cells"}, True),
        (cky_parse(cnf_grammar, ""), {"grammar", "cells"}, False),
    ]
    for c, extra, accepted in charts:
        assert set(vars(c)) == core | extra
        assert not any(hasattr(c, name) for name in ("agenda", "pop", "finish"))
        assert "agenda_order" not in inspect.signature(type(c)).parameters
        assert type(c.goal) is tuple and c.goal[-1] == len(c.tokens)
        assert recognized(c) == (c.goal in c.items) == accepted
        assert all(type(e) is tuple for e in c.justifications)
        assert all(type(j) is tuple for js in c.justifications.values() for j in js)
        assert c.fired == sum(map(len, c.justifications.values()))
        assert type(c).fired is Deduction.fired
    assert earley_recognized is cky_recognized is recognized
    assert {a.recognized for name, a in ALGORITHMS.items() if name != "naive"} == {recognized}
