import pytest
from hypothesis import given
from hypothesis import strategies as st

from tabparse.engine import BOTTOM, Item, run_tabular
from tabparse.grammar import Grammar, GrammarError, Rule, augment_start, parse_grammar
from tabparse.lr import (
    FINAL,
    AuxSymbol,
    LrState,
    Predictions,
    Reduction,
    binarize_reductions,
    build_lr_automaton,
    closure,
    compile_lr,
    dump_automaton,
)
from tabparse.pda import simulate
from tabparse.strategies import DottedRule


def dr(g, lhs, rhs, dot):
    return DottedRule(Rule(lhs, rhs), dot)


def test_closure_pulls_in_predictions(sps_grammar):
    g = sps_grammar
    start = frozenset({dr(g, "S", ("S", "+", "S"), 0)})
    clo = closure(g, start)
    assert clo == {
        dr(g, "S", ("S", "+", "S"), 0),
        dr(g, "S", ("a",), 0),
    }


def test_initial_state_closes_the_start_prediction(sps_grammar, expr_grammar):
    for g in (sps_grammar, expr_grammar):
        start = frozenset(g.predicted[g.start])
        assert build_lr_automaton(g).states[0].items == closure(g, start)


def test_automaton_structure(sps_grammar):
    auto = build_lr_automaton(sps_grammar)
    items = [
        {d for d in s.items} for s in auto.states
    ]
    g = sps_grammar
    assert items == [
        {dr(g, "S", ("S", "+", "S"), 0), dr(g, "S", ("a",), 0)},
        {dr(g, "S", ("S", "+", "S"), 1)},
        {dr(g, "S", ("a",), 1)},
        {
            dr(g, "S", ("S", "+", "S"), 2),
            dr(g, "S", ("S", "+", "S"), 0),
            dr(g, "S", ("a",), 0),
        },
        {dr(g, "S", ("S", "+", "S"), 3), dr(g, "S", ("S", "+", "S"), 1)},
    ]
    assert {(q.id, x): t.id for (q, x), t in auto.goto_map.items()} == {
        (0, "S"): 1,
        (0, "a"): 2,
        (1, "+"): 3,
        (3, "S"): 4,
        (3, "a"): 2,
        (4, "+"): 3,
    }


def test_goto_state_guards(sps_grammar):
    auto = build_lr_automaton(sps_grammar)
    assert auto.goto_state(auto.states[0], "S") is auto.states[1]
    assert auto.goto_state(auto.states[0], "+") is None
    # non-state stack symbols (bottom marker, aux cells) have no successors
    assert auto.goto_state(FINAL, "S") is None
    assert auto.goto_state(BOTTOM, "S") is None
    p = binarize_reductions(compile_lr(sps_grammar))
    aux = next(s for s in p.stack_symbols if isinstance(s, AuxSymbol))
    assert p.automaton.goto_state(aux, "S") is None


def test_rejects_epsilon_rules():
    with pytest.raises(GrammarError, match="empty rules"):
        build_lr_automaton(parse_grammar("S -> a\nS ->"))


def test_compiled_machine(sps_grammar):
    p = compile_lr(sps_grammar)
    assert p.kind == "lr"
    assert p.final is FINAL
    assert len(p.transitions) == 4  # shifts only
    assert all(len(t.read) == 1 for t in p.transitions)
    reds = {(red.state.id, str(red.rule)) for red in p.reductions}
    assert reds == {(2, "S -> a"), (4, "S -> S + S")}


@pytest.mark.parametrize(
    "text, verdict",
    [
        ("a", "yes"),
        ("a + a", "yes"),
        ("a + a + a", "yes"),
        ("", "no"),
        ("a +", "no"),
        ("+ a", "no"),
        ("a a", "no"),
    ],
)
def test_simulation_with_lazy_reductions(sps_grammar, text, verdict):
    p = compile_lr(sps_grammar)
    assert simulate(p, text.split()).verdict == verdict


def test_binarized_machine(sps_grammar):
    p = binarize_reductions(compile_lr(sps_grammar))
    assert p.kind == "lr-binarized"
    assert p.reductions == ()
    assert len(p.transitions) == 13
    assert all(len(t.pop) <= 2 for t in p.transitions)
    assert any(isinstance(s, AuxSymbol) for s in p.stack_symbols)
    for text in ["a", "a + a", "a + a + a", "", "a +", "+ a", "a a"]:
        want = simulate(compile_lr(sps_grammar), text.split()).verdict
        assert simulate(p, text.split()).verdict == want


def test_binarize_requires_compiler_output(branching_pda):
    with pytest.raises(ValueError, match="shift-reduce"):
        binarize_reductions(branching_pda)


def test_minimal_grammar():
    p = compile_lr(parse_grammar("S -> a"))
    auto = p.automaton
    assert len(auto.states) == 2
    assert simulate(p, ["a"]).verdict == "yes"
    assert simulate(p, []).verdict == "no"
    assert simulate(p, ["a", "a"]).verdict == "no"


def test_expr_grammar_states(expr_grammar):
    auto = build_lr_automaton(expr_grammar)
    assert len(auto.states) == 7
    p = compile_lr(expr_grammar)
    for text, want in [("a", "yes"), ("a + a * a", "yes"), ("a *", "no")]:
        assert simulate(p, text.split()).verdict == want
        assert simulate(binarize_reductions(p), text.split()).verdict == want


def test_dump_automaton(sps_grammar):
    text = dump_automaton(build_lr_automaton(sps_grammar))
    lines = text.splitlines()
    assert lines[0] == "state 0:"
    assert lines[1] == "  S -> . S + S"
    assert lines[2] == "  S -> . a"
    assert "goto(0, S) = 1" in lines
    assert "goto(4, +) = 3" in lines
    assert sum(1 for l in lines if l.startswith("goto")) == 6


def test_state_str():
    s = LrState(3, frozenset())
    assert str(s) == "q3" and repr(s) == "q3"


def test_reduction_str(sps_grammar):
    p = compile_lr(sps_grammar)
    red = next(r for r in p.reductions if r.rule.rhs == ("a",))
    assert str(red) == "q2 , S -> a"


def test_larger_family_builds():
    # nested lists with two kinds of brackets; just exercise construction
    g = parse_grammar(
        "S -> L\n"
        "L -> ( L )\n"
        "L -> [ L ]\n"
        "L -> x\n"
        "L -> L L\n"
    )
    p = compile_lr(g)
    assert simulate(p, "( x )".split()).verdict == "yes"
    assert simulate(p, "( [ x ] x )".split()).verdict == "yes"
    assert simulate(p, "( x".split()).verdict == "no"
    b = binarize_reductions(p)
    assert simulate(b, "[ x ] ( x )".split()).verdict == "yes"


# Small grammars without empty rules: few symbols, so automata share states
# and arcs between several reductions and right-hand-side positions.
_RULES = st.lists(
    st.builds(
        Rule,
        st.sampled_from("SAB"),
        st.lists(st.sampled_from("SABab"), min_size=1, max_size=3).map(tuple),
    ),
    min_size=1,
    max_size=6,
    unique=True,
)


@given(_RULES)
def test_reduction_index_matches_brute_force(rules):
    # Arc (q, t) can be the k-th popped cell of a reduction when goto takes
    # q to t over the k-th symbol and on from t over the rest of the
    # right-hand side into the reduction's own state.  Its reduce entry maps
    # every state the right-hand side leads from into the reduction's state
    # to that state's goto on the left-hand side; a start rule that the
    # initial state reaches accepts, through the initial state onto BOTTOM.
    p = compile_lr(Grammar(tuple(rules), rules[0].lhs))
    auto = p.automaton
    initial = auto.states[0]

    def walk(state, symbols):
        for sym in symbols:
            state = auto.goto_state(state, sym)
        return state

    want, want_accept = {}, {}
    for q in auto.states:
        for t in auto.states:
            fits = [
                (red, k)
                for red in p.reductions
                for k in range(1, len(red.rule.rhs) + 1)
                if auto.goto_state(q, red.rule.rhs[k - 1]) == t
                and walk(t, red.rule.rhs[k:]) == red.state
            ]
            if fits:
                want[(q, t)] = fits
            accepts = [
                (red, k)
                for red, k in fits
                if red.rule.lhs == p.grammar.start
                and walk(initial, red.rule.rhs) == red.state
                and (k > 1 or q == initial)
            ]
            if accepts:
                want_accept[(q, t)] = accepts
    got, got_accept = {}, {}
    for red in p.reductions:
        gotos = {
            q: auto.goto_state(q, red.rule.lhs)
            for q in auto.states
            if walk(q, red.rule.rhs) == red.state
            and auto.goto_state(q, red.rule.lhs) is not None
        }
        for arc, (uppers, lowers, tag, via, tops) in red.pop_entries(BOTTOM):
            assert via is red
            k = len(red.rule.rhs) - len(uppers)
            if tag == "reduce":
                assert lowers == (None,) * (k - 1)
                assert tops == gotos
                got.setdefault(arc, []).append((red, k))
            else:
                assert tag == "accept"
                assert got[arc][-1] == (red, k)  # right after its reduce entry
                down = (None,) * (k - 2) + (initial, BOTTOM) if k > 1 else (BOTTOM,)
                assert lowers == down
                assert tops == {BOTTOM: FINAL}
                got_accept.setdefault(arc, []).append((red, k))
    assert got == want
    assert got_accept == want_accept
    assert binarize_reductions(p).reductions == ()


def _fixpoint_closure(g, items):
    """Closure read off the rule list alone: add A -> . gamma for the symbol
    A right of some item's dot until nothing new comes in."""
    out = set(items)
    while True:
        more = {
            DottedRule(r, 0)
            for d in out
            if d.dot < len(d.rule.rhs)
            for r in g.rules
            if r.lhs == d.rule.rhs[d.dot]
        }
        if more <= out:
            return frozenset(out)
        out |= more


# Empty and cyclic rules included: `closure` accepts what `compile_lr` rejects.
_ANY_RULES = st.lists(
    st.builds(
        Rule,
        st.sampled_from("SAB"),
        st.lists(st.sampled_from("SABab"), max_size=3).map(tuple),
    ),
    min_size=1,
    max_size=6,
    unique=True,
)


@given(_ANY_RULES, st.data())
def test_closure_is_the_prediction_fixpoint(rules, data):
    # One prediction table serves every kernel of a grammar, as it does in
    # the automaton construction; each closure is still the fixpoint.
    g = Grammar(tuple(rules), rules[0].lhs)
    dotted = [DottedRule(r, dot) for r in g.rules for dot in range(len(r.rhs) + 1)]
    kernels = data.draw(st.lists(st.frozensets(st.sampled_from(dotted), max_size=4), max_size=4))
    predicts = Predictions(g)
    for kernel in kernels:
        assert closure(g, kernel, predicts) == _fixpoint_closure(g, kernel)
        assert closure(g, kernel) == _fixpoint_closure(g, kernel)


def _reference_automaton(g):
    """The breadth-first construction that closes the kernel of every
    (state, symbol) pair, symbols in first-occurrence order: item sets in
    id order and goto pairs read by id."""
    order = list(dict.fromkeys(s for r in g.rules for s in (r.lhs, *r.rhs)))
    init = _fixpoint_closure(g, frozenset(DottedRule(r, 0) for r in g.start_rules()))
    ids = {init: 0}
    states = [init]
    goto = {}
    queue = [init]
    while queue:
        items = queue.pop(0)
        for sym in order:
            kernel = {d.advance() for d in items if d.goal == sym}
            if not kernel:
                continue
            target = _fixpoint_closure(g, kernel)
            if target not in ids:
                ids[target] = len(states)
                states.append(target)
                queue.append(target)
            goto[(ids[items], sym)] = ids[target]
    return states, goto


@given(_RULES)
def test_automaton_matches_reference_construction(rules):
    g = augment_start(Grammar(tuple(rules), rules[0].lhs))
    auto = build_lr_automaton(g)
    states, goto = _reference_automaton(g)
    assert [s.items for s in auto.states] == states
    assert [s.id for s in auto.states] == list(range(len(states)))
    # in order too: compile_lr and dump_automaton list the map as it stands
    assert [((q.id, x), t.id) for (q, x), t in auto.goto_map.items()] == list(goto.items())


# Un-augmented, so a start rule's reduction both reduces and accepts: the
# chart order, item by item with the tags of its justifications, as the
# engine derived it when acceptance was a branch of the reduction step.
SPS_GLR_CHART = """\
( bot , 0 , q0 , 0 ) axiom
( q0 , 0 , q2 , 1 ) F1
( q0 , 0 , q1 , 1 ) reduce
( bot , 0 , q_final , 1 ) accept
( q1 , 1 , q3 , 2 ) F1
( q3 , 2 , q2 , 3 ) F1
( q3 , 2 , q4 , 3 ) reduce
( q4 , 3 , q3 , 4 ) F1
( q0 , 0 , q1 , 3 ) reduce
( bot , 0 , q_final , 3 ) accept
( q1 , 3 , q3 , 4 ) F1
( q3 , 4 , q2 , 5 ) F1
( q3 , 4 , q4 , 5 ) reduce
( q0 , 0 , q1 , 5 ) reduce reduce
( bot , 0 , q_final , 5 ) accept accept
( q3 , 2 , q4 , 5 ) reduce
"""

SS_GLR_CHART = """\
( bot , 0 , q0 , 0 ) axiom
( q0 , 0 , q2 , 1 ) F1
( q0 , 0 , q1 , 1 ) reduce
( bot , 0 , q_final , 1 ) accept
( q1 , 1 , q2 , 2 ) F1
( q1 , 1 , q3 , 2 ) reduce
( q3 , 2 , q2 , 3 ) F1
( q0 , 0 , q1 , 2 ) reduce
( bot , 0 , q_final , 2 ) accept
( q1 , 2 , q2 , 3 ) F1
( q1 , 2 , q3 , 3 ) reduce
( q0 , 0 , q1 , 3 ) reduce reduce
( bot , 0 , q_final , 3 ) accept accept
( q3 , 2 , q3 , 3 ) reduce
( q1 , 1 , q3 , 3 ) reduce
"""


@pytest.mark.parametrize(
    "text, tokens, want",
    [
        ("S -> S + S\nS -> a\n", "a + a + a", SPS_GLR_CHART),
        ("S -> S S\nS -> a\n", "a a a", SS_GLR_CHART),
    ],
    ids=["sps", "ss"],
)
def test_glr_chart_order_where_start_rule_reduces_and_accepts(text, tokens, want):
    c = run_tabular(compile_lr(parse_grammar(text)), tokens.split())
    got = "".join(
        f"{Item._make(item)} {' '.join(tag for tag, _, _ in justs)}\n"
        for item, justs in c.justifications.items()
    )
    assert got == want
