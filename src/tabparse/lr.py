"""Shift-reduce automata and their stack machines.

States are sets of the grammar's dotted rules (`grammar.DottedRule`) closed
over `Grammar.predicted` through left corners, and the automaton is one
goto map from (state, symbol) to state, built one state at a time; the
shifts and the reductions read that map.  The compiled machine keeps one
state per stack cell; shifting reads a token and pushes the successor
state, and a reduction pops one cell per right-hand-side symbol before
pushing the goto of the uncovered state.  Reductions pop unboundedly many
cells, so they are kept as lazy `Reduction`s (state, rule), which expand
themselves on demand: against a concrete stack for the simulator, and into
entries keyed by the goto arcs they pop for the table engine's multi-pop
table.  Neither layer reads the automaton.  `binarize_reductions` rewrites
them into bounded transitions for engines that want none of that laziness."""

from __future__ import annotations

from collections import defaultdict
from typing import NamedTuple, Optional

from .grammar import DottedRule, Grammar, GrammarError, Rule, has_epsilon_rules
from .pda import Interned, Marker, Pda, Transition

FINAL = Marker("q_final")


class LrState(Interned):
    """An automaton state: its id, by discovery, and its items."""

    __slots__ = ("id", "items")
    id: int
    items: frozenset[DottedRule]

    def __str__(self) -> str:
        return f"q{self.id}"

    __repr__ = __str__


class LrAutomaton:
    def __init__(self, grammar: Grammar, states, goto_map):
        self.grammar = grammar
        self.states: tuple[LrState, ...] = tuple(states)
        # (state, symbol) -> successor state, in construction order: states
        # by id, then symbols in first-occurrence order.
        self.goto_map: dict[tuple[LrState, str], LrState] = dict(goto_map)
        # (state, symbol) -> states whose goto on symbol is that state
        self.sources: dict[tuple[LrState, str], list[LrState]] = defaultdict(list)
        for (source, sym), target in self.goto_map.items():
            self.sources[(target, sym)].append(source)

    def goto_state(self, state, symbol) -> Optional[LrState]:
        """Successor state, or None when undefined; stack symbols that are
        no state (markers, aux cells) have no successors."""
        return self.goto_map.get((state, symbol))


class Reduction(NamedTuple("StateRule", [("state", LrState), ("rule", Rule)])):
    """Lazy stand-in for the pop-heavy transitions of a completed rule.  It
    compares, hashes and prints as (state, rule) and keeps its automaton, so
    what it pops and leaves is defined here once: the simulator (`expand`),
    the engine (`pop_entries`) and the binarizer all take it from here."""

    def __new__(cls, state: LrState, rule: Rule, automaton: LrAutomaton):
        self = super().__new__(cls, state, rule)
        self.automaton = automaton
        return self

    def __str__(self) -> str:
        return f"{self.state} , {self.rule}"

    def leaves(self, q0) -> list[tuple]:
        """What replaces the popped chain when it uncovers state q0: (q0,
        goto(q0, lhs)), and (final,) when the start rule is reduced from the
        initial state."""
        auto, lhs = self.automaton, self.rule.lhs
        target = auto.goto_state(q0, lhs)
        tails = [] if target is None else [(q0, target)]
        if q0 == auto.states[0] and lhs == auto.grammar.start:
            tails.append((FINAL,))
        return tails

    def expand(self, stack: tuple):
        """The stacks it turns a simulator stack into.  Every goto chain into
        its state spells the right-hand side (LR(0) states have one accessing
        symbol), so only the top cell and the uncovered state are read."""
        m = len(self.rule.rhs)
        if len(stack) > m and stack[-1] == self.state:
            for tail in self.leaves(stack[-m - 1]):
                yield stack[: -m - 1] + tail

    def pop_entries(self, bottom):
        """The table engine's multi-pop entries (arc, (uppers, lowers, tag,
        self, tops)), one per goto arc that can be the k-th popped cell, k
        ascending; `tops` maps the lower symbol of the path's first cell to
        what the consequent pushes.  When the reduction accepts, an accept
        entry follows each reduce entry; its path takes one more cell, from
        the initial state down onto `bottom`."""
        auto, rhs, m = self.automaton, self.rule.rhs, len(self.rule.rhs)
        chain, initial = chain_states(auto, self), auto.states[0]
        gotos = {q0: t[1] for q0 in chain[0] for t in self.leaves(q0) if len(t) == 2}
        accepts = initial in chain[0] and (FINAL,) in self.leaves(initial)
        for k in range(1, m + 1):
            uppers = (None,) * (m - k - 1) + (self.state,) if k < m else ()
            lowers = (None,) * (k - 1)
            for upper in chain[k]:
                for lower in auto.sources.get((upper, rhs[k - 1]), ()):
                    yield (lower, upper), (uppers, lowers, "reduce", self, gotos)
                    if accepts and (k > 1 or lower == initial):
                        down = lowers[:-1] + (initial, bottom) if k > 1 else (bottom,)
                        yield (lower, upper), (uppers, down, "accept", self, {bottom: FINAL})


class AuxSymbol(Interned):
    """Intermediate stack symbol of a binarized reduction: `remaining` more
    right-hand-side cells are still to be popped for `rule`."""

    __slots__ = ("rule", "remaining")
    rule: Rule
    remaining: int

    def __str__(self) -> str:
        return f"[{self.rule}; {self.remaining}]"


class Predictions(dict):
    """Goal -> the initial items of every rule reachable from it through left
    corners in `Grammar.predicted`, itself included: what closing adds for
    an item with that goal.  One per automaton, filled on first use, so it
    pays only for the goals its kernels name; a terminal predicts nothing."""

    def __init__(self, g: Grammar):
        self.predicted = g.predicted

    def __missing__(self, goal: str) -> frozenset[DottedRule]:
        predicted, reach, seen = self.predicted, [goal], {goal}
        for nt in reach:  # grows while walked; None, an empty rule's goal, reaches nothing
            for d in predicted.get(nt, ()):
                if d.goal not in seen:
                    seen.add(d.goal)
                    reach.append(d.goal)
        self[goal] = frozenset(d for nt in reach for d in predicted.get(nt, ()))
        return self[goal]


def closure(g: Grammar, items: frozenset[DottedRule], predicts=None) -> frozenset[DottedRule]:
    """The items plus the prediction sets of their goals (Aho, Sethi &
    Ullman 1986, section 4.7), read from `g`'s table `predicts` if given."""
    predicts = Predictions(g) if predicts is None else predicts
    out = set(items)
    for d in items:
        if d.goal is not None:
            out |= predicts[d.goal]
    return frozenset(out)


def build_lr_automaton(g: Grammar) -> LrAutomaton:
    """Deterministic construction: breadth-first from the start closure,
    state ids by discovery.  One pass over a state's items groups the
    advanced items by the symbol after the dot; the groups are closed in
    first-occurrence symbol order, so no empty kernel is ever closed.  A
    closure adds only initial items, so a kernel names its state and is closed once."""
    if has_epsilon_rules(g):
        raise GrammarError("shift-reduce compilation does not support empty rules")
    symbols = dict.fromkeys(sym for rule in g.rules for sym in (rule.lhs, *rule.rhs))
    rank = {sym: i for i, sym in enumerate(symbols)}
    predicts = Predictions(g)
    start = frozenset(g.predicted[g.start])
    states = [LrState(0, closure(g, start, predicts))]
    by_kernel = {start: states[0]}
    goto_map: dict[tuple[LrState, str], LrState] = {}
    for state in states:  # grows while walked: the breadth-first queue
        kernels: dict[str, set[DottedRule]] = defaultdict(set)
        for d in state.items:
            if d.goal is not None:
                kernels[d.goal].add(d.advance())
        for sym in sorted(kernels, key=rank.__getitem__):
            kernel = frozenset(kernels[sym])
            target = by_kernel.get(kernel)
            if target is None:
                target = LrState(len(states), closure(g, kernel, predicts))
                by_kernel[kernel] = target
                states.append(target)
            goto_map[(state, sym)] = target
    return LrAutomaton(g, states, goto_map)


def chain_states(auto: LrAutomaton, red: Reduction) -> list[set[LrState]]:
    """possible[k]: the states that may sit at position k of a chain the
    reduction pops, found by walking the goto map backwards from its own
    state at position m = len(rhs); position 0 is the uncovered state."""
    possible = [{red.state}]
    for sym in reversed(red.rule.rhs):
        possible.append(
            {q for t in possible[-1] for q in auto.sources.get((t, sym), ())}
        )
    return possible[::-1]


def compile_lr(g: Grammar) -> Pda:
    auto = build_lr_automaton(g)
    terminals = g.terminals
    transitions = [
        Transition((state,), (sym,), (state, target))
        for (state, sym), target in auto.goto_map.items()
        if sym in terminals
    ]
    done = [(rule, DottedRule(rule, len(rule.rhs))) for rule in g.rules]
    reductions = [Reduction(q, r, auto) for q in auto.states for r, d in done if d in q.items]
    return Pda(
        input_alphabet=frozenset(terminals),
        stack_symbols=frozenset(auto.states) | {FINAL},
        initial=auto.states[0],
        final=FINAL,
        transitions=tuple(transitions),
        reductions=tuple(reductions),
        automaton=auto,
        grammar=g,
        completes={red: red.rule for red in reductions},
        kind="lr",
    )


def binarize_reductions(p: Pda) -> Pda:
    """Expand lazy reductions into transitions popping at most two cells.

    A reduction of A -> X1 .. Xm from state q_m pops m cells and pushes
    goto(q0, A) where q0 is the state left uncovered.  The expansion pops
    the cells one at a time, threading an auxiliary symbol that records the
    rule and the number of cells still owed; the states that may legally
    appear at each chain position are precomputed by walking the goto map
    backwards, so no spurious transition is ever emitted.  Only the
    finishing steps, the reduction's `leaves`, complete the rule.  A machine
    with no lazy reductions left comes back as it is.
    """
    auto: LrAutomaton = p.automaton
    if auto is None or p.grammar is None:
        raise ValueError("can only binarize a machine built by the shift-reduce compiler")
    if not p.reductions:
        return p
    g = p.grammar
    transitions = dict.fromkeys(p.transitions)  # an ordered set
    completes, owing = {}, []
    for red in p.reductions:
        top = red.state
        possible = chain_states(auto, red)
        # Pop the cells above position 0 one at a time, top first, over
        # states in id order.
        for k in range(len(red.rule.rhs) - 1, 0, -1):
            owed = AuxSymbol(red.rule, k - 1)
            owing.append(owed)
            for q in sorted(possible[k], key=lambda q: q.id):
                transitions[Transition((q, top), (), (owed,))] = None
            top = owed
        for q0 in sorted(possible[0], key=lambda q: q.id):
            for tail in red.leaves(q0):
                t = Transition((q0, top), (), tail)
                transitions[t] = None
                completes[t] = red.rule

    return Pda(
        input_alphabet=p.input_alphabet,
        stack_symbols=p.stack_symbols.union(owing),
        initial=p.initial,
        final=p.final,
        transitions=tuple(transitions),
        reductions=(),
        automaton=auto,
        grammar=g,
        completes=completes,
        kind="lr-binarized",
    )


def dump_automaton(auto: LrAutomaton) -> str:
    g = auto.grammar
    rule_pos = {rule: i for i, rule in enumerate(g.rules)}
    lines = []
    for state in auto.states:
        lines.append(f"state {state.id}:")
        for d in sorted(state.items, key=lambda d: (rule_pos[d.rule], d.dot)):
            lines.append(f"  {d}")
    for (state, sym), target in auto.goto_map.items():
        lines.append(f"goto({state.id}, {sym}) = {target.id}")
    return "\n".join(lines)
