"""Compile grammars into stack machines.

Two classic strategies.  The goal-driven one keeps dotted rules on the stack
and expands the topmost goal before reading, pushing the rules the grammar
predicts for it (`Grammar.predicted`); the data-driven one shifts phrase
labels and replaces completed right-hand sides.  Both produce plain
machines that the simulator and the table engine consume without knowing
which strategy built them.  Dotted rules are the grammar's own
(`grammar.DottedRule`), shared with Earley and the shift-reduce compiler.
"""

from __future__ import annotations

from .grammar import DottedRule, Grammar, GrammarError, is_cnf
from .pda import Marker, Pda, Transition


def dotted_rules(g: Grammar):
    for rule in g.rules:
        for dot in range(len(rule.rhs) + 1):
            yield DottedRule(rule, dot)


def compile_topdown(g: Grammar) -> Pda:
    """Goal-driven machine over dotted rules.

    The topmost stack symbol is the rule instance being worked on.  A
    nonterminal goal is expanded by pushing a fresh dotted rule on top
    (keeping the parent), a terminal goal is read off the input, and a
    completed rule is popped together with its parent, advancing the parent
    over the goal it predicted.
    """
    start_rule = g.start_rule
    symbols = tuple(dotted_rules(g))
    pushes, reads, pops = [], [], []
    for d in symbols:
        goal = d.goal
        if goal in g.terminals:
            reads.append(Transition((d,), (goal,), (d.advance(),)))
        elif goal is not None:
            for sub in g.predicted[goal]:
                pushes.append(Transition((d,), (), (d, sub)))
                done = DottedRule(sub.rule, len(sub.rule.rhs))
                pops.append(Transition((d, done), (), (d.advance(),)))
    # The simulator tries transitions in machine order: predictions first.
    transitions = pushes + reads + pops
    # A step completes the rule it leaves complete on top; the axiom does
    # when the start rule is empty.
    completes = {t: t.push[-1].rule for t in transitions if t.push[-1].is_complete}
    if not start_rule.rhs:
        completes[None] = start_rule
    return Pda(
        input_alphabet=frozenset(g.terminals),
        stack_symbols=frozenset(symbols),
        initial=DottedRule(start_rule, 0),
        final=DottedRule(start_rule, len(start_rule.rhs)),
        transitions=tuple(transitions),
        grammar=g,
        completes=completes,
        kind="topdown",
    )


def compile_bottomup(g: Grammar) -> Pda:
    """Data-driven machine for grammars in Chomsky normal form.

    Stack symbols are the nonterminals themselves.  Reading a token pushes
    the label of a matching lexical rule without popping anything; a binary
    rule replaces its two children on top of the stack by its left-hand
    side.  The start symbol sits on an imaginary bottom marker that nothing
    ever pops.
    """
    if not is_cnf(g):
        raise GrammarError("data-driven compilation needs Chomsky normal form")
    bottom = Marker("bot^")
    completes = {}  # every transition completes its rule
    for rule in g.rules:
        if len(rule.rhs) == 1:
            completes[Transition((), (rule.rhs[0],), (rule.lhs,))] = rule
    for rule in g.rules:
        if len(rule.rhs) == 2:
            completes[Transition(tuple(rule.rhs), (), (rule.lhs,))] = rule
    return Pda(
        input_alphabet=frozenset(g.terminals),
        stack_symbols=frozenset(g.nonterminals) | {bottom},
        initial=bottom,
        final=g.start,
        transitions=tuple(completes),
        grammar=g,
        completes=completes,
        bottom_marker_start=True,
        kind="bottomup",
    )
