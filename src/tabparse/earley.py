"""Agenda-driven recognition over dotted-rule items.

Items are (origin, dotted rule, end): the rule's consumed prefix derives
tokens origin..end and the whole rule was predicted at `origin`.  Agenda
and chart follow `engine.Deduction`, like the table engine's: a completion
fires when the second of its two partners is popped, whichever it is.

As in the engine, the chart stores plain tuples read by position: items
(origin, dotted, end) and justifications (tag, antecedents, token).
`EarleyItem` and `EarleyJustification` are named views of them that equal
and hash like the tuples; `EarleyItem._make(entry)` names an entry's fields,
and printing goes through the views.
"""

from __future__ import annotations

from collections import defaultdict
from typing import NamedTuple, Optional

from .engine import Deduction
from .grammar import Grammar, GrammarError
from .strategies import DottedRule


class EarleyItem(NamedTuple):
    """Named view of an Earley item, which the chart stores as a plain tuple."""

    origin: int
    dotted: DottedRule
    end: int

    def __str__(self) -> str:
        return f"( {self.origin} , {self.dotted} , {self.end} )"


class EarleyJustification(NamedTuple):
    """Named view of one way an Earley item was inferred."""

    tag: str  # "init" | "predict" | "scan" | "complete"
    antecedents: tuple[EarleyItem, ...]
    token: Optional[str]


class EarleyChart(Deduction):
    # Plain tuples, in the layouts of `EarleyItem` and `EarleyJustification`.
    justifications: dict[tuple, list[tuple]]

    def __init__(self, grammar: Grammar, tokens, agenda_order: str = "lifo"):
        super().__init__(tokens, agenda_order)
        self.grammar = grammar
        # Active items keyed by (their nonterminal goal, their end position);
        # completed items keyed by (their left-hand side, their origin).
        self.active_at: dict[tuple[str, int], list[tuple]] = defaultdict(list)
        self.completed_at: dict[tuple[str, int], list[tuple]] = defaultdict(list)

    def final_item(self) -> EarleyItem:
        (start_rule,) = self.grammar.start_rules()
        return EarleyItem(
            0, DottedRule(start_rule, len(start_rule.rhs)), len(self.tokens)
        )


def earley_parse(g: Grammar, tokens, agenda_order: str = "lifo") -> EarleyChart:
    c = EarleyChart(g, tokens, agenda_order)
    starts = g.start_rules()
    if len(starts) != 1:
        raise GrammarError(
            f"needs a single {g.start} rule; augment the grammar first"
        )
    tokens = c.tokens
    n = len(tokens)
    add = c.add
    active_at, completed_at = c.active_at, c.completed_at
    add((0, DottedRule(starts[0], 0), 0), ("init", (), None))

    nonterminals = g.nonterminals
    predicted: dict[str, list[DottedRule]] = {}  # nonterminal -> its rules, dot first
    for item in c.popped():
        origin, dotted, end = item
        goal = dotted.goal
        if goal is None:
            key = (dotted.rule.lhs, origin)
            completed_at[key].append(item)
            for active in active_at.get(key, ()):
                add((active[0], active[1].advance(), end), ("complete", (active, item), None))
        elif goal in nonterminals:
            active_at[(goal, end)].append(item)
            rules = predicted.get(goal)
            if rules is None:
                rules = predicted[goal] = [DottedRule(r, 0) for r in g.rules_for(goal)]
            for d in rules:
                add((end, d, end), ("predict", (item,), None))
            for done in completed_at.get((goal, end), ()):
                add((origin, dotted.advance(), done[2]), ("complete", (item, done), None))
        elif end < n and tokens[end] == goal:
            add((origin, dotted.advance(), end + 1), ("scan", (item,), goal))
    return c


def earley_recognized(c: EarleyChart) -> bool:
    return c.final_item() in c.items


def earley_ambiguous_final(c: EarleyChart) -> int:
    """How many completions derive the final item; 0 when unrecognized,
    more than 1 signals ambiguity detected without building any forest."""
    return sum(
        1
        for tag, _, _ in c.justifications.get(c.final_item(), ())
        if tag == "complete"
    )


def dump_matrix(c: EarleyChart) -> str:
    cells: dict[tuple[int, int], list[str]] = defaultdict(list)
    for origin, dotted, end in c.items:
        cells[(origin, end)].append(str(dotted))
    lines = []
    for j, i in sorted(cells):
        lines.append(f"T[{j},{i}]: " + ", ".join(sorted(cells[(j, i)])))
    return "\n".join(lines)
