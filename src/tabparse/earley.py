"""Agenda-driven recognition over dotted-rule items.

Items are (origin, dotted rule, end): the rule's consumed prefix derives
tokens origin..end and the whole rule was predicted at `origin`.  Agenda
and chart follow `engine.Deduction`, like the table engine's: a completion
fires when the second of its two partners is popped, whichever it is.
"""

from __future__ import annotations

from collections import defaultdict
from typing import NamedTuple, Optional

from .engine import Deduction
from .grammar import Grammar, GrammarError
from .strategies import DottedRule


class EarleyItem(NamedTuple):
    origin: int
    dotted: DottedRule
    end: int

    def __str__(self) -> str:
        return f"( {self.origin} , {self.dotted} , {self.end} )"


class EarleyJustification(NamedTuple):
    tag: str  # "init" | "predict" | "scan" | "complete"
    antecedents: tuple[EarleyItem, ...]
    token: Optional[str]


class EarleyChart(Deduction):
    justifications: dict[EarleyItem, list[EarleyJustification]]

    def __init__(self, grammar: Grammar, tokens, agenda_order: str = "lifo"):
        super().__init__(tokens, agenda_order)
        self.grammar = grammar
        # Active items keyed by (their nonterminal goal, their end position);
        # completed items keyed by (their left-hand side, their origin).
        self.active_at: dict[tuple[str, int], list[EarleyItem]] = defaultdict(list)
        self.completed_at: dict[tuple[str, int], list[EarleyItem]] = defaultdict(list)

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
    add(
        EarleyItem(0, DottedRule(starts[0], 0), 0),
        EarleyJustification("init", (), None),
    )

    nonterminals = g.nonterminals
    for item in c.popped():
        goal = item.dotted.goal
        if goal is None:
            key = (item.dotted.rule.lhs, item.origin)
            c.completed_at[key].append(item)
            for active in c.active_at.get(key, ()):
                add(
                    EarleyItem(active.origin, active.dotted.advance(), item.end),
                    EarleyJustification("complete", (active, item), None),
                )
        elif goal in nonterminals:
            c.active_at[(goal, item.end)].append(item)
            for rule in g.rules_for(goal):
                add(
                    EarleyItem(item.end, DottedRule(rule, 0), item.end),
                    EarleyJustification("predict", (item,), None),
                )
            for done in c.completed_at.get((goal, item.end), ()):
                add(
                    EarleyItem(item.origin, item.dotted.advance(), done.end),
                    EarleyJustification("complete", (item, done), None),
                )
        else:
            if item.end < n and tokens[item.end] == goal:
                add(
                    EarleyItem(item.origin, item.dotted.advance(), item.end + 1),
                    EarleyJustification("scan", (item,), goal),
                )
    return c


def earley_recognized(c: EarleyChart) -> bool:
    return c.final_item() in c.items


def earley_ambiguous_final(c: EarleyChart) -> int:
    """How many completions derive the final item; 0 when unrecognized,
    more than 1 signals ambiguity detected without building any forest."""
    return sum(
        1
        for j in c.justifications.get(c.final_item(), ())
        if j.tag == "complete"
    )


def dump_matrix(c: EarleyChart) -> str:
    cells: dict[tuple[int, int], list[str]] = defaultdict(list)
    for item in c.items:
        cells[(item.origin, item.end)].append(str(item.dotted))
    lines = []
    for j, i in sorted(cells):
        lines.append(f"T[{j},{i}]: " + ", ".join(sorted(cells[(j, i)])))
    return "\n".join(lines)
