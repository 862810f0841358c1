"""Agenda-driven recognition over dotted-rule items.

Items are (origin, dotted rule, end): the rule's consumed prefix derives
tokens origin..end and the whole rule was predicted at `origin`.  Agenda
and chart follow `engine.Deduction`, like the table engine's: a completion
fires when the second of its two partners is popped, whichever it is.
Prediction is positional: the rules predicted for B at i depend only on
(B, i), so they fire once, when the first item waiting for B at i is
popped, with the justification ("predict", (), None).  `fired` counts the
recorded justifications, one per inference.  The rules predicted for a
nonterminal are listed once per grammar (`PredictedRules`), on the first
parse that predicts it.

The loop files a popped item only where a completion looks it up: a
completed item by (its left-hand side, its origin), an item waiting for a
nonterminal by (that goal, its end).  An item waiting for a token is
scanned at once and filed nowhere.

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
        starts = grammar.start_rules()
        if len(starts) != 1:
            raise GrammarError(
                f"needs a single {grammar.start} rule; augment the grammar first"
            )
        axiom = (0, DottedRule(starts[0], 0), 0)
        super().__init__(tokens, axiom, ("init", (), None), agenda_order)
        self.grammar = grammar

    def final_item(self) -> EarleyItem:
        (start_rule,) = self.grammar.start_rules()
        return EarleyItem(
            0, DottedRule(start_rule, len(start_rule.rhs)), len(self.tokens)
        )


class PredictedRules(dict):
    """Nonterminal -> its rules with the dot first, in rule order: what
    Earley predicts for it.  One per grammar, kept on it and filled on
    first use, so repeated parses with one grammar build each list once and
    grammar setup builds none."""

    def __init__(self, g: Grammar):
        self.rules_for = g.rules_for

    def __missing__(self, goal: str) -> tuple[DottedRule, ...]:
        rules = self[goal] = tuple(DottedRule(r, 0) for r in self.rules_for(goal))
        return rules


def earley_parse(g: Grammar, tokens, agenda_order: str = "lifo") -> EarleyChart:
    """Saturate the Earley chart of `g` on `tokens`; see `engine.Deduction`
    for the insertion idiom and `agenda_order`."""
    c = EarleyChart(g, tokens, agenda_order)
    tokens = c.tokens
    n = len(tokens)
    justifications, agenda, pop = c.justifications, c.agenda, c.pop
    push = agenda.append
    # Popped active items by (their nonterminal goal, their end position);
    # popped completed items by (their left-hand side, their origin).
    active_at, completed_at = defaultdict(list), defaultdict(list)

    nonterminals = g.nonterminals
    predicted = g._predicted_rules
    if predicted is None:
        predicted = PredictedRules(g)
        object.__setattr__(g, "_predicted_rules", predicted)
    while agenda:
        item = pop()
        origin, dotted, end = item
        goal = dotted.goal
        if goal is None:
            key = (dotted.rule.lhs, origin)
            completed_at[key].append(item)
            for active in active_at.get(key, ()):
                new = (active[0], active[1].advance(), end)
                just = ("complete", (active, item), None)
                if new in justifications:
                    justifications[new].append(just)
                else:
                    justifications[new] = [just]
                    push(new)
        elif goal in nonterminals:
            waiting = active_at[(goal, end)]
            waiting.append(item)
            # Positional: the prediction depends only on (goal, end), so the
            # first item waiting there fires it, once per vertex.
            if len(waiting) == 1:
                just = ("predict", (), None)  # a constant: folded, not built
                for d in predicted[goal]:
                    new = (end, d, end)
                    if new in justifications:
                        justifications[new].append(just)
                    else:
                        justifications[new] = [just]
                        push(new)
            for done in completed_at.get((goal, end), ()):
                new = (origin, dotted.advance(), done[2])
                just = ("complete", (item, done), None)
                if new in justifications:
                    justifications[new].append(just)
                else:
                    justifications[new] = [just]
                    push(new)
        elif end < n and tokens[end] == goal:
            # Always new: its one predecessor is this item, and items pop once.
            new = (origin, dotted.advance(), end + 1)
            justifications[new] = [("scan", (item,), goal)]
            push(new)
    c.finish()
    return c


def earley_recognized(c: EarleyChart) -> bool:
    return c.final_item() in c.items


def earley_ambiguous_final(c: EarleyChart) -> int:
    """How many completions derive the final item; 0 when unrecognized.
    Above 1 proves the input ambiguous without building any forest; 1 does
    not prove it unambiguous, since trees may differ below the last step."""
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
