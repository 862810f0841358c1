"""Agenda-driven recognition over dotted-rule items.

Items are (origin, dotted rule, end): the rule's consumed prefix derives
tokens origin..end and the whole rule was predicted at `origin`.  The
chart and the loop follow `engine.Deduction`, like the table engine's: the
chart holds the axiom (0, start rule with the dot first, 0) and its goal
(0, complete start rule, n), `earley_recognized` is `engine.recognized`,
and the loop owns its agenda.  A completion fires when the second of its
two partners is popped, whichever it is.  Prediction is positional: the
rules predicted for B at i depend only on (B, i), so they fire once, when
the first item waiting for B at i is popped, with the justification
("predict", (), None).  The axiom is the start symbol's prediction at 0,
so where the start symbol occurs in a rule body it is not predicted there
again.  `fired`, read off the chart, counts the recorded justifications,
one per inference.  The rules predicted for a nonterminal are the
grammar's (`Grammar.predicted`), listed once per grammar on the first
parse, and dotted rules are `grammar.DottedRule`.

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

from .engine import Deduction, _agenda, recognized
from .grammar import DottedRule, Grammar


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
    """Plain tuples, in the layouts of `EarleyItem` and
    `EarleyJustification`; the goal is the complete start rule over all the
    input."""

    justifications: dict[tuple, list[tuple]]

    def __init__(self, grammar: Grammar, tokens):
        rule = grammar.start_rule
        super().__init__(tokens, {(0, DottedRule(rule, 0), 0): [("init", (), None)]})
        self.goal = (0, DottedRule(rule, len(rule.rhs)), len(self.tokens))
        self.grammar = grammar

    def final_item(self) -> EarleyItem:
        return EarleyItem._make(self.goal)


def earley_parse(g: Grammar, tokens, agenda_order: str = "lifo") -> EarleyChart:
    """Saturate the Earley chart of `g` on `tokens`; see `engine.Deduction`
    for the insertion idiom and `agenda_order`."""
    c = EarleyChart(g, tokens)
    agenda, pop = _agenda(c, agenda_order)
    push = agenda.append
    justifications, tokens = c.justifications, c.tokens
    n = len(tokens)
    # Popped active items by (their nonterminal goal, their end position);
    # popped completed items by (their left-hand side, their origin).
    active_at, completed_at = defaultdict(list), defaultdict(list)

    nonterminals, predicted, start = g.nonterminals, g.predicted, g.start
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
            # first item waiting there fires it, once per vertex.  The axiom
            # already is the start symbol's prediction at 0.
            if len(waiting) == 1 and (end or goal != start):
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
    return c


earley_recognized = recognized


def earley_ambiguous_final(c: EarleyChart) -> int:
    """How many completions derive the final item; 0 when unrecognized.
    Above 1 proves the input ambiguous without building any forest; 1 does
    not prove it unambiguous, since trees may differ below the last step."""
    return sum(
        1
        for tag, _, _ in c.justifications.get(c.goal, ())
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
