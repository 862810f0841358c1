"""Bottom-up matrix recognition for grammars in Chomsky normal form.

T[j,i] holds the nonterminals deriving tokens j..i, filled column by
column: for each end position, first the lexical entry, then wider spans in
order of decreasing start, so both halves of every binary split are ready
when it is tried.  A split with an empty half is skipped; the binary rules
are tried in grammar order, so each entry's justifications come in a fixed
order.  As in the engine and Earley, the chart stores plain tuples, each
entered without a call: an entry (start, nonterminal, end) maps to its
(rule, split) justifications, whose fields `CkyJustification._make` names.
The chart is an `engine.Deduction` with no axiom and no agenda: its goal
is (0, start, n), and `cky_recognized` is `engine.recognized`.
"""

from __future__ import annotations

from collections import defaultdict
from typing import NamedTuple, Optional

from .engine import Deduction, recognized
from .grammar import Grammar, GrammarError, Rule, is_cnf


class CkyJustification(NamedTuple):
    """Named view of one way a span entry was derived, stored as a plain tuple."""

    rule: Rule
    split: Optional[int]  # None for lexical entries


class CkyChart(Deduction):
    """Entries (start, nonterminal, end), each mapped to how it got there as
    (rule, split) tuples, and the cells of the matrix; the goal is the start
    symbol over all the input."""

    justifications: dict[tuple[int, str, int], list[tuple]]

    def __init__(self, grammar: Grammar, tokens):
        super().__init__(tokens, {})
        self.goal = (0, grammar.start, len(self.tokens))
        self.grammar = grammar
        self.cells: dict[tuple[int, int], set[str]] = defaultdict(set)


def cky_parse(g: Grammar, tokens) -> CkyChart:
    if not is_cnf(g):
        raise GrammarError("matrix recognition needs Chomsky normal form")
    c = CkyChart(g, tokens)
    tokens, cells, justifications = c.tokens, c.cells, c.justifications
    n = len(tokens)
    lexical = defaultdict(list)
    binary = []  # (rule, left child, right child), in grammar order
    for rule in g.rules:
        if len(rule.rhs) == 1:
            lexical[rule.rhs[0]].append(rule)
        else:
            binary.append((rule, *rule.rhs))

    for i in range(1, n + 1):
        # Always new: only lexical rules, none repeated, fill width-one spans.
        for rule in lexical.get(tokens[i - 1], ()):
            cells[(i - 1, i)].add(rule.lhs)
            justifications[(i - 1, rule.lhs, i)] = [(rule, None)]
        for k in range(i - 2, -1, -1):
            for j in range(k + 1, i):
                left = cells.get((k, j))
                right = left and cells.get((j, i))
                if not right:
                    continue
                for rule, b, d in binary:
                    if b in left and d in right:
                        new = (k, rule.lhs, i)
                        if new in justifications:
                            justifications[new].append((rule, j))
                        else:
                            justifications[new] = [(rule, j)]
                            cells[(k, i)].add(rule.lhs)
    return c


# No span of width 0 is an entry, so the goal of empty input never is.
cky_recognized = recognized


def dump_matrix(c: CkyChart) -> str:
    lines = []
    for j, i in sorted(c.cells):
        cell = c.cells[(j, i)]
        if cell:
            lines.append(f"T[{j},{i}]: " + ", ".join(sorted(cell)))
    return "\n".join(lines)
