"""Context-free grammars and the line-oriented grammar file format.

A grammar file holds one rule per line, tokens separated by whitespace:

    S -> E
    E -> E * E
    E -> a
    N ->            # an empty right-hand side is an epsilon rule

``#`` starts a comment; blank lines are ignored.  A symbol is a nonterminal
exactly when it occurs on some left-hand side; everything else is a terminal.
The start symbol is the left-hand side of the first rule.

Dotted rules (`DottedRule`) and what each nonterminal predicts, its rules
with the dot first (`Grammar.predicted`), live here: Earley's predictor,
the goal-driven compiler's pushes and the LR closure all read them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple

from .pda import Interned

ARROW = "->"


class GrammarError(ValueError):
    """Raised for malformed grammar text or contract violations."""


class DuplicateRuleWarning(UserWarning):
    """Emitted when a grammar file repeats a rule; duplicates are dropped."""


class Rule(NamedTuple):
    lhs: str
    rhs: tuple[str, ...]

    def __str__(self) -> str:
        return f"{self.lhs} {ARROW} {' '.join(self.rhs)}".rstrip()


class DottedRule(Interned):
    """A rule with a progress marker: A -> alpha . beta, one per (rule,
    dot).  `goal` is the symbol right of the dot, None when complete; each
    stores its goal, completeness, text and successor once."""

    __slots__ = ("rule", "dot", "goal", "is_complete", "_text", "_next")

    @staticmethod
    def _derive(rule: Rule, dot: int) -> tuple:
        rhs = rule.rhs
        text = " ".join([rule.lhs, ARROW, *rhs[:dot], ".", *rhs[dot:]])
        if dot >= len(rhs):
            return None, dot == len(rhs), text, None
        # The missing successors are made from the far end, so constructions
        # do not nest however long the rule.
        last = dot + 1
        while last < len(rhs) and (rule, last) not in DottedRule._table:
            last += 1
        for later in range(last, dot, -1):
            successor = DottedRule(rule, later)
        return rhs[dot], False, text, successor

    def __str__(self) -> str:
        return self._text

    def advance(self) -> "DottedRule":
        if self._next is None:
            raise ValueError(f"cannot advance past the end of {self}")
        return self._next


@dataclass(frozen=True)
class Grammar:
    """An immutable CFG.  Rule order is significant and preserved."""

    rules: tuple[Rule, ...]
    start: str
    # Original start symbol when this grammar came out of augment_start, else
    # None.  Not part of equality: two grammars with the same rules and start
    # describe the same language.
    augmented_from: str | None = field(default=None, compare=False)

    def __post_init__(self):
        if not self.rules:
            raise GrammarError("grammar has no rules")
        lhss = {r.lhs for r in self.rules}
        if self.start not in lhss:
            raise GrammarError(f"start symbol {self.start!r} has no rule")
        if len(set(self.rules)) != len(self.rules):
            raise GrammarError("duplicate rules in rule list")

    # The derived sets and indexes are computed once per grammar; the frozen
    # dataclass still has a __dict__ for cached_property to fill.
    @cached_property
    def nonterminals(self) -> frozenset[str]:
        return frozenset(self._by_lhs)

    @cached_property
    def terminals(self) -> frozenset[str]:
        nts = self.nonterminals
        return frozenset(
            sym for r in self.rules for sym in r.rhs if sym not in nts
        )

    @cached_property
    def rule_index(self) -> frozenset[tuple[str, tuple[str, ...]]]:
        return frozenset((r.lhs, r.rhs) for r in self.rules)

    @cached_property
    def _by_lhs(self) -> dict[str, tuple[Rule, ...]]:
        by_lhs: dict[str, list[Rule]] = {}
        for r in self.rules:
            by_lhs.setdefault(r.lhs, []).append(r)
        return {lhs: tuple(rules) for lhs, rules in by_lhs.items()}

    @cached_property
    def predicted(self) -> dict[str, tuple[DottedRule, ...]]:
        """Nonterminal -> its rules with the dot first, in rule order: what
        a goal predicts.  Made on first use, not when the grammar is set up."""
        return {nt: tuple(DottedRule(r, 0) for r in rules) for nt, rules in self._by_lhs.items()}

    def rules_for(self, lhs: str) -> tuple[Rule, ...]:
        return self._by_lhs.get(lhs, ())

    def start_rules(self) -> tuple[Rule, ...]:
        return self.rules_for(self.start)

    @property
    def start_rule(self) -> Rule:
        """The one rule of the start symbol, which Earley and the
        goal-driven compiler start from."""
        starts = self.start_rules()
        if len(starts) != 1:
            raise GrammarError(f"needs a single {self.start} rule; augment the grammar first")
        return starts[0]


def parse_grammar(text: str) -> Grammar:
    """Parse grammar file text.  Duplicate rules are dropped with a
    DuplicateRuleWarning; structural problems raise GrammarError."""
    rules: list[Rule] = []
    seen: set[Rule] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = line.split()
        if not tokens:
            continue
        if tokens[0] == ARROW:
            raise GrammarError(f"line {lineno}: empty left-hand side")
        if len(tokens) < 2 or tokens[1] != ARROW:
            raise GrammarError(f"line {lineno}: missing arrow in {line.strip()!r}")
        rule = Rule(tokens[0], tuple(tokens[2:]))
        if rule in seen:
            warnings.warn(
                f"line {lineno}: duplicate rule {rule} dropped",
                DuplicateRuleWarning,
                stacklevel=2,
            )
            continue
        seen.add(rule)
        rules.append(rule)
    if not rules:
        raise GrammarError("grammar has no rules")
    return Grammar(tuple(rules), rules[0].lhs)


def format_grammar(g: Grammar) -> str:
    """Inverse of parse_grammar up to comments and blank lines.  The start
    symbol's rules are emitted first so the first line's lhs is the start."""
    first = [r for r in g.rules if r.lhs == g.start]
    rest = [r for r in g.rules if r.lhs != g.start]
    return "\n".join(str(r) for r in first + rest) + "\n"


def grammar_size(g: Grammar) -> int:
    """Sum over rules of 1 + |rhs|."""
    return sum(1 + len(r.rhs) for r in g.rules)


def is_cnf(g: Grammar) -> bool:
    """Chomsky normal form: every rule is A -> a or A -> B C."""
    nts = g.nonterminals
    for r in g.rules:
        if len(r.rhs) == 1 and r.rhs[0] not in nts:
            continue
        if len(r.rhs) == 2 and r.rhs[0] in nts and r.rhs[1] in nts:
            continue
        return False
    return True


def has_epsilon_rules(g: Grammar) -> bool:
    return any(not r.rhs for r in g.rules)


def fresh_symbol(base: str, taken: Iterable[str]) -> str:
    taken = set(taken)
    candidate = base
    while candidate in taken:
        candidate += "'"
    return candidate


def augment_start(g: Grammar) -> Grammar:
    """Ensure a unique start rule whose lhs occurs in no rhs.

    Returns ``g`` unchanged when it already conforms; otherwise prepends a
    fresh rule S' -> S and makes S' the start.  Idempotent.
    """
    in_rhs = any(g.start in r.rhs for r in g.rules)
    if len(g.start_rules()) == 1 and not in_rhs:
        return g
    all_symbols = g.nonterminals | g.terminals
    new_start = fresh_symbol(g.start, all_symbols)
    rules = (Rule(new_start, (g.start,)),) + g.rules
    return Grammar(rules, new_start, augmented_from=g.start)
