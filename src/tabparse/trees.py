"""Parse tree container shared by the parsers and the brute-force oracle.

Kept deliberately free of algorithm code so that independent implementations
can produce and compare trees without pulling each other in.
"""

from __future__ import annotations

from typing import NamedTuple, Optional


class ParseTree(NamedTuple):
    """An ordered tree over grammar symbols.

    ``children is None`` marks a terminal leaf.  An empty tuple marks a
    nonterminal node produced by an epsilon rule, which is a different thing.
    """

    label: str
    children: Optional[tuple["ParseTree", ...]]

    @property
    def is_leaf(self) -> bool:
        return self.children is None


def leaf(symbol: str) -> ParseTree:
    return ParseTree(symbol, None)


def node(symbol: str, children) -> ParseTree:
    return ParseTree(symbol, tuple(children))


def tree_yield(t: ParseTree) -> tuple[str, ...]:
    """Frontier of the tree, left to right.  Epsilon nodes contribute nothing."""
    out = []
    stack = [t]
    while stack:
        t = stack.pop()
        if t.is_leaf:
            out.append(t.label)
        else:
            stack.extend(reversed(t.children))
    return tuple(out)


def tree_depth(t: ParseTree) -> int:
    """Number of nonterminal nodes on the longest root-to-frontier path."""
    deepest = 0
    stack = [(t, 1)]
    while stack:
        t, level = stack.pop()
        if not t.is_leaf:
            deepest = max(deepest, level)
            stack.extend((c, level + 1) for c in t.children)
    return deepest


def render_tree(t: ParseTree) -> str:
    """Bracketed s-expression: ``(A (B a) (C b))``; a bare leaf renders as its
    token and an epsilon node as ``(A)``."""
    parts = []
    stack = [t]  # trees still to render, and the text that follows them
    while stack:
        t = stack.pop()
        if isinstance(t, str):
            parts.append(t)
        elif t.is_leaf:
            parts.append(t.label)
        else:
            parts.append("(" + t.label)
            stack.append(")")
            for c in reversed(t.children):
                stack += (c, " ")
    return "".join(parts)


def validate_tree(grammar, t: ParseTree) -> bool:
    """True iff every internal node applies a rule of ``grammar`` and every
    leaf is one of its terminals."""
    stack = [t]
    while stack:
        t = stack.pop()
        if t.is_leaf:
            if t.label not in grammar.terminals:
                return False
            continue
        if t.label not in grammar.nonterminals:
            return False
        if (t.label, tuple(c.label for c in t.children)) not in grammar.rule_index:
            return False
        stack.extend(t.children)
    return True
