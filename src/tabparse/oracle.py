"""Brute-force reference implementations, kept independent of the parsers.

Everything here works straight off the grammar by exhaustive search: a least
fixpoint for derivability and span-partition backtracking for tree
enumeration.  Deliberately no sharing, no charts, no compilation; speed is
sacrificed for obviousness, which is the point of an oracle.
"""

from __future__ import annotations

from .grammar import Grammar
from .trees import ParseTree, leaf, node

# A derivability relation is a set of (symbol, from, to) triples meaning the
# symbol derives tokens[from:to].


def derivable(g: Grammar, tokens) -> set[tuple[str, int, int]]:
    """Least fixpoint of "X derives the span".

    Terminals derive exactly their own one-token spans; a token spelled
    like a nonterminal is no terminal, and gives that nonterminal no span.
    A nonterminal A derives (j, i) if some rule A -> X1 .. Xm admits a
    partition of the span whose parts are derived by the Xk (the empty
    partition for epsilon rules, so (A, i, i) whenever A -> eps).
    """
    tokens = tuple(tokens)
    n = len(tokens)
    rel: set[tuple[str, int, int]] = set()
    nts = g.nonterminals
    # ends[X][j] = set of i with (X, j, i) in rel; terminals handled inline.
    ends: dict[str, dict[int, set[int]]] = {A: {} for A in nts}

    def seq_reaches(rhs, j: int) -> set[int]:
        frontier = {j}
        for X in rhs:
            nxt: set[int] = set()
            for k in frontier:
                if X in nts:
                    nxt |= ends[X].get(k, set())
                elif k < n and tokens[k] == X:
                    nxt.add(k + 1)
            if not nxt:
                return nxt
            frontier = nxt
        return frontier

    for t, a in enumerate(tokens):
        if a not in nts:
            rel.add((a, t, t + 1))

    changed = True
    while changed:
        changed = False
        for rule in g.rules:
            for j in range(n + 1):
                for i in seq_reaches(rule.rhs, j):
                    triple = (rule.lhs, j, i)
                    if triple not in rel:
                        rel.add(triple)
                        ends[rule.lhs].setdefault(j, set()).add(i)
                        changed = True
    return rel


def recognizes(g: Grammar, tokens) -> bool:
    """Start-symbol verdict of the derivability fixpoint."""
    return (g.start, 0, len(tokens)) in derivable(g, tokens)


def enumerate_trees(
    g: Grammar, tokens, cap: int, max_depth: int | None = None
) -> list[ParseTree]:
    """All parse trees of the input with depth <= max_depth, up to cap.

    Depth counts nonterminal nesting.  The default bound 2 * (n + 2) * |N| is
    deep enough to reach every tree whenever the total number of trees is
    finite: a tree deeper than that must repeat a (symbol, span) pair on some
    path, and such a repetition pumps into infinitely many trees.
    """
    if cap <= 0 or (max_depth is not None and max_depth <= 0):
        raise ValueError("cap and max_depth must be positive")
    tokens = tuple(tokens)
    n = len(tokens)
    if max_depth is None:
        max_depth = 2 * (n + 2) * len(g.nonterminals)
    nts = g.nonterminals
    by_lhs: dict[str, list] = {}
    for r in g.rules:
        by_lhs.setdefault(r.lhs, []).append(r)
    # Backtracking alone revisits hopeless branches exponentially often (a
    # left-recursive rule whose right part can never finish the span, say),
    # so splits are filtered through the derivability fixpoint up front.
    # That changes no outcomes: every subtree's (symbol, span) is derivable.
    rel = derivable(g, tokens)
    spans: dict = {}
    for X, j, i in rel:
        spans.setdefault((X, j), set()).add(i)
    can_span_memo: dict = {}

    def can_span(seq, j: int, i: int) -> bool:
        key = (seq, j, i)
        if key not in can_span_memo:
            frontier = {j}
            for X in seq:
                frontier = {k for s in frontier for k in spans.get((X, s), ())}
            can_span_memo[key] = i in frontier
        return can_span_memo[key]

    def symbol_trees(X: str, j: int, i: int, budget: int):
        if X not in nts:
            if i == j + 1 and tokens[j] == X:
                yield leaf(X)
            return
        if budget <= 0 or (X, j, i) not in rel:
            return
        for rule in by_lhs.get(X, []):
            for children in seq_trees(rule.rhs, 0, j, i, budget - 1):
                yield node(X, children)

    def seq_trees(rhs, idx: int, j: int, i: int, budget: int):
        if idx == len(rhs):
            if j == i:
                yield ()
            return
        suffix = rhs[idx + 1 :]
        for k in sorted(spans.get((rhs[idx], j), ())):
            if k > i or not can_span(suffix, k, i):
                continue
            for first in symbol_trees(rhs[idx], j, k, budget):
                for rest in seq_trees(rhs, idx + 1, k, i, budget):
                    yield (first,) + rest

    out: list[ParseTree] = []
    for t in symbol_trees(g.start, 0, n, max_depth):
        out.append(t)
        if len(out) >= cap:
            break
    return out
