"""Parse forests: all trees of an ambiguous parse in one shared grammar.

A forest is itself a context-free grammar whose nonterminals are chart
entries and whose terminals are the input tokens.  Matrix charts yield
span-labelled forests directly; agenda charts yield forests over their
items, one rule per justification, which the tree editors then reshape
into trees of the original grammar.  Counting and extraction never
enumerate shared substructure twice, so they stay cheap even when the
number of trees is astronomical or infinite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter
from typing import Any, NamedTuple, Optional

from .cky import CkyChart
from .earley import EarleyChart
from .engine import Chart
from .grammar import Grammar, Rule
from .trees import ParseTree, leaf, node


class ForestError(ValueError):
    pass


class SpanNode(NamedTuple):
    start: int
    symbol: str
    end: int

    def __str__(self) -> str:
        return f"( {self.start} , {self.symbol} , {self.end} )"


class ForestRule(NamedTuple):
    head: Any
    body: tuple  # chart nodes and raw token strings
    rule: Optional[Rule] = None  # grammar rule behind this step, when needed


@dataclass(frozen=True)
class ParseForest:
    rules: tuple[ForestRule, ...]
    start: Any
    origin: str  # "cky" | "earley" | "topdown" | "bottomup" | "lr" | ...
    grammar: Optional[Grammar]


def _emitter():
    rules: list[ForestRule] = []
    seen: set[ForestRule] = set()

    def emit(head, body, rule=None):
        fr = ForestRule(head, tuple(body), rule)
        if fr not in seen:
            seen.add(fr)
            rules.append(fr)

    return rules, emit


def build_forest_cky(c: CkyChart) -> ParseForest:
    n = len(c.tokens)
    rules, emit = _emitter()
    for pos, token in enumerate(c.tokens):
        emit(SpanNode(pos, token, pos + 1), (token,))
    for start, symbol, end in sorted(c.justifications, key=lambda k: (k[0], k[2], k[1])):
        for just in c.justifications[(start, symbol, end)]:
            if just.split is None:
                body = (SpanNode(start, c.tokens[start], end),)
            else:
                body = (
                    SpanNode(start, just.rule.rhs[0], just.split),
                    SpanNode(just.split, just.rule.rhs[1], end),
                )
            emit(SpanNode(start, symbol, end), body, just.rule)
    return ParseForest(tuple(rules), SpanNode(0, c.grammar.start, n), "cky", c.grammar)


def _earley_body(just) -> tuple:
    if just.tag in ("init", "predict"):
        return ()
    if just.tag == "scan":
        return (just.antecedents[0], just.token)
    return just.antecedents


def _engine_body(just) -> tuple[tuple, Optional[Rule]]:
    tag = just.tag
    if tag in ("axiom", "F4"):
        return (), None
    if tag in ("F1", "F6"):
        return (just.via.read[0],), None
    if tag == "F2":
        return (just.antecedents[0], just.via.read[0]), None
    if tag in ("F3", "F5"):
        return just.antecedents, None
    if tag == "F7":
        if len(just.via.push) == 1:
            return just.antecedents[1:], None
        return just.antecedents, None
    if tag == "reduce":
        return just.antecedents, just.via.rule
    if tag == "accept":
        return just.antecedents[1:], just.via.rule
    raise ForestError(f"unknown justification {tag}")


def build_forest_items(c) -> ParseForest:
    """Forest over the chart's own items, one rule per justification."""
    rules, emit = _emitter()
    if isinstance(c, EarleyChart):
        order = sorted(c.items, key=lambda it: (it.end, it.origin, str(it.dotted)))
        for item in order:
            for just in c.justifications.get(item, ()):
                emit(item, _earley_body(just))
        return ParseForest(tuple(rules), c.final_item(), "earley", c.grammar)
    if isinstance(c, Chart):
        order = sorted(
            c.items,
            key=lambda it: (it.upper_pos, it.lower_pos, str(it.upper), str(it.lower)),
        )
        for item in order:
            for just in c.justifications.get(item, ()):
                body, rule = _engine_body(just)
                emit(item, body, rule)
        return ParseForest(tuple(rules), c.accept_item(), c.pda.kind, c.pda.grammar)
    raise ForestError(f"cannot build a forest from {type(c).__name__}")


def reduce_forest(f: ParseForest) -> ParseForest:
    """Drop rules that cannot occur in any complete tree: bottom-up, keep
    heads that derive some token string; top-down, keep what the start node
    reaches through the surviving rules.

    The bottom-up half is the counter-based worklist of linear-time Horn
    satisfiability (Dowling & Gallier 1984): each rule counts its body
    nodes not yet known productive, and each node, once productive,
    decrements the rules that use it.  Both halves take time linear in the
    total body length, and the kept rules stay in their original order.
    """
    rules = f.rules
    users: dict[Any, list[int]] = {}  # node -> rules using it, per occurrence
    missing: list[int] = []  # body nodes of each rule not yet productive
    productive: set = set()
    queue: list = []
    for i, r in enumerate(rules):
        count = 0
        for b in r.body:
            if not isinstance(b, str):
                users.setdefault(b, []).append(i)
                count += 1
        missing.append(count)
        if count == 0:
            queue.append(r.head)
    while queue:
        node = queue.pop()
        if node in productive:
            continue
        productive.add(node)
        for i in users.get(node, ()):
            missing[i] -= 1
            if missing[i] == 0:
                queue.append(rules[i].head)
    usable = [r for r, count in zip(rules, missing) if count == 0]
    del users, missing, productive
    by_head: dict[Any, list[ForestRule]] = {}
    for r in usable:
        by_head.setdefault(r.head, []).append(r)
    reached: set = set()
    stack = [f.start]
    while stack:
        head = stack.pop()
        if head in reached:
            continue
        reached.add(head)
        for r in by_head.get(head, ()):
            for b in r.body:
                if not isinstance(b, str) and b not in reached:
                    stack.append(b)
    kept = tuple(r for r in usable if r.head in reached)
    return ParseForest(kept, f.start, f.origin, f.grammar)


@dataclass(frozen=True)
class TreeCount:
    value: Optional[int]  # None when infinite
    infinite: bool


def count_trees(f: ParseForest) -> TreeCount:
    """Number of trees, by one product-sum sweep in dependency order.

    Expects a reduced forest: a cycle then means the tree set is infinite.
    Counts are exact big integers, never floats.
    """
    by_head: dict[Any, list[ForestRule]] = {}
    graph: dict[Any, set] = {}
    for r in f.rules:
        by_head.setdefault(r.head, []).append(r)
        deps = graph.setdefault(r.head, set())
        deps.update(b for b in r.body if not isinstance(b, str))
    try:
        order = list(TopologicalSorter(graph).static_order())
    except CycleError:
        return TreeCount(None, True)
    counts: dict[Any, int] = {}
    for head in order:
        counts[head] = sum(
            math.prod(
                1 if isinstance(b, str) else counts.get(b, 0) for b in r.body
            )
            for r in by_head.get(head, ())
        )
    return TreeCount(counts.get(f.start, 0), False)


class _FTree(NamedTuple):
    head: Any
    frule: ForestRule
    children: tuple  # _FTree | str


def _gen_trees(node_, limit: int, by_head):
    """Forest trees rooted at node_, at most `limit` rule applications deep,
    with their exact depths; rule order first, depth falls where it may."""
    if isinstance(node_, str):
        yield node_, 0
        return
    if limit <= 0:
        return
    for frule in by_head.get(node_, ()):
        for children, d in _gen_bodies(frule.body, limit - 1, by_head):
            yield _FTree(node_, frule, children), d + 1


def _gen_bodies(parts, limit, by_head):
    if not parts:
        yield (), 0
        return
    for first, d0 in _gen_trees(parts[0], limit, by_head):
        for rest, d1 in _gen_bodies(parts[1:], limit, by_head):
            yield (first,) + rest, max(d0, d1)


def extract_trees(f: ParseForest, k: int) -> list[ParseTree]:
    """Up to k trees, edited back into trees of the original grammar.

    Expects a reduced forest.  Acyclic forests enumerate in rule order;
    cyclic ones in rounds of increasing depth, so the infinitely many trees
    come out shallowest first.
    """
    if k <= 0:
        raise ValueError("tree budget must be positive")
    by_head: dict[Any, list[ForestRule]] = {}
    for r in f.rules:
        by_head.setdefault(r.head, []).append(r)
    if f.start not in by_head:
        return []
    reached = {f.start}
    stack = [f.start]
    while stack:
        for r in by_head.get(stack.pop(), ()):
            for b in r.body:
                if not isinstance(b, str) and b not in reached:
                    reached.add(b)
                    stack.append(b)
    subgraph = {
        h: {b for r in by_head.get(h, ()) for b in r.body if not isinstance(b, str)}
        for h in reached
    }
    try:
        TopologicalSorter(subgraph).prepare()
        cyclic = False
    except CycleError:
        cyclic = True
    ftrees: list[_FTree] = []
    if not cyclic:
        for t, _ in _gen_trees(f.start, len(reached) + 1, by_head):
            ftrees.append(t)
            if len(ftrees) >= k:
                break
    else:
        # A reduced cyclic forest pumps forever, so the rounds terminate;
        # the cap is a backstop against unreduced input.
        depth = 1
        max_depth = (len(reached) + 2) * (k + 2)
        while len(ftrees) < k and depth <= max_depth:
            for t, d in _gen_trees(f.start, depth, by_head):
                if d == depth:
                    ftrees.append(t)
                    if len(ftrees) >= k:
                        break
            depth += 1
    return [_edit(f, t) for t in ftrees]


def _edit(f: ParseForest, ft: _FTree) -> ParseTree:
    if f.origin == "cky":
        tree = _edit_span(ft)
    elif f.origin == "earley":
        tree = _edit_comb(ft, lambda head: head.dotted)
    elif f.origin == "topdown":
        tree = _edit_comb(ft, lambda head: head.upper)
    elif f.origin == "bottomup":
        tree = _edit_label(ft, lambda head: head.upper)
    elif f.origin == "lr":
        tree = _edit_lr(ft)
    else:
        raise ForestError(f"no tree editor for {f.origin!r} charts")
    g = f.grammar
    if g is not None and g.augmented_from is not None and tree.label == g.start:
        (tree,) = tree.children
    return tree


def _edit_span(ft: _FTree) -> ParseTree:
    if len(ft.children) == 1 and isinstance(ft.children[0], str):
        if ft.head.symbol == ft.children[0]:
            return leaf(ft.head.symbol)
        return node(ft.head.symbol, (leaf(ft.children[0]),))
    return node(ft.head.symbol, tuple(_edit_span(ch) for ch in ft.children))


def _edit_comb(ft: _FTree, dotted_of) -> ParseTree:
    """A completed item's tree: the left-branching spine of partial items
    collects one subtree per consumed right-hand-side symbol."""
    return node(dotted_of(ft.head).rule.lhs, tuple(_collect(ft, dotted_of)))


def _collect(ft: _FTree, dotted_of) -> list[ParseTree]:
    ch = ft.children
    if len(ch) == 0:
        return []
    if len(ch) == 2 and isinstance(ch[1], str):
        return _collect(ch[0], dotted_of) + [leaf(ch[1])]
    if len(ch) == 2:
        return _collect(ch[0], dotted_of) + [_edit_comb(ch[1], dotted_of)]
    raise ForestError(f"unexpected forest body of {len(ch)} parts")


def _edit_label(ft: _FTree, label_of) -> ParseTree:
    kids = tuple(
        leaf(ch) if isinstance(ch, str) else _edit_label(ch, label_of)
        for ch in ft.children
    )
    return node(label_of(ft.head), kids)


def _edit_lr(ft: _FTree) -> ParseTree:
    if ft.frule.rule is None:
        (token,) = ft.children
        return leaf(token)
    return node(
        ft.frule.rule.lhs, tuple(_edit_lr(ch) for ch in ft.children)
    )


def dump_forest(f: ParseForest, eliminated=frozenset()) -> str:
    entries = []
    for r in f.rules:
        body = " ".join(str(b) for b in r.body) if r.body else "eps"
        entries.append((f"{r.head} -> {body}", r in eliminated))
    entries.sort(key=lambda e: e[0])
    return "\n".join(
        text + (" #eliminated" if gone else "") for text, gone in entries
    )
