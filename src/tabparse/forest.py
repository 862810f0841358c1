"""Parse forests: all trees of an ambiguous parse in one shared grammar.

A forest is itself a context-free grammar whose nonterminals are chart
entries and whose terminals are the input tokens: over spans for matrix
charts, over items for agenda charts, one rule per justification.  Read
as a transducer (Lang 1974), a step that completes a grammar rule
outputs a node of that rule, which its forest rule names
(`ForestRule.rule`), so one fold turns a forest tree of any origin into
a tree of the original grammar.  Read this way a chart is a shared
forest grammar (Billot & Lang 1989) in which every nonterminal derives a
token string: an entry's first justification uses only entries derived
before it, and its forest body is a subset of those antecedents.  So a
chart forest makes a head's steps, plain (head, body, rule) tuples, in
one call when first asked, and its full `rules`, their `ForestRule`
views in chart order, only when read; `reduce_forest` makes none for an
entry the start node does not reach.  Counting and extraction never
enumerate shared substructure twice, so they stay cheap even when the
number of trees is astronomical or infinite.  Both reuse the by-head
index, children-first order and cycle flag that `reduce_forest` finds in
its walk, and both run on explicit stacks, so trees may be of any depth.

The nodes of a forest over an agenda chart are the chart's own entries,
plain tuples (see `engine` and `earley`); they and the steps are read by
position.  `dump_forest` prints nodes through the item view of the
forest's origin, `EarleyItem` or `Item`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, NamedTuple, Optional

from .cky import CkyChart
from .earley import EarleyChart, EarleyItem
from .engine import Chart, Item
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
    """A forest step by name; a chart forest's steps are plain tuples."""

    head: Any
    body: tuple  # chart nodes and raw token strings
    rule: Optional[Rule] = None  # the grammar rule this step completes, if any


@dataclass(frozen=True)
class ParseForest:
    rules: tuple[ForestRule, ...]
    start: Any
    origin: str  # "cky" | "earley" | "topdown" | "bottomup" | "lr" | ...
    grammar: Optional[Grammar]
    # (by-head index, nodes reached from start children first, cycle flag)
    _graph: Any = field(default=None, init=False, repr=False, compare=False)
    # Chart forests only: (a function giving the heads in chart order, one
    # giving a head's steps or None).  Such a forest makes `rules` when read.
    _chart: Any = field(default=None, init=False, repr=False, compare=False)

    def __getattr__(self, name: str):
        if name != "rules" or self._chart is None:
            raise AttributeError(name)
        heads, rules_of = self._chart
        steps = (r for h in heads() for r in rules_of(h) or ())
        object.__setattr__(self, name, tuple(map(ForestRule._make, steps)))
        return self.rules


def _chart_forest(heads, rules_of, start, origin: str, grammar) -> ParseForest:
    f = object.__new__(ParseForest)  # with no `rules` until they are read
    f.__dict__.update(start=start, origin=origin, grammar=grammar, _chart=(heads, rules_of))
    return f


def build_forest_cky(c: CkyChart) -> ParseForest:
    """Forest over the chart's spans, one step per justification and one per
    token, as plain (head, body, rule) tuples; a span's are made when first
    asked for.  The full rules, token nodes first and then in chart order,
    are their views, made when read.  A token spelled like a nonterminal
    gets no token node: that span is the nonterminal's."""
    spans = (SpanNode(i, t, i + 1) for i, t in enumerate(c.tokens))
    tokens = {s: [(s, (s.symbol,), None)] for s in spans if s.symbol not in c.grammar.nonterminals}
    justs = c.justifications

    def rules_of(span: SpanNode) -> Optional[list]:
        js = justs.get(span)
        if js is None:
            return tokens.get(span)
        i, _, k = span
        steps = [
            (span, (SpanNode(i, r.rhs[0], k),), r) if j is None
            else (span, (SpanNode(i, r.rhs[0], j), SpanNode(j, r.rhs[1], k)), r)
            for r, j in js
        ]
        return list(dict.fromkeys(steps)) if len(steps) > 1 else steps

    heads = lambda: itertools.chain(tokens, map(SpanNode._make, justs))
    start = SpanNode(0, c.grammar.start, len(c.tokens))
    return _chart_forest(heads, rules_of, start, "cky", c.grammar)


def build_forest_items(c) -> ParseForest:
    """Forest over the chart's own items, one step per justification: the
    antecedents and token read, and the rule of a complete Earley item or
    the one the machine's `completes` gives.  An item's steps are made when
    first asked for, less repeats (Earley's initial item predicted again,
    where the start symbol occurs in a rule body); the full rules, in the
    order items were first derived, when read.  Nodes are chart tuples."""
    if not isinstance(c, (EarleyChart, Chart)):
        raise ForestError(f"cannot build a forest from {type(c).__name__}")
    justs = c.justifications
    if isinstance(c, EarleyChart):
        start, origin, grammar = c.final_item(), "earley", c.grammar

        def rules_of(item) -> list:
            rule = item[1].rule if item[1].is_complete else None
            steps = [
                (item, ante if token is None else ante + (token,), rule)
                for _, ante, token in justs.get(item, ())
            ]
            return list(dict.fromkeys(steps)) if len(steps) > 1 else steps

    else:
        start, origin, grammar = c.accept_item(), c.pda.kind, c.pda.grammar
        completes = c.pda.completes

        def rules_of(item) -> list:
            steps = []
            for tag, ante, via in justs.get(item, ()):
                if tag == "accept":
                    # Always the axiom arc (bot, 0, q0, 0): it derives nothing.
                    ante = ante[1:]
                elif tag in ("F1", "F2", "F6"):
                    ante += via.read
                steps.append((item, ante, completes.get(via)))
            return list(dict.fromkeys(steps)) if len(steps) > 1 else steps

    return _chart_forest(justs.keys, rules_of, tuple(start), origin, grammar)


def reduce_forest(f: ParseForest) -> ParseForest:
    """Drop rules that cannot occur in any complete tree: bottom-up, keep
    heads that derive some token string; top-down, keep what the start node
    reaches through the surviving rules.

    A chart forest needs only the top-down half: every chart entry derives
    a token string, since its first justification uses only entries derived
    before it.  So it is walked as it is, which makes the rules of the heads
    reached and no others.  Any other forest, built by hand or rebuilt with
    `dataclasses.replace`, first takes the counter-based worklist of
    linear-time Horn satisfiability (Dowling & Gallier 1984): each rule
    counts its body nodes not yet known productive, and each node, once
    productive, decrements the rules that use it.

    The top-down half is a depth-first walk whose by-head index,
    children-first order and cycle flag the returned forest keeps for
    `count_trees` and `extract_trees`.  Both halves take time linear in the
    total body length.  The kept rules stay in their original order; those
    of a chart forest are made when read.
    """
    if f._chart is None:
        usable = _productive(f.rules)
        graph = _walk(f.start, _lookup(usable))
        kept = tuple(r for r in usable if r.head in graph[0])
        reduced = ParseForest(kept, f.start, f.origin, f.grammar)
    else:
        graph = _walk(f.start, f._chart[1])
        reduced = _chart_forest(f._chart[0], graph[0].get, f.start, f.origin, f.grammar)
    object.__setattr__(reduced, "_graph", graph)
    return reduced


def _productive(rules) -> list[ForestRule]:
    """The rules whose body nodes all derive some token string."""
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
    return [r for r, count in zip(rules, missing) if count == 0]


def _lookup(rules):
    """The rules of a head, or None, for a forest built by hand."""
    by_head: dict[Any, list[ForestRule]] = {}
    for r in rules:
        by_head.setdefault(r.head, []).append(r)
    return by_head.get


_CLOSE = object()  # marks, on the walk's stack, the node below it as done


def _walk(start, rules_of) -> tuple[dict, list, bool]:
    """Walk depth-first from start, on an explicit stack, asking `rules_of`
    once for the rules (or None) of each node reached: the nodes reached
    that have rules, with them, and all nodes reached, both children first,
    and whether the walk meets a cycle (an edge back to a node still open)."""
    by_head: dict = {}
    finished: dict = {}  # False while the node is open
    order = []
    cyclic = False
    stack = [start]
    while stack:
        head = stack.pop()
        if head is _CLOSE:
            rules, head = stack.pop(), stack.pop()
            finished[head] = True
            order.append(head)
            if rules:
                by_head[head] = rules
        elif head not in finished:
            finished[head] = False
            rules = rules_of(head) or ()
            stack += (head, rules, _CLOSE)
            for r in rules:
                for b in r[1]:
                    if not isinstance(b, str):
                        done = finished.get(b)
                        if done is None:
                            stack.append(b)
                        elif not done:
                            cyclic = True
    return by_head, order, cyclic


def _graph(f: ParseForest) -> tuple[dict, list, bool]:
    """The walk `reduce_forest` keeps; any other forest is walked once."""
    if f._graph is None:
        rules_of = _lookup(f.rules) if f._chart is None else f._chart[1]
        object.__setattr__(f, "_graph", _walk(f.start, rules_of))
    return f._graph


@dataclass(frozen=True)
class TreeCount:
    value: Optional[int]  # None when infinite
    infinite: bool


def count_trees(f: ParseForest) -> TreeCount:
    """Number of trees, by one sweep over the children-first order of the
    walk in `reduce_forest`, which a reduced forest keeps: a head's count
    sums, over its steps, the product of their child nodes' counts.

    Expects a reduced forest: a cycle then means the tree set is infinite.
    Any other forest is walked once from its start node, and only a cycle
    that walk meets marks the count infinite.  Counts are exact big
    integers, never floats.
    """
    by_head, order, cyclic = _graph(f)
    if cyclic:
        return TreeCount(None, True)
    counts: dict[Any, int] = {}
    for head in order:
        total = 0
        for r in by_head.get(head, ()):
            product = 1
            for b in r[1]:
                if not isinstance(b, str):
                    product *= counts[b]
            total += product
        counts[head] = total
    return TreeCount(counts[f.start], False)


def _gen_trees(start, limit: int, by_head):
    """Forest trees rooted at start, at most `limit` rule applications deep,
    each as its rules in preorder with its exact depth, in rule order with
    the leftmost choice varying slowest: a backtracking search on explicit
    stacks, so tree depth costs no recursion."""
    trail: list = []  # (rule, depth budget left at its head), in preorder
    retry: list = []  # (goals, next rule index, trail length) per open choice
    goals = (start, limit, None)  # linked list of nodes left to expand
    i = 0
    while True:
        if goals is None:
            yield [r for r, _ in trail], limit + 1 - min(left for _, left in trail)
        else:
            head, left, rest = goals
            rules = by_head.get(head, ())
            if left > 0 and i < len(rules):
                if i + 1 < len(rules):
                    retry.append((goals, i + 1, len(trail)))
                trail.append((rules[i], left))
                for b in reversed(rules[i][1]):
                    if not isinstance(b, str):
                        rest = (b, left - 1, rest)
                goals, i = rest, 0
                continue
        if not retry:
            return
        goals, i, n = retry.pop()
        del trail[n:]


def _choose_trees(f: ParseForest, k: int) -> list[list[tuple]]:
    """Up to k forest trees, each as its rules in preorder."""
    by_head, order, cyclic = _graph(f)
    if not cyclic:
        found = _gen_trees(f.start, len(order) + 1, by_head)
        return [t for t, _ in itertools.islice(found, k)]
    # A reduced cyclic forest pumps forever, so the rounds terminate; the
    # cap is a backstop against unreduced input.
    chosen: list = []
    for depth in range(1, (len(order) + 2) * (k + 2) + 1):
        found = (t for t, d in _gen_trees(f.start, depth, by_head) if d == depth)
        chosen += itertools.islice(found, k - len(chosen))
        if len(chosen) == k:
            break
    return chosen


def extract_trees(f: ParseForest, k: int) -> list[ParseTree]:
    """Up to k trees, edited back into trees of the original grammar.

    Expects a reduced forest, and reuses the walk of `reduce_forest`.
    Acyclic forests enumerate in rule order; cyclic ones in rounds of
    increasing depth, so the infinitely many trees come out shallowest
    first.  Search and editing run on explicit stacks, so no tree is too
    deep to extract.
    """
    if k <= 0:
        raise ValueError("tree budget must be positive")
    return [_edit(f, t) for t in _choose_trees(f, k)]


def _edit(f: ParseForest, trail: list[tuple]) -> ParseTree:
    """Fold a forest tree, given as its rules in preorder, children first,
    into the list of grammar trees each node yields: a token yields its
    leaf, and a step the trees of its body in order, as one node of the
    rule it completes or, when it completes none, as they are.  So spines
    (partial dotted items, aux cells, the axiom) splice their trees into
    the node above.  The start node yields one tree, unless no step names
    a rule (a machine built by hand), which raises ForestError."""
    done: list = []
    for _, body, rule in reversed(trail):
        kids: list = []
        for b in body:
            if isinstance(b, str):
                kids.append(leaf(b))
            else:
                kids += done.pop()
        done.append(kids if rule is None else (node(rule.lhs, kids),))
    (top,) = done
    if len(top) != 1 or top[0].is_leaf:
        raise ForestError(f"no tree editor for {f.origin!r} charts: no rule names their steps")
    (tree,) = top
    g = f.grammar
    if g is not None and g.augmented_from is not None and tree.label == g.start:
        (tree,) = tree.children
    return tree


def dump_forest(f: ParseForest, eliminated=frozenset()) -> str:
    """The rules, sorted by text; plain-tuple nodes print through the item
    view of the forest's origin."""
    view = EarleyItem._make if f.origin == "earley" else Item._make
    show = lambda x: str(view(x) if type(x) is tuple else x)
    entries = []
    for r in f.rules:
        body = " ".join(map(show, r.body)) if r.body else "eps"
        entries.append((f"{show(r.head)} -> {body}", r in eliminated))
    entries.sort(key=lambda e: e[0])
    return "\n".join(
        text + (" #eliminated" if gone else "") for text, gone in entries
    )
