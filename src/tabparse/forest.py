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
chart forest makes a head's steps in one call when first asked, and its
full `rules`, their `ForestRule` views in chart order, only when read;
`reduce_forest` makes none for an entry the start node does not reach.
A step is a plain tuple (head, body, rule, kids): `kids` are the body's
chart nodes in order, the justification's own antecedent tuple where it
has one, so the walk, counting and search read children without testing
body entries for tokens.  A head's steps are one per justification, and
repeats are dropped only where two justifications can make one step:
Earley's initial item, predicted again where the start symbol occurs in
a rule body, and machines whose `engine._trigger_tables` flag repeats.
Counting and extraction never enumerate shared substructure twice, so
they stay cheap even when the number of trees is astronomical or
infinite.  Both read one graph, the by-head index, children-first order
and cycle flag of the walk in `reduce_forest`, reducing a forest first
when it is not, and both run on explicit stacks, so trees may be of any
depth.  Extraction measures depth as the fold builds the tree: a step
adds a level when it names a grammar rule and none when it does not, so
cyclic forests give their trees shallowest first whatever their origin.

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
from .engine import Chart, Item, _trigger_tables
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
    """A forest rule by name; a forest's steps are plain tuples that add
    the body's child nodes (`kids`) to these fields."""

    head: Any
    body: tuple  # chart nodes and raw token strings
    rule: Optional[Rule] = None  # the grammar rule this step completes, if any


@dataclass(frozen=True)
class ParseForest:
    rules: tuple[ForestRule, ...]
    start: Any
    origin: str  # "cky" | "earley" | "topdown" | "bottomup" | "lr" | "lr-binarized" | "pda"
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
        steps = (r[:3] for h in heads() for r in rules_of(h) or ())
        object.__setattr__(self, name, tuple(map(ForestRule._make, steps)))
        return self.rules


def _chart_forest(heads, rules_of, start, origin: str, grammar) -> ParseForest:
    f = object.__new__(ParseForest)  # with no `rules` until they are read
    f.__dict__.update(start=start, origin=origin, grammar=grammar, _chart=(heads, rules_of))
    return f


def build_forest_cky(c: CkyChart) -> ParseForest:
    """Forest over the chart's spans, one step per justification and one per
    token, as plain (head, body, rule, kids) tuples; a span's are made when
    first asked for.  A grammar has no duplicate rules, so no two steps of
    a span are equal.  The full rules, token nodes first and then in chart
    order, are their views, made when read.  A token spelled like a
    nonterminal gets no token node: that span is the nonterminal's."""
    spans = (SpanNode(i, t, i + 1) for i, t in enumerate(c.tokens))
    tokens = {
        s: [(s, (s.symbol,), None, ())] for s in spans if s.symbol not in c.grammar.nonterminals
    }
    justs = c.justifications

    def rules_of(span: SpanNode) -> Optional[list]:
        js = justs.get(span)
        if js is None:
            return tokens.get(span)
        i, _, k = span
        steps = []
        for r, j in js:
            if j is None:
                body = (SpanNode(i, r.rhs[0], k),)
            else:
                body = (SpanNode(i, r.rhs[0], j), SpanNode(j, r.rhs[1], k))
            steps.append((span, body, r, body))
        return steps

    heads = lambda: itertools.chain(tokens, map(SpanNode._make, justs))
    start = SpanNode(0, c.grammar.start, len(c.tokens))
    return _chart_forest(heads, rules_of, start, "cky", c.grammar)


def build_forest_items(c) -> ParseForest:
    """Forest over the chart's own items, one step per justification: the
    antecedents and token read, the rule of a complete Earley item or the
    one the machine's `completes` gives, and the antecedents again as the
    step's kids.  An item's steps are made when first asked for, less
    repeats where two justifications can make one step (see the module
    docstring); the full rules, in the order items were first derived,
    when read.  Nodes are chart tuples."""
    if not isinstance(c, (EarleyChart, Chart)):
        raise ForestError(f"cannot build a forest from {type(c).__name__}")
    justs = c.justifications
    if isinstance(c, EarleyChart):
        start, origin, grammar = c.final_item(), "earley", c.grammar
        initial = next(iter(justs))  # the axiom, the chart's first entry

        def rules_of(item) -> list:
            rule = item[1].rule if item[1].is_complete else None
            steps = [
                (item, ante if token is None else ante + (token,), rule, ante)
                for _, ante, token in justs.get(item, ())
            ]
            # The start node is a fresh tuple, so it is compared by value.
            return list(dict.fromkeys(steps)) if item == initial else steps

    else:
        start, origin, grammar = c.accept_item(), c.pda.kind, c.pda.grammar
        completes, repeats = c.pda.completes, _trigger_tables(c.pda)[3]

        def rules_of(item) -> list:
            steps = []
            for tag, ante, via in justs.get(item, ()):
                if tag == "accept":
                    # Always the axiom arc (bot, 0, q0, 0): it derives nothing.
                    ante = ante[1:]
                body = ante + via.read if tag in ("F1", "F2", "F6") else ante
                steps.append((item, body, completes.get(via), ante))
            return list(dict.fromkeys(steps)) if repeats and len(steps) > 1 else steps

    return _chart_forest(justs.keys, rules_of, tuple(start), origin, grammar)


def reduce_forest(f: ParseForest) -> ParseForest:
    """Drop rules that cannot occur in any complete tree: bottom-up, keep
    heads that derive some token string; top-down, keep what the start node
    reaches through the surviving rules.

    A chart forest needs only the top-down half: every chart entry derives
    a token string, since its first justification uses only entries derived
    before it.  So it is walked as it is, which makes the rules of the heads
    reached and no others.  Any other forest, built by hand or rebuilt with
    `dataclasses.replace`, first keeps the rules whose body nodes all have
    a shallowest tree (`_lowest`), that is, derive some token string.

    The top-down half is a depth-first walk whose by-head index,
    children-first order and cycle flag the returned forest keeps.  It is
    the one graph `count_trees` and `extract_trees` read: given any other
    forest, they reduce it first and keep its walk.  So a cycle they meet
    is one every node of which derives a token string and is reached from
    the start node.  Both halves take time linear in the total body length.
    The kept rules stay in their original order; those of a chart forest
    are made when read.
    """
    if f._chart is None:
        low = _lowest(_lookup(f.rules))
        usable = [r for r in f.rules if all(isinstance(b, str) or b in low for b in r.body)]
        graph = _walk([f.start], _lookup(usable).get)
        kept = tuple(r for r in usable if r.head in graph[0])
        reduced = ParseForest(kept, f.start, f.origin, f.grammar)
    else:
        graph = _walk([f.start], f._chart[1])
        reduced = _chart_forest(f._chart[0], graph[0].get, f.start, f.origin, f.grammar)
    object.__setattr__(reduced, "_graph", graph)
    return reduced


def _lowest(by_head: dict) -> dict:
    """The depth of the shallowest tree of each head that derives a token
    string, where a step adds a level when it names a rule and none when it
    does not; heads that derive none get no entry.  This is the
    counter-based worklist of linear-time Horn satisfiability (Dowling &
    Gallier 1984) run one depth at a time: each step counts its kids of
    unknown depth, and when the last of them gets the depth being settled,
    the step offers its head that depth, or the next one if it names a
    rule.  A head keeps the first depth it is offered."""
    steps = [s for ss in by_head.values() for s in ss]
    users: dict[Any, list[int]] = {}  # node -> steps with it as a kid, per occurrence
    now: list = []  # steps that can give their head the depth being settled
    later: list = []  # steps that can give it the next depth
    for i, step in enumerate(steps):
        for b in step[3]:
            users.setdefault(b, []).append(i)
        if not step[3]:
            (now if step[2] is None else later).append(step)
    missing = [len(s[3]) for s in steps]  # kids of each step of unknown depth
    low: dict = {}
    depth = 0
    while now or later:
        if not now:
            now, later, depth = later, [], depth + 1
        head = now.pop()[0]
        if head not in low:
            low[head] = depth
            for i in users.get(head, ()):
                missing[i] -= 1
                if missing[i] == 0:
                    (now if steps[i][2] is None else later).append(steps[i])
    return low


def _lookup(rules) -> dict:
    """The steps of each head of a forest built by hand: each rule with its
    body's nodes, the entries that are not token strings."""
    by_head: dict[Any, list[tuple]] = {}
    for head, body, rule in rules:
        kids = tuple(b for b in body if not isinstance(b, str))
        by_head.setdefault(head, []).append((head, body, rule, kids))
    return by_head


_CLOSE = object()  # marks, on the walk's stack, the node below it as done


def _walk(starts, rules_of) -> tuple[dict, list, bool]:
    """Walk depth-first from each start, on an explicit stack, asking
    `rules_of` once for the steps (or None) of each node reached: the nodes
    reached that have steps, with them, and all nodes reached, both
    children first, and whether the walk meets a cycle (an edge back to a
    node still open)."""
    by_head: dict = {}
    finished: dict = {}  # False while the node is open
    order = []
    cyclic = False
    stack = list(starts)
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
                for b in r[3]:
                    done = finished.get(b)
                    if done is None:
                        stack.append(b)
                    elif not done:
                        cyclic = True
    return by_head, order, cyclic


@dataclass(frozen=True)
class TreeCount:
    value: Optional[int]  # None when infinite
    infinite: bool


def count_trees(f: ParseForest) -> TreeCount:
    """Number of trees, by one sweep over the children-first order of the
    walk in `reduce_forest`: a head's count sums, over its steps, the
    product of their child nodes' counts.

    A reduced forest keeps its walk; any other forest is reduced first.  A
    cycle of the reduced forest pumps trees without end, so it means the
    tree set is infinite.  Counts are exact big integers, never floats.
    """
    by_head, order, cyclic = f._graph or reduce_forest(f)._graph
    if cyclic:
        return TreeCount(None, True)
    counts: dict[Any, int] = {}
    for head in order:
        total = 0
        for r in by_head.get(head, ()):
            product = 1
            for b in r[3]:
                product *= counts[b]
            total += product
        counts[head] = total
    return TreeCount(counts[f.start], False)


def _gen_trees(start, limit: int, by_head, need, top: int):
    """Forest trees rooted at start, at most `limit` deep, each as its steps
    in preorder with its exact depth, in rule order with the leftmost choice
    varying slowest: a backtracking search on explicit stacks, so tree depth
    costs no recursion.  Depth is that of the edited tree: a step adds a
    level when it names a grammar rule and none when it does not.  `need`
    gives, per head, the depth of the shallowest tree through each of its
    steps, and `top` the largest of them; a step that needs more than the
    budget left is skipped, so the search meets no dead end.  With `top` 0,
    as for an acyclic forest, whose budget never runs out, none is."""
    trail: list = []  # (step, depth budget left below it), in preorder
    retry: list = []  # (goals, next step index, trail length) per open choice
    goals = (start, limit, None)  # linked list of nodes left to expand
    i = 0
    while True:
        if goals is None:
            yield [s for s, _ in trail], limit - min(left for _, left in trail)
        else:
            head, left, rest = goals
            steps = by_head.get(head, ())
            while left < top and i < len(steps) and need[head][i] > left:
                i += 1
            if i < len(steps):
                if i + 1 < len(steps):
                    retry.append((goals, i + 1, len(trail)))
                step = steps[i]
                left -= step[2] is not None
                trail.append((step, left))
                for b in reversed(step[3]):
                    rest = (b, left, rest)
                goals, i = rest, 0
                continue
        if not retry:
            return
        goals, i, n = retry.pop()
        del trail[n:]


def _choose_trees(f: ParseForest, k: int) -> list[list[tuple]]:
    """Up to k forest trees, each as its steps in preorder."""
    by_head, order, cyclic = f._graph or reduce_forest(f)._graph
    if cyclic:
        # Every node of the reduced forest derives a token string and is
        # reached, so each cycle pumps a deeper tree and the rounds end,
        # unless the steps of some cycle name no rule: those pump trees of
        # one depth.
        if _walk(order, lambda h: [s for s in by_head.get(h, ()) if s[2] is None])[2]:
            raise ForestError(f"no tree editor for {f.origin!r}: rule-less steps form a cycle")
        low = _lowest(by_head)
        need = {
            h: [max((low[b] for b in s[3]), default=0) + (s[2] is not None) for s in steps]
            for h, steps in by_head.items()
        }
        top = max(map(max, need.values()))
        depths = itertools.count(low[f.start])
        rounds = ((depth, _gen_trees(f.start, depth, by_head, need, top)) for depth in depths)
        found = (t for depth, trees in rounds for t, d in trees if d == depth)
    else:
        found = (t for t, _ in _gen_trees(f.start, len(order) + 1, by_head, {}, 0))
    return list(itertools.islice(found, k))


def extract_trees(f: ParseForest, k: int) -> list[ParseTree]:
    """Up to k trees, edited back into trees of the original grammar.

    Reads the walk of `reduce_forest`, as `count_trees` does.  Acyclic
    forests enumerate in rule order; cyclic ones in rounds of increasing
    depth, so the infinitely many trees come out shallowest first.  Depth
    is `trees.tree_depth` of the tree the fold builds, before an augmented
    start node is dropped: a step adds a level when it names a grammar rule
    and none when it does not.  A cycle whose steps all name no rule would
    pump trees of one depth without end, so it raises ForestError.  Search
    and editing run on explicit stacks, so no tree is too deep to extract.
    """
    if k <= 0:
        raise ValueError("tree budget must be positive")
    return [_edit(f, t) for t in _choose_trees(f, k)]


def _edit(f: ParseForest, trail: list[tuple]) -> ParseTree:
    """Fold a forest tree, given as its steps in preorder, children first,
    into the list of grammar trees each node yields: a token yields its
    leaf, and a step the trees of its body in order, as one node of the
    rule it completes or, when it completes none, as they are.  So spines
    (partial dotted items, aux cells, the axiom) splice their trees into
    the node above.  The start node yields one tree, unless no step names
    a rule (a machine built by hand), which raises ForestError."""
    done: list = []
    for _, body, rule, _ in reversed(trail):
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
