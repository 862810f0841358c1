"""Parse forests: all trees of an ambiguous parse in one shared grammar.

A forest is itself a context-free grammar whose nonterminals are chart
entries and whose terminals are the input tokens.  Matrix charts yield
span-labelled forests directly; agenda charts yield forests over their
items, one rule per justification, which the tree editors then reshape
into trees of the original grammar.  Read this way a chart is a shared
forest grammar (Billot & Lang 1989) in which every nonterminal derives a
token string: an entry's first justification uses only entries derived
before it, and its forest body is a subset of those antecedents.  So the
builders hand over their rules grouped by head, and `reduce_forest` only
walks what the start node reaches.  Counting and extraction never
enumerate shared substructure twice, so they stay cheap even when the
number of trees is astronomical or infinite.  Both reuse the by-head index,
children-first order and cycle flag that `reduce_forest` finds in its
walk, and both run on explicit stacks, so trees may be of any depth.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
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
    # (by-head index, nodes reached from start children first, cycle flag)
    _graph: Any = field(default=None, init=False, repr=False, compare=False)
    # Set by the chart builders only: the rules by head, in rule order.  It
    # means the rules are grouped by head and every head is productive.
    _by_head: Any = field(default=None, init=False, repr=False, compare=False)


def _chart_forest(entries, start, origin: str, grammar) -> ParseForest:
    """The forest of a chart, from its entries in chart order, each with the
    (body, grammar rule) of every justification.  Two justifications may
    give one body (an Earley item predicted by two parents), so entries
    with several drop repeats."""
    by_head: dict[Any, list[ForestRule]] = {}
    for head, steps in entries:
        if len(steps) > 1:
            steps = dict.fromkeys(steps)
        by_head[head] = [ForestRule(head, body, rule) for body, rule in steps]
    rules = tuple(itertools.chain.from_iterable(by_head.values()))
    f = ParseForest(rules, start, origin, grammar)
    object.__setattr__(f, "_by_head", by_head)
    return f


def _cky_entries(c: CkyChart):
    for pos, token in enumerate(c.tokens):
        yield SpanNode(pos, token, pos + 1), [((token,), None)]
    for start, symbol, end in sorted(c.justifications, key=lambda k: (k[0], k[2], k[1])):
        steps = []
        for just in c.justifications[(start, symbol, end)]:
            if just.split is None:
                body = (SpanNode(start, c.tokens[start], end),)
            else:
                body = (
                    SpanNode(start, just.rule.rhs[0], just.split),
                    SpanNode(just.split, just.rule.rhs[1], end),
                )
            steps.append((body, just.rule))
        yield SpanNode(start, symbol, end), steps


def build_forest_cky(c: CkyChart) -> ParseForest:
    start = SpanNode(0, c.grammar.start, len(c.tokens))
    return _chart_forest(_cky_entries(c), start, "cky", c.grammar)


def _earley_body(just) -> tuple[tuple, None]:
    if just.tag in ("init", "predict"):
        return (), None
    if just.tag == "scan":
        return (just.antecedents[0], just.token), None
    return just.antecedents, None


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
    if isinstance(c, EarleyChart):
        order = sorted(c.items, key=lambda it: (it.end, it.origin, str(it.dotted)))
        entries = ((it, [_earley_body(j) for j in c.justifications[it]]) for it in order)
        return _chart_forest(entries, c.final_item(), "earley", c.grammar)
    if isinstance(c, Chart):
        order = sorted(
            c.items,
            key=lambda it: (it.upper_pos, it.lower_pos, str(it.upper), str(it.lower)),
        )
        entries = ((it, [_engine_body(j) for j in c.justifications[it]]) for it in order)
        return _chart_forest(entries, c.accept_item(), c.pda.kind, c.pda.grammar)
    raise ForestError(f"cannot build a forest from {type(c).__name__}")


def reduce_forest(f: ParseForest) -> ParseForest:
    """Drop rules that cannot occur in any complete tree: bottom-up, keep
    heads that derive some token string; top-down, keep what the start node
    reaches through the surviving rules.

    A chart forest needs only the top-down half: every chart entry derives
    a token string, since its first justification uses only entries derived
    before it, so the builders' by-head index is walked as it is.  Any other
    forest, built by hand or rebuilt with `dataclasses.replace`, first takes
    the counter-based worklist of linear-time Horn satisfiability (Dowling &
    Gallier 1984): each rule counts its body nodes not yet known productive,
    and each node, once productive, decrements the rules that use it.

    The top-down half is a depth-first walk whose by-head index,
    children-first order and cycle flag the returned forest keeps for
    `count_trees` and `extract_trees`.  Both halves take time linear in the
    total body length, and the kept rules stay in their original order.
    """
    index = f._by_head
    if index is None:
        usable = _productive(f.rules)
        index = _index(usable)
    order, cyclic = _walk(f.start, index)
    by_head = {h: index[h] for h in order if h in index}
    if f._by_head is None:
        kept = tuple(r for r in usable if r.head in by_head)
    else:
        kept = tuple(r for h, rs in index.items() if h in by_head for r in rs)
    reduced = ParseForest(kept, f.start, f.origin, f.grammar)
    object.__setattr__(reduced, "_graph", (by_head, order, cyclic))
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


def _index(rules) -> dict[Any, list[ForestRule]]:
    by_head: dict[Any, list[ForestRule]] = {}
    for r in rules:
        by_head.setdefault(r.head, []).append(r)
    return by_head


_CLOSE = object()  # marks, on the walk's stack, the node below it as done


def _walk(start, by_head: dict) -> tuple[list, bool]:
    """Walk the by-head index depth-first from start, on an explicit stack:
    the nodes reached, children first, and whether the walk meets a cycle
    (an edge back to a node still open)."""
    finished: dict = {}  # False while the node is open
    order = []
    cyclic = False
    stack = [start]
    while stack:
        head = stack.pop()
        if head is _CLOSE:
            head = stack.pop()
            finished[head] = True
            order.append(head)
        elif head not in finished:
            finished[head] = False
            stack += (head, _CLOSE)
            for r in by_head.get(head, ()):
                for b in r.body:
                    if not isinstance(b, str):
                        done = finished.get(b)
                        if done is None:
                            stack.append(b)
                        elif not done:
                            cyclic = True
    return order, cyclic


def _graph(f: ParseForest) -> tuple[dict, list, bool]:
    """The walk `reduce_forest` keeps; any other forest is walked once."""
    if f._graph is None:
        by_head = _index(f.rules) if f._by_head is None else f._by_head
        object.__setattr__(f, "_graph", (by_head, *_walk(f.start, by_head)))
    return f._graph


@dataclass(frozen=True)
class TreeCount:
    value: Optional[int]  # None when infinite
    infinite: bool


def count_trees(f: ParseForest) -> TreeCount:
    """Number of trees, by one product-sum sweep over the children-first
    order of the walk in `reduce_forest`, which a reduced forest keeps.

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
        counts[head] = sum(
            math.prod(1 if isinstance(b, str) else counts[b] for b in r.body)
            for r in by_head.get(head, ())
        )
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
                for b in reversed(rules[i].body):
                    if not isinstance(b, str):
                        rest = (b, left - 1, rest)
                goals, i = rest, 0
                continue
        if not retry:
            return
        goals, i, n = retry.pop()
        del trail[n:]


def _choose_trees(f: ParseForest, k: int) -> list[list[ForestRule]]:
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


def _edit(f: ParseForest, trail: list[ForestRule]) -> ParseTree:
    """Fold a forest tree, given as its rules in preorder, children first:
    each rule's step gets the edited trees of its body, tokens as is."""
    step = _EDITORS.get(f.origin)
    if step is None:
        raise ForestError(f"no tree editor for {f.origin!r} charts")
    done: list = []
    for r in reversed(trail):
        done.append(step(r, [b if isinstance(b, str) else done.pop() for b in r.body]))
    (tree,) = done
    g = f.grammar
    if g is not None and g.augmented_from is not None and tree.label == g.start:
        (tree,) = tree.children
    return tree


def _span(r: ForestRule, kids: list) -> ParseTree:
    if len(kids) == 1 and isinstance(kids[0], str):
        if r.head.symbol == kids[0]:
            return leaf(kids[0])
        return node(r.head.symbol, (leaf(kids[0]),))
    return node(r.head.symbol, kids)


def _comb(lhs: str, kids: list) -> ParseTree:
    """A dotted item's tree so far: the left-branching spine of partial
    items collects one subtree per consumed right-hand-side symbol."""
    if not kids:
        return node(lhs, ())
    if len(kids) != 2:
        raise ForestError(f"unexpected forest body of {len(kids)} parts")
    spine, last = kids
    return node(lhs, spine.children + (leaf(last) if isinstance(last, str) else last,))


_EDITORS = {
    "cky": _span,
    "earley": lambda r, kids: _comb(r.head.dotted.rule.lhs, kids),
    "topdown": lambda r, kids: _comb(r.head.upper.rule.lhs, kids),
    "bottomup": lambda r, kids: node(
        r.head.upper, [leaf(k) if isinstance(k, str) else k for k in kids]
    ),
    "lr": lambda r, kids: leaf(*kids) if r.rule is None else node(r.rule.lhs, kids),
}


def dump_forest(f: ParseForest, eliminated=frozenset()) -> str:
    entries = []
    for r in f.rules:
        body = " ".join(str(b) for b in r.body) if r.body else "eps"
        entries.append((f"{r.head} -> {body}", r in eliminated))
    entries.sort(key=lambda e: e[0])
    return "\n".join(
        text + (" #eliminated" if gone else "") for text, gone in entries
    )
