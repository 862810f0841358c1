"""Table-driven recognition for stack machines.

Instead of simulating stacks one at a time, the engine derives *items*
(lower, j, upper, i): somewhere in the search space there is a reachable
configuration whose stack has `upper` directly above `lower`, where `lower`
was on top after reading j tokens and `upper` on top after reading i.  The
items of all reachable stacks form a graph over (position, symbol) vertices
that shares common stack suffixes, so the table stays polynomial while the
set of stacks it represents may be exponential or infinite.

The chart and the loop follow `Deduction`: the chart holds the axiom
(bot, 0, initial, 0) and its goal, the arc (lower, 0, upper, n) of the
accepting stack's top two symbols over all n tokens, and the loop owns its
agenda.  An item is matched once, when it is popped, so each inference
fires once.  That makes the engine insensitive to agenda order and spares
it any special-casing for empty input or cyclic machines.

Each derived item records how it was inferred (rule tag, antecedent items,
transition).  These justifications are what parse forests are built from.
The pushes F1, F4 and F6 are positional: their consequent depends only on
the top vertex (up, i), not on the arc that reached it.  So they fire once
per vertex, when the first arc ending there is popped, and their
justifications carry no antecedents.  `fired`, read off the chart,
counts the recorded justifications, one per inference: repeats of a push
for each further arc into its vertex are not made.

Everything that fires on a popped arc is found through the symbol on its
top: one trigger record per upper symbol holds that symbol's pushes, swaps
and F3 pops (`_trigger_tables`).  An F3 pop pairs two arcs, and either may
be popped last.  The arc beneath finds its pairs through an index of the
arcs F3 transitions pop, keyed by their lower vertex (lower, lower_pos) and
then by upper symbol, so it makes one lookup for its top vertex and skips
the F3 loop when no pair rests there, instead of scanning every arc above
that vertex; the pair finds the arcs beneath through the arcs ending at
its lower vertex.

An F7 transition pops more than two symbols, so it fires on a linked path
of arcs that spells them out.  So do the lazy reductions of a shift-reduce
machine, one arc per right-hand-side symbol, and its acceptance.  The
three share one table, keyed by the popped arc, and one loop: each popped
item looks up the path cells it can fill and walks the rest of each path
from there (`_chains`).  Reductions supply their own entries.

An index exists to serve a lookup, so the loop files a popped arc only
where some inference will look it up.  An arc goes into `by_upper_at`, the
index by upper vertex, only when the record of its top symbol has pushes:
its own F1 or F4 ones, or the F6 pushes every record holds.  This index
serves three lookups: the pushes' first-arc test, the F3 pair's lookup of
the arcs beneath it, and the backward steps of `_chains`.  The last two
look only at the lower vertex of an existing arc.  Every such vertex but
the axiom's, on which no arc ends, exists because a push fired onto it;
so its symbol has pushes, and every arc ending there is filed.  A topdown
machine thus never files its complete or terminal-goal dotted rules, an
LR machine its states without shifts, and a binarized one its aux cells.
An arc goes into `by_lower_at`, the index by lower vertex, only when the
machine has multi-pop entries, for the forward steps of `_chains`.  It
goes into `pairs_at`, under its lower vertex and upper symbol, only when
some F3 transition pops it as its pair.

Chart format: the saturation loop stores plain tuples and reads them by
position, so no constructor runs per inference.  An item is the tuple
(lower, lower_pos, upper, upper_pos) and a justification the tuple (tag,
antecedents, via).  `Item` and `Justification` are named views of these
tuples: a view equals and hashes like the plain tuple, so `Item(...) in
chart.items` and `chart.justifications[Item(...)]` work, and
`Item._make(entry)` names the fields of a chart entry.  Printing goes
through the views.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Any, NamedTuple

from .pda import Marker, Pda, Transition, render_symbol

BOTTOM = Marker("bot")


class UnsupportedTransition(ValueError):
    """The machine falls outside what the table rules cover: a transition
    of another shape, or a value the engine reserves: `BOTTOM`, the axiom's
    lower end, and None, its wildcard for stack and input symbols."""


class Item(NamedTuple):
    """Named view of a chart item, which the chart stores as a plain tuple."""

    lower: Any
    lower_pos: int
    upper: Any
    upper_pos: int

    def __str__(self) -> str:
        return (
            f"( {render_symbol(self.lower)} , {self.lower_pos} , "
            f"{render_symbol(self.upper)} , {self.upper_pos} )"
        )


class Justification(NamedTuple):
    """Named view of one way an item was inferred, stored as a plain tuple."""

    tag: str
    antecedents: tuple[Item, ...]
    via: Any  # Transition, reduction descriptor, or None for the axiom


class Deduction:
    """Chart of a deduction system (Shieber, Schabes & Pereira 1995,
    "Principles and implementation of deductive parsing"): the tokens, the
    justifications and the goal entry.

    `justifications` maps each entry to the ways it was inferred; the
    engine's and Earley's start with the axiom.  Each chart class sets
    `goal`, a plain tuple, once when it is made, and the input is
    recognized when the goal is an entry (`recognized`).  Everything else
    is read off these: `items` is the view of the entries and `fired` the
    number of justifications.

    A saturation loop owns its agenda, made by `_agenda` and holding the
    axiom, and runs inline, `while agenda: item = pop()`.  It fires an
    inference without a call, in one idiom:

        if new in justifications:
            justifications[new].append(just)
        else:
            justifications[new] = [just]
            push(new)  # the agenda's append

    A loop files a popped item in search indexes of its own, not the
    chart's, *before* matching it, and matches it only against items
    already popped.  So an inference fires exactly once, when the last of
    its antecedents is popped, and `fired` counts inferences.  An index
    exists to serve a lookup, so a loop files only the items some inference
    will look up; the `engine` and `earley` module docstrings say which.
    The result is independent of the saturator's `agenda_order` ("lifo" or
    "fifo"); the knob exists to let tests check exactly that.  CKY fills
    the same kind of chart in a fixed order, with no agenda.
    """

    goal: tuple

    def __init__(self, tokens, justifications: dict):
        self.tokens = tuple(tokens)
        self.justifications: dict[Any, list] = justifications
        self.items = justifications.keys()

    @property
    def fired(self) -> int:
        """The number of distinct justifications: one per inference."""
        return sum(map(len, self.justifications.values()))


def recognized(c: Deduction) -> bool:
    return c.goal in c.justifications


def _agenda(c: Deduction, agenda_order: str) -> tuple[deque, Any]:
    """A saturation loop's agenda, holding the chart's one entry, the
    axiom, and its pop: the deque's `pop` under "lifo", `popleft` under
    "fifo"."""
    if agenda_order not in ("lifo", "fifo"):
        raise ValueError(f"unknown agenda order {agenda_order!r}")
    agenda = deque(c.justifications)
    return agenda, agenda.pop if agenda_order == "lifo" else agenda.popleft


class Chart(Deduction):
    """Plain tuples throughout, in the layouts of `Item` and `Justification`;
    the goal is the arc of the accepting stack's top over all the input."""

    justifications: dict[tuple, list[tuple]]

    def __init__(self, pda: Pda, tokens):
        super().__init__(tokens, {(BOTTOM, 0, pda.initial, 0): [("axiom", (), None)]})
        lower, upper = (BOTTOM, *pda.accept_stack())[-2:]
        self.goal = (lower, 0, upper, len(self.tokens))
        self.pda = pda

    def accept_item(self) -> Item:
        return Item._make(self.goal)


def classify_transition(t: Transition) -> str:
    """Sort a transition into the supported families F1..F7.

    F1 push-read, F2 swap-read, F3 pop, F4 push, F5 swap, F6 read-push
    (pops nothing), F7 multi-pop.  Swaps and pops may either keep the symbol
    below the top ("full" forms popping it and pushing it back) or not
    mention it at all (bare forms).  Anything else is rejected.
    """
    np, nr, nu = len(t.pop), len(t.read), len(t.push)
    if nr > 1:
        raise UnsupportedTransition(f"{t}: reads more than one token")
    if nr == 1:
        if np == 0 and nu == 1:
            return "F6"
        if np == 1 and nu == 2 and t.push[0] == t.pop[0]:
            return "F1"
        if np == 1 and nu == 1:
            return "F2"
        if np == 2 and nu == 2 and t.push[0] == t.pop[0]:
            return "F2"
    else:
        if np == 1 and nu == 2 and t.push[0] == t.pop[0]:
            return "F4"
        if np == 1 and nu == 1:
            return "F5"
        if np == 2 and nu == 2 and t.push[0] == t.pop[0]:
            return "F5"
        if np == 2 and nu == 1:
            return "F3"
        if np >= 3 and nu == 2 and t.push[0] == t.pop[0]:
            return "F7"
        if np >= 3 and nu == 1:
            return "F7"
    raise UnsupportedTransition(f"{t}: unsupported shape")


def _chains(item: tuple, uppers, lowers, by_lower_at, by_upper_at) -> list[tuple]:
    """Linked paths of table arcs through `item`, grown forward by one arc
    ending at each of `uppers` in turn, then backward by one arc starting at
    each of `lowers` in turn.  A None entry accepts any symbol.  A path that
    holds `item` again further back is left to the walk from that position,
    so each path is found once.  The multi-pop entries of `_trigger_tables`
    spell out the two walks for each cell their popped arc can fill."""
    chains = [(item,)]
    for want in uppers:
        chains = [
            ch + (nxt,)
            for ch in chains
            for nxt in by_lower_at.get(ch[-1][2:], ())
            if want is None or nxt[2] == want
        ]
    for want in lowers:
        chains = [
            (prev,) + ch
            for ch in chains
            for prev in by_upper_at.get(ch[0][:2], ())
            if (want is None or prev[0] == want) and prev is not item
        ]
    return chains


def _trigger_tables(p: Pda) -> tuple:
    """The engine's indexes, built from the machine alone, once per machine
    and kept on it: one trigger record per upper symbol, the default record,
    the multi-pop table and the repeat flag.

    A record holds, for the symbol on top of a popped arc, everything that
    fires on it: (pushes, swaps, f3, f3_first).  `pushes` are the F1, F6
    and F4 entries (token or None, pushed, step, justification) that push
    onto it, in that family order; they are positional, so their
    justifications are built here once.  `swaps` are the F2 then F5 entries
    (kept lower or None, token or None, replacement, step, tag, transition)
    that replace it; a swap that keeps the symbol below the top names it as
    a filter.  `f3` maps a lower symbol to the F3 entries (pushed,
    transition) that pop the arc (lower, symbol) as their pair, and
    `f3_first` lists the F3 entries (upper of the pair, pushed, transition)
    whose pair has the symbol as its lower end, so the popped arc is the
    one beneath that pair.  Symbols no transition names share the default
    record, which holds only the F6 pushes, since F6 pops nothing.  A
    record's `pushes` also say whether the engine files an arc topped by
    its symbol by upper vertex: only when there are some, since every
    lookup in that index is at a vertex a push made (module docstring).

    `pops` is the multi-pop table: literal F7 transitions, then the lazy
    reductions and acceptance of a shift-reduce machine, all of which fire
    on a linked path of arcs.  It maps a popped arc (lower, upper) to one
    entry (uppers, lowers, tag, via, tops) per path cell that arc can fill.
    `_chains` walks `uppers` and `lowers` from the arc; the consequent runs
    from the path's first lower vertex to its last upper position and
    pushes what `tops` maps that lower symbol to.  The first cell of a
    single-push F7 path may have any lower symbol, so its entry is keyed
    under, and maps, every one.  Reductions, in machine order, add their
    own entries (`lr.Reduction.pop_entries`).

    `repeats` says whether two justifications of one item can make the same
    forest step: the same antecedents and tokens, by two transitions that
    are equal once a kept lower symbol is stripped, one keeping it and the
    other not (F1 beside F6, the full beside the bare form of F2 or F5, a
    two-push F7 beside an F3 or a one-push F7), or by lazy reductions beside
    F3, F5 or F7 transitions.  A transition keeps its lower symbol when it
    pushes two symbols, the first being the one it pops first."""
    if p._triggers is not None:
        return p._triggers
    for sym in (None, BOTTOM):
        if sym in p.stack_symbols:
            raise UnsupportedTransition(f"stack symbol {sym} is reserved by the engine")
    if None in p.input_alphabet:
        raise UnsupportedTransition("input symbol None is reserved by the engine")
    f1, f2, f4, f5, f3_first = (defaultdict(list) for _ in range(5))  # upper -> entries
    family = {"F1": f1, "F2": f2, "F4": f4, "F5": f5}
    f6 = []
    f3 = defaultdict(lambda: defaultdict(list))  # upper -> lower -> (pushed, t)
    pops = defaultdict(list)  # popped arc -> multi-pop entries
    transitions = dict.fromkeys(p.transitions)
    shapes, stripped = set(), set()  # transitions less their kept lower symbol
    for t in transitions:
        shape = classify_transition(t)
        shapes.add(shape)
        if len(t.push) == 2 and t.push[0] == t.pop[0]:
            stripped.add(Transition(t.pop[1:], t.read, t.push[1:]))
        a, step = (t.read[0], 1) if t.read else (None, 0)
        if shape in ("F1", "F4"):
            family[shape][t.pop[0]].append((a, t.push[1], step, (shape, (), t)))
        elif shape in ("F2", "F5"):
            keep = t.pop[0] if len(t.pop) == 2 else None
            family[shape][t.pop[-1]].append((keep, a, t.push[-1], step, shape, t))
        elif shape == "F3":
            f3[t.pop[1]][t.pop[0]].append((t.push[0], t))
            f3_first[t.pop[0]].append((t.pop[1], t.push[0], t))
        elif shape == "F6":
            f6.append((a, t.push[0], step, ("F6", (), t)))
        else:
            # A two-push F7 keeps pop[0] as the lower end of its first cell.
            pop, lo = t.pop, len(t.push) - 1
            tops = dict.fromkeys((pop[0],) if lo else p.stack_symbols | {BOTTOM}, t.push[-1])
            for k in range(lo, len(pop)):
                lowers = tuple(pop[i - 1] if i else None for i in range(k - 1, lo - 1, -1))
                entry = (pop[k + 1 :], lowers, "F7", t, tops)
                for low in (pop[k - 1],) if k else tops:
                    pops[(low, pop[k])].append(entry)
    for red in p.reductions:
        for arc, entry in red.pop_entries(BOTTOM):
            pops[arc].append(entry)
    records = {
        up: (f1[up] + f6 + f4[up], f2[up] + f5[up], dict(f3[up]), f3_first[up])
        for up in {**f1, **f2, **f4, **f5, **f3, **f3_first}
    }
    repeats = not stripped.isdisjoint(transitions) or bool(
        p.reductions and shapes & {"F3", "F5", "F7"}
    )
    tables = (records, (f6, (), {}, ()), dict(pops), repeats)
    object.__setattr__(p, "_triggers", tables)
    return tables


def run_tabular(p: Pda, tokens, agenda_order: str = "lifo") -> Chart:
    """Saturate the table of items for `p` on `tokens`; see `Deduction` for
    the insertion idiom and `agenda_order`."""
    c = Chart(p, tokens)
    agenda, pop = _agenda(c, agenda_order)
    push = agenda.append
    justifications, tokens = c.justifications, c.tokens
    n = len(tokens)
    records, default, pops, _ = _trigger_tables(p)

    # Popped arcs by upper vertex (only those whose top symbol has pushes),
    # by lower vertex (for `_chains` only), and those some F3 transition
    # pops as its pair, by lower vertex, then upper symbol.
    by_upper_at, by_lower_at, pairs_at = {}, {}, {}

    while agenda:
        item = pop()
        low, j, up, i = item
        pushes, swaps, f3, f3_first = records.get(up, default)
        top = (up, i)
        tok = tokens[i] if i < n else None

        # Positional: a push onto vertex (up, i) needs only that the vertex
        # exists, so the first arc ending there fires it, once per vertex.
        # Arcs whose top symbol has no pushes stay out of the index: every
        # lookup below is at the lower vertex of an arc, and a push made it.
        if pushes:
            arcs_in = by_upper_at.get(top)
            if arcs_in is not None:
                arcs_in.append(item)
            else:
                by_upper_at[top] = [item]
                for a, pushed, step, just in pushes:
                    if a is None or a == tok:
                        new = (up, i, pushed, i + step)
                        if new in justifications:
                            justifications[new].append(just)
                        else:
                            justifications[new] = [just]
                            push(new)
        if pops:
            arcs_out = by_lower_at.get((low, j))
            if arcs_out is not None:
                arcs_out.append(item)
            else:
                by_lower_at[(low, j)] = [item]
        # The F3 transitions that pop `item` as their pair, if any; only
        # such arcs are indexed for the F3 loop from below.
        as_pair = f3.get(low)
        if as_pair is not None:
            above = pairs_at.get((low, j))
            if above is None:
                pairs_at[(low, j)] = {up: [item]}
            elif up in above:
                above[up].append(item)
            else:
                above[up] = [item]

        for keep, a, repl, step, tag, t in swaps:
            if (a is None or a == tok) and (keep is None or keep == low):
                new, just = (low, j, repl, i + step), (tag, (item,), t)
                if new in justifications:
                    justifications[new].append(just)
                else:
                    justifications[new] = [just]
                    push(new)

        # Pops need a partner: `item` can be the popped pair itself or the
        # arc beneath it.  An item (q, j, q, j) can be both at once; the
        # first loop matches it with itself, so the second skips that pair.
        if as_pair is not None:
            for q3, t in as_pair:
                for below in by_upper_at.get((low, j), ()):
                    new, just = (below[0], below[1], q3, i), ("F3", (below, item), t)
                    if new in justifications:
                        justifications[new].append(just)
                    else:
                        justifications[new] = [just]
                        push(new)
        above = pairs_at.get(top) if f3_first else None
        if above:
            for q2, q3, t in f3_first:
                for pair in above.get(q2, ()):
                    if pair is not item:
                        new, just = (low, j, q3, pair[3]), ("F3", (item, pair), t)
                        if new in justifications:
                            justifications[new].append(just)
                        else:
                            justifications[new] = [just]
                            push(new)

        # Multi-pop: F7, reductions and acceptance, on each path through
        # `item` in each cell it can fill.  A machine with none of them
        # skips building the (low, up) key.  A path on above `item` needs an
        # arc from its top vertex.
        if pops:
            for uppers, lowers, tag, via, tops in pops.get((low, up), ()):
                if uppers and top not in by_lower_at:
                    continue
                for chain in _chains(item, uppers, lowers, by_lower_at, by_upper_at):
                    first = chain[0]
                    pushed = tops.get(first[0])
                    if pushed is not None:
                        new, just = (first[0], first[1], pushed, chain[-1][3]), (tag, chain, via)
                        if new in justifications:
                            justifications[new].append(just)
                        else:
                            justifications[new] = [just]
                            push(new)
    return c


def _printed_order(c: Chart) -> list[Item]:
    """The items as views, by upper position, lower position and symbol
    text: an order that does not depend on how the agenda ran."""
    return sorted(
        map(Item._make, c.items),
        key=lambda it: (it.upper_pos, it.lower_pos, str(it.upper), str(it.lower)),
    )


def dump_chart(c: Chart) -> str:
    return "\n".join(str(it) for it in _printed_order(c))


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def chart_to_dot(c: Chart) -> str:
    """The item graph in dot format: a vertex per (position, symbol), one
    edge per item pointing from its upper end down to its lower end,
    vertices clustered by position."""
    import re

    names: dict[tuple[int, Any], str] = {}
    used: set[str] = set()

    def node(pos: int, sym) -> str:
        key = (pos, sym)
        if key not in names:
            base = f"p{pos}_" + re.sub(r"[^0-9A-Za-z_]", "_", str(sym))
            name = base
            k = 2
            while name in used:
                name = f"{base}_{k}"
                k += 1
            names[key] = name
            used.add(name)
        return names[key]

    arcs = _printed_order(c)
    vertices = defaultdict(set)
    for it in arcs:
        vertices[it.lower_pos].add(it.lower)
        vertices[it.upper_pos].add(it.upper)
    lines = ["digraph chart {"]
    for pos in sorted(vertices):
        lines.append(f"  subgraph cluster_{pos} {{")
        lines.append(f'    label="{pos}";')
        for sym in sorted(vertices[pos], key=str):
            lines.append(f'    {node(pos, sym)} [label="{_dot_escape(str(sym))}"];')
        lines.append("  }")
    for it in arcs:
        lines.append(
            f"  {node(it.upper_pos, it.upper)} -> {node(it.lower_pos, it.lower)};"
        )
    lines.append("}")
    return "\n".join(lines)
