"""Pushdown automata with stack-suffix rewriting transitions.

A transition (pop, read, push) applies to a configuration when ``pop`` is a
suffix of the stack and ``read`` is the next stretch of input; it replaces
that suffix with ``push`` and advances past the read tokens.  No separate
finite control: all state lives on the stack.  Recognition is reaching a
designated final stack from the initial one after consuming the whole input.

Stack symbols are opaque hashable values.  Grammar compilers push
`Interned` ones; what matters here is only equality and str().
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, NamedTuple, Optional


class Interned:
    """Hash-consed stack symbol (Filliâtre & Conchon 2006): ``cls(*key)``
    returns the one instance of `cls` for that key, from the class's own
    table, so instances compare and hash by identity.  A subclass lists its
    key fields first in ``__slots__``, and `_derive(*key)` gives the slots
    after them, once per key.  Instances are immutable; copies and pickles
    give back the same object.  No subclass defines ``__eq__``, ``__hash__``
    or an ordering: any rich comparison sends every ``==`` through a
    Python-level slot, which the engine's loops would pay on each compare."""

    __slots__ = ("_key",)
    _derive = staticmethod(lambda *key: ())

    def __init_subclass__(cls):
        cls._table = {}

    def __new__(cls, *key):
        self = cls._table.get(key)
        if self is not None:
            return self
        self = object.__new__(cls)
        for name, value in zip(("_key",) + cls.__slots__, (key,) + key + cls._derive(*key)):
            object.__setattr__(self, name, value)
        # setdefault keeps the table's instance if another thread won the race.
        return cls._table.setdefault(key, self)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), self._key

    def __repr__(self) -> str:
        fields = zip(type(self).__slots__, self._key)
        return f"{type(self).__name__}({', '.join(f'{n}={v!r}' for n, v in fields)})"


class Marker(Interned):
    """Display-only stack symbol (bottom markers and the like), one per
    name.  A marker never equals a plain string, so it cannot collide with
    a grammar symbol spelled the same way."""

    __slots__ = ("name",)

    def __str__(self) -> str:
        return self.name

    __repr__ = __str__


class Transition(NamedTuple):
    pop: tuple
    read: tuple[str, ...]
    push: tuple

    def __str__(self) -> str:
        return f"{_seq(self.pop)} , {_seq(self.read)} , {_seq(self.push)}"


class Configuration(NamedTuple):
    stack: tuple
    position: int

    def __str__(self) -> str:
        return f"{_seq(self.stack)} | {self.position}"


class Run(NamedTuple):
    """An accepting derivation, reported as the configuration sequence."""

    steps: tuple[Configuration, ...]


def render_symbol(s) -> str:
    """Compound stack symbols (dotted rules and the like) render with
    spaces; parenthesize those so symbol sequences stay readable."""
    text = str(s)
    return f"({text})" if " " in text else text


def _seq(symbols) -> str:
    return " ".join(render_symbol(s) for s in symbols) if symbols else "eps"


@dataclass(frozen=True)
class Pda:
    input_alphabet: frozenset
    stack_symbols: frozenset
    initial: Any
    final: Any
    transitions: tuple[Transition, ...]
    # Lazy reductions of shift-reduce automata (`lr.Reduction`), in place of
    # their multi-pop transitions.  Each expands itself, into the stacks it
    # leaves for the simulator and into the table engine's multi-pop entries.
    reductions: tuple = ()
    automaton: Any = field(default=None, compare=False)
    # Grammar this machine was compiled from, when there is one.  Needed to
    # turn charts back into grammar trees.
    grammar: Any = field(default=None, compare=False)
    # The grammar rule each step completes, by what the step goes via: a
    # transition, a lazy reduction, or None for the axiom (when the initial
    # symbol is a complete rule).  Forests name them; other steps complete none.
    completes: dict = field(default_factory=dict, repr=False, compare=False)
    # When set, the initial symbol is an imaginary bottom marker that no
    # transition pops, and acceptance means the stack is exactly
    # (initial, final) rather than (final,).
    bottom_marker_start: bool = False
    # Which compiler produced this machine ("topdown", "bottomup", "lr",
    # "lr-binarized") or "pda" for hand-built ones.  It labels the machine's
    # forests (`ParseForest.origin`).
    kind: str = "pda"
    # The table engine's transition and reduction indexes, built on the
    # first run.
    _triggers: Any = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for sym in (self.initial, self.final):
            if sym not in self.stack_symbols:
                raise ValueError(f"{sym} is not a stack symbol")
        for t in self.transitions:
            for sym in tuple(t.pop) + tuple(t.push):
                if sym not in self.stack_symbols:
                    raise ValueError(f"transition {t}: unknown stack symbol {sym}")
            for a in t.read:
                if a not in self.input_alphabet:
                    raise ValueError(f"transition {t}: unknown input symbol {a}")

    def accept_stack(self) -> tuple:
        if self.bottom_marker_start:
            return (self.initial, self.final)
        return (self.final,)


def pda_size(p: Pda) -> int:
    """Sum over transitions of |pop| + |read| + |push|."""
    return sum(len(t.pop) + len(t.read) + len(t.push) for t in p.transitions)


def applicable(t: Transition, c: Configuration, tokens) -> Optional[Configuration]:
    """The successor configuration, or None when the transition doesn't apply."""
    k = len(t.pop)
    if k and c.stack[-k:] != t.pop:
        return None
    m = len(t.read)
    if m and tuple(tokens[c.position : c.position + m]) != t.read:
        return None
    return Configuration(c.stack[: len(c.stack) - k] + tuple(t.push), c.position + m)


class SimulationResult(NamedTuple):
    runs: tuple[Run, ...]
    truncated: bool

    @property
    def verdict(self) -> str:
        if self.runs:
            return "yes"
        return "bound-exceeded" if self.truncated else "no"


def simulate(
    p: Pda,
    tokens,
    *,
    max_steps: int = 1_000_000,
    max_stack_depth: int | None = None,
    max_runs: int = 64,
) -> SimulationResult:
    """Depth-first search over the successor relation, transitions tried in
    declaration order, on an explicit stack.

    Runs never revisit a configuration already on the current branch (a run
    that did would contain a removable loop) and end at the first accepting
    configuration reached on a branch.  `truncated` says a bound cut the
    search short (`max_steps` steps taken, a configuration deeper than
    `max_stack_depth` skipped, or `max_runs` runs found), so `runs` may miss
    some.  With `max_runs` above 1 the search goes on past the first
    accepting run, which can cost far more: on a right list it backtracks
    through quadratically many dead ends.  For a verdict alone, pass 1.
    """
    tokens = tuple(tokens)
    n = len(tokens)
    if max_stack_depth is None:
        max_stack_depth = 4 * (n + 1) * len(p.stack_symbols) + 8
    accept = p.accept_stack()
    runs: list[Run] = []
    steps = 0
    truncated = False
    start = Configuration((p.initial,), 0)
    if start.stack == accept and start.position == n:
        return SimulationResult((Run((start,)),), False)

    def successors(c: Configuration):
        for t in p.transitions:
            nxt = applicable(t, c, tokens)
            if nxt is not None:
                yield nxt
        for red in p.reductions:
            for stack in red.expand(c.stack):
                yield Configuration(stack, c.position)

    # The current branch, with the untried successors of each configuration
    # on it: an explicit stack, so branch length is not bounded by recursion.
    path = [start]
    on_path = {start}
    frames = [successors(start)]
    while frames:
        nxt = next(frames[-1], None)
        if nxt is None:
            frames.pop()
            on_path.discard(path.pop())
            continue
        if steps >= max_steps:
            truncated = True
            break
        steps += 1
        if nxt in on_path:
            continue
        if len(nxt.stack) > max_stack_depth:
            truncated = True
            continue
        if nxt.stack == accept and nxt.position == n:
            runs.append(Run((*path, nxt)))
            if len(runs) >= max_runs:
                truncated = True
                break
            continue
        path.append(nxt)
        on_path.add(nxt)
        frames.append(successors(nxt))
    return SimulationResult(tuple(runs), truncated)


def dump_pda(p: Pda) -> str:
    lines = [f"init: {render_symbol(p.initial)}", f"final: {render_symbol(p.final)}"]
    lines.extend(str(t) for t in p.transitions)
    for red in p.reductions:
        lines.append(f"reduce: {red}")
    return "\n".join(lines)


def dump_run(r: Run) -> str:
    return "\n".join(str(c) for c in r.steps)
