"""Seeded inputs of the four workloads.

Everything here is built from the seed and from grammar text alone; nothing
imports tabparse, so the program under test sees only the generated inputs.
A workload is a list of cases: one grammar (as file text), the algorithms
that run it and the token sequences it is run on.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
GRAMMARS = HERE.parent / "demos" / "grammars"

# Ladders.  Token counts grow geometrically so the growth exponents have a
# spread of n to fit against; the top rungs set the cost of a pass.
EXPR_OPERANDS = (3, 5, 9, 17, 33)  # 5 .. 65 tokens; 33 operands: 17-digit count
CNF_LENGTHS = (4, 8, 16, 32)
LIST_LENGTHS = (12, 25, 50, 100, 150)
# Earley and topdown extraction recurse once per tree level and raise
# RecursionError on the left list at this length; the rung does not depend
# on the seed, so the two failures are a fixed share of every pass.
LEFT_FAULT_LENGTH = 200
LANGUAGE_LENGTHS = (50, 100, 200, 400, 600)
LANGUAGE_MAX_DEPTH = 120  # deepest derivation tree a sampled program may have
SWEEP_GRAMMARS = 200
SWEEP_MAX_LEN = 5

TREE_BUDGET = 3  # k of extract_trees(k)

LEFT_LIST = "L -> L a\nL -> a\n"
RIGHT_LIST = "L -> a L\nL -> a\n"


@dataclass(frozen=True)
class Case:
    name: str
    kind: str  # "expr" | "cnf" | "left" | "right" | "language" | "sweep"
    text: str  # grammar file text
    algorithms: tuple[str, ...]
    inputs: tuple[tuple[str, ...], ...]
    # Indexes into `inputs` of copies corrupted on purpose (language only).
    corrupted: frozenset[int] = frozenset()


def read_rules(text: str) -> list[tuple[str, tuple[str, ...]]]:
    """Rules of grammar text in the file format of `demos/grammars`."""
    rules = []
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            rules.append((tokens[0], tuple(tokens[2:])))
    return rules


def _text(rules) -> str:
    return "".join(f"{lhs} -> {' '.join(rhs)}".rstrip() + "\n" for lhs, rhs in rules)


# ------------------------------------------------------------------ ambiguous


def _expression(rng: random.Random, operands: int) -> tuple[str, ...]:
    toks = ["a"]
    for _ in range(operands - 1):
        toks += [rng.choice("+*"), "a"]
    return tuple(toks)


def _cnf_string(rng: random.Random, n: int, rules) -> tuple[str, ...]:
    """n/2 pairs, each `a b` or `b a`, drawn until the grammar accepts; of
    nine such strings, the one of median work in the inside recursion.
    Uniform strings of length 32 vary fourfold in chart size from seed to
    seed; pairs keep half the tokens a's and no run longer than two, and
    the median of nine keeps each rung's string typical."""
    drawn = []
    while len(drawn) < 9:
        toks = tuple(x for _ in range(n // 2) for x in rng.choice(("ab", "ba")))
        count, work = inside(rules, toks)
        if count:
            drawn.append((work, toks))
    drawn.sort()
    return drawn[4][1]


def inside(rules, toks) -> tuple[int, int]:
    """Trees of a grammar in normal form over `toks` by the inside
    recursion, summing left count times right count over every split of
    every span, and the number of (span, split, rule) steps that applied."""
    n = len(toks)
    if n == 0:
        return 0, 0
    work = 0
    cells: dict[tuple[int, int], dict[str, int]] = {}
    for i, tok in enumerate(toks):
        cell: dict[str, int] = {}
        for lhs, rhs in rules:
            if rhs == (tok,):
                cell[lhs] = cell.get(lhs, 0) + 1
        cells[(i, i + 1)] = cell
    binary = [(lhs, rhs) for lhs, rhs in rules if len(rhs) == 2]
    for width in range(2, n + 1):
        for i in range(n - width + 1):
            j = i + width
            cell = {}
            for k in range(i + 1, j):
                left, right = cells[(i, k)], cells[(k, j)]
                for lhs, (b, c) in binary:
                    if b in left and c in right:
                        cell[lhs] = cell.get(lhs, 0) + left[b] * right[c]
                        work += 1
            cells[(i, j)] = cell
    return cells[(0, n)].get(rules[0][0], 0), work


def ambiguous(seed: int, smoke: bool = False) -> list[Case]:
    rng = random.Random(seed)
    expr_text = (GRAMMARS / "expr.cfg").read_text()
    cnf_text = (GRAMMARS / "cnf.cfg").read_text()
    operands = EXPR_OPERANDS[:3] if smoke else EXPR_OPERANDS
    lengths = CNF_LENGTHS[:2] if smoke else CNF_LENGTHS
    cnf_rules = read_rules(cnf_text)
    return [
        Case(
            "expr",
            "expr",
            expr_text,
            ("earley", "topdown", "glr", "glr-binarized"),
            tuple(_expression(rng, k) for k in operands),
        ),
        Case(
            "cnf",
            "cnf",
            cnf_text,
            ("cky", "bottomup", "earley", "topdown"),
            tuple(_cnf_string(rng, n, cnf_rules) for n in lengths),
        ),
    ]


# ---------------------------------------------------------------------- lists


def lists(seed: int, smoke: bool = False) -> list[Case]:
    rng = random.Random(seed)
    ladder = LIST_LENGTHS[:2] if smoke else LIST_LENGTHS
    # A small seeded jitter on every rung but the fault rung.
    lengths = [n + rng.randrange(3) for n in ladder]
    algorithms = ("earley", "topdown", "glr")
    left = [("a",) * n for n in lengths]
    if not smoke:
        left.append(("a",) * LEFT_FAULT_LENGTH)
    return [
        Case("left", "left", LEFT_LIST, algorithms, tuple(left)),
        Case("right", "right", RIGHT_LIST, algorithms, tuple(("a",) * n for n in lengths)),
    ]


# ------------------------------------------------------------------- language


class _Sampler:
    """Random derivation from a grammar, non-recursive alternatives
    preferred, falling back to the shallowest alternative past a depth."""

    MAX_DEPTH = 14

    def __init__(self, rules, rng: random.Random):
        self.rng = rng
        self.by_lhs: dict[str, list[tuple[str, ...]]] = {}
        for lhs, rhs in rules:
            self.by_lhs.setdefault(lhs, []).append(rhs)
        height: dict[str, int] = {}
        changed = True
        while changed:
            changed = False
            for lhs, rhs in rules:
                if all(x not in self.by_lhs or x in height for x in rhs):
                    h = 1 + max((height.get(x, 0) for x in rhs), default=0)
                    if h < height.get(lhs, h + 1):
                        height[lhs] = h
                        changed = True
        self.height = height
        self.nodes = 0  # nonterminal expansions so far

    def _rhs_height(self, rhs) -> int:
        return max((self.height.get(x, 0) for x in rhs), default=0)

    def expand(self, symbol: str, depth: int, out: list[str]) -> int:
        """Append a derivation's tokens to `out`; return the tree's depth."""
        alts = self.by_lhs.get(symbol)
        if alts is None:
            out.append(symbol)
            return 0
        if depth >= self.MAX_DEPTH:
            low = min(self._rhs_height(rhs) for rhs in alts)
            pool = [rhs for rhs in alts if self._rhs_height(rhs) == low]
        else:
            flat = [rhs for rhs in alts if symbol not in rhs]
            deep = [rhs for rhs in alts if symbol in rhs]
            pool = deep if deep and self.rng.random() < 0.25 else flat
        rhs = self.rng.choice(pool)
        self.nodes += 1
        return 1 + max((self.expand(x, depth + 1, out) for x in rhs), default=0)


def _program(sampler: _Sampler, target: int) -> tuple[int, tuple[str, ...]]:
    """Top-level statements until the program has `target` to 1.03 times
    `target` tokens; a statement that would overshoot is drawn again.
    Returns the program and the nodes of its derivation.

    `stmts -> stmts stmt` nests one level per top-level statement, so the
    program's tree is that many levels deeper than its deepest statement;
    programs past LANGUAGE_MAX_DEPTH are drawn again.
    """
    limit = int(target * 1.03)
    while True:
        toks: list[str] = []
        count, deepest, nodes = 0, 0, 0
        while len(toks) < target:
            stmt: list[str] = []
            before = sampler.nodes
            depth = sampler.expand("stmt", 0, stmt)
            if len(toks) + len(stmt) <= limit:
                toks += stmt
                count += 1
                deepest = max(deepest, depth)
                nodes += sampler.nodes - before
        if count + deepest + 2 <= LANGUAGE_MAX_DEPTH and _closers(toks):
            return nodes + count + 1, tuple(toks)


def _closers(toks) -> list[int]:
    """Closing braces not followed by `else`."""
    return [i for i, t in enumerate(toks) if t == "}" and toks[i + 1 : i + 2] != ("else",)]


def _corrupt(rng: random.Random, toks: tuple[str, ...]) -> tuple[str, ...]:
    """Delete one closing brace not followed by `else`.  The statements
    after it then read as the rest of the open block, so the error shows
    only at the end of the input and a rejected parse covers the whole
    program, whatever the seed.  (Before `else` the error would show at
    once: a 600-token copy was rejected in 5 ms instead of 80.)"""
    at = rng.choice(_closers(toks))
    return toks[:at] + toks[at + 1 :]


def language(seed: int, smoke: bool = False) -> list[Case]:
    rng = random.Random(seed)
    text = (HERE / "language.cfg").read_text()
    sampler = _Sampler(read_rules(text), rng)
    inputs = []
    corrupted = set()
    for target in LANGUAGE_LENGTHS[:2] if smoke else LANGUAGE_LENGTHS:
        # Of five draws, the one of median derivation size per token: the
        # parse work of a program follows its derivation more than its length.
        drawn = sorted(
            (nodes / len(toks), toks) for nodes, toks in (_program(sampler, target) for _ in range(5))
        )
        program = drawn[2][1]
        inputs.append(program)
        corrupted.add(len(inputs))
        inputs.append(_corrupt(rng, program))
    return [
        Case(
            "language",
            "language",
            text,
            ("earley", "topdown", "glr", "glr-binarized"),
            tuple(inputs),
            frozenset(corrupted),
        )
    ]


# ---------------------------------------------------------------------- sweep
# The 200 random grammars of acceptance criterion 08, drawn the same way from
# the same fixed seed: at most four nonterminals and eight rules, terminals
# a and b, 40% in normal form; the general ones may have empty and cyclic
# rules.  A population drawn from the run's seed instead moved every
# end-to-end metric by 25-35% between quartiles over five seeds, because a
# few grammars of each draw set most of its cost.  So the run's seed renames
# the symbols (a permutation of the nonterminals, possibly a <-> b) and
# shuffles the order of the grammars: new inputs, the same work.

SWEEP_POPULATION_SEED = 20260823


def _dedupe(rules):
    return list(dict.fromkeys(rules))


def _random_general(rng: random.Random):
    nts = ["S", "A", "B", "C"][: rng.randint(1, 4)]
    lhss = ["S"] + [rng.choice(nts) for _ in range(rng.randint(1, 8) - 1)]
    pool = sorted(set(lhss)) + ["a", "b"]
    rules = []
    for lhs in lhss:
        length = rng.choice((0, 1, 1, 2, 2, 3))
        rules.append((lhs, tuple(rng.choice(pool) for _ in range(length))))
    return _dedupe(rules)


def _random_cnf(rng: random.Random):
    nts = ["S", "A", "B", "C"][: rng.randint(1, 4)]
    lhss = ["S"] + [rng.choice(nts) for _ in range(rng.randint(1, 8) - 1)]
    ruled = sorted(set(lhss))
    rules = []
    for lhs in lhss:
        if rng.random() < 0.5:
            rules.append((lhs, (rng.choice("ab"),)))
        else:
            rules.append((lhs, (rng.choice(ruled), rng.choice(ruled))))
    return _dedupe(rules)


def sweep_algorithms(rules) -> tuple[str, ...]:
    """Every algorithm that accepts the grammar."""
    lhss = {lhs for lhs, _ in rules}
    cnf = all(
        (len(rhs) == 1 and rhs[0] not in lhss)
        or (len(rhs) == 2 and rhs[0] in lhss and rhs[1] in lhss)
        for _, rhs in rules
    )
    epsilon_free = all(rhs for _, rhs in rules)
    algorithms = ["earley", "topdown"]
    if cnf:
        algorithms += ["cky", "bottomup"]
    if epsilon_free:
        algorithms += ["glr", "glr-binarized"]
    return tuple(algorithms)


def sweep(seed: int, smoke: bool = False) -> list[Case]:
    population = random.Random(SWEEP_POPULATION_SEED)
    grammars = [
        _random_cnf(population) if population.random() < 0.4 else _random_general(population)
        for _ in range(SWEEP_GRAMMARS)
    ]
    rng = random.Random(seed)
    names = ["S", "A", "B", "C"]
    rename = dict(zip(names, rng.sample(names, len(names))))
    if rng.random() < 0.5:
        rename.update(a="b", b="a")
    order = list(range(20 if smoke else SWEEP_GRAMMARS))
    rng.shuffle(order)
    cases = []
    for gi in order:
        rules = [(rename.get(l, l), tuple(rename.get(x, x) for x in rhs)) for l, rhs in grammars[gi]]
        lhss = {lhs for lhs, _ in rules}
        alphabet = sorted({x for _, rhs in rules for x in rhs if x not in lhss})
        strings = tuple(
            toks
            for n in range((3 if smoke else SWEEP_MAX_LEN) + 1)
            for toks in itertools.product(alphabet, repeat=n)
        )
        cases.append(Case(f"g{gi:03d}", "sweep", _text(rules), sweep_algorithms(rules), strings))
    return cases


WORKLOADS = {
    "ambiguous": ambiguous,
    "lists": lists,
    "language": language,
    "sweep": sweep,
}
