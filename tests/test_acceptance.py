"""End-to-end acceptance gate.

Ten independent checks, each printing a single pass/fail line even under
pytest's output capture.  Expected values are frozen literals; the random
sweep is seeded, so every run checks the exact same 200 grammars.
"""

import itertools
import random
import sys
import time

from tabparse.cky import cky_parse, cky_recognized, dump_matrix as cky_matrix
from tabparse.earley import (
    EarleyItem,
    dump_matrix as earley_matrix,
    earley_ambiguous_final,
    earley_parse,
    earley_recognized,
)
from tabparse.engine import BOTTOM, Item, Justification, recognized, run_tabular
from tabparse.forest import (
    build_forest_cky,
    build_forest_items,
    count_trees,
    dump_forest,
    extract_trees,
    reduce_forest,
)
from tabparse.grammar import (
    Grammar,
    Rule,
    augment_start,
    has_epsilon_rules,
    is_cnf,
    parse_grammar,
)
from tabparse.lr import binarize_reductions, compile_lr
from tabparse.oracle import enumerate_trees, recognizes
from tabparse.pda import dump_run, simulate
from tabparse.strategies import compile_topdown
from tabparse.trees import render_tree, tree_yield, validate_tree

from conftest import CNF_TEXT, EXPR_TEXT, SPS_TEXT, make_branching_pda


def _gate(capsys, num: int, desc: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    with capsys.disabled():
        print(f"criterion {num:02d} {status} {desc}", file=sys.stdout, flush=True)
    assert not failures, f"criterion {num:02d}: " + "; ".join(failures)


def _check(failures: list, cond: bool, msg: str) -> None:
    if not cond:
        failures.append(msg)


# ---------------------------------------------------------------- criterion 1

RUN_LEFT = """\
q0 | 0
q0 q1 | 1
q0 q2 | 2
q0 q2 q4 | 3
q0 q2 q4 q5 | 4
q0 q2 q6 | 4
q0 q7 | 4
q9 | 4"""

RUN_RIGHT = """\
q0 | 0
q0 q1 | 1
q0 q3 | 2
q0 q3 q4 | 3
q0 q3 q4 q5 | 4
q0 q3 q6 | 4
q0 q8 | 4
q9 | 4"""


def test_criterion_01(capsys):
    failures = []
    t0 = time.perf_counter()
    res = simulate(make_branching_pda(), "a b c d".split())
    elapsed = time.perf_counter() - t0
    _check(failures, res.verdict == "yes", f"verdict {res.verdict}")
    _check(failures, len(res.runs) == 2, f"{len(res.runs)} runs")
    if len(res.runs) == 2:
        _check(failures, dump_run(res.runs[0]) == RUN_LEFT, "first run differs")
        _check(failures, dump_run(res.runs[1]) == RUN_RIGHT, "second run differs")
    _check(failures, elapsed < 1.0, f"took {elapsed:.3f}s")
    _gate(capsys, 1, "simulator finds exactly the two accepting runs, byte-identical", failures)


# ---------------------------------------------------------------- criterion 2


def test_criterion_02(capsys):
    failures = []
    c = run_tabular(make_branching_pda(), "a b c d".split())
    for it in [
        Item("q0", 0, "q1", 1),
        Item("q0", 0, "q2", 2),
        Item("q0", 0, "q7", 4),
        Item("q2", 2, "q6", 4),
        Item(BOTTOM, 0, "q9", 4),
    ]:
        _check(failures, it in c.items, f"missing {it}")
    justs = c.justifications.get(Item("q0", 0, "q7", 4), [])
    _check(
        failures,
        any(
            j.antecedents == (Item("q0", 0, "q2", 2), Item("q2", 2, "q6", 4))
            for j in map(Justification._make, justs)
        ),
        "expected antecedent pair not recorded",
    )
    _check(failures, recognized(c), "accept item missing")
    _gate(capsys, 2, "table covers the hand-built machine with the recorded inference", failures)


# ---------------------------------------------------------------- criterion 3

EXPR_MATRIX = """\
T[0,0]: E -> . E * E, E -> . E + E, E -> . a, S -> . E
T[0,1]: E -> E . * E, E -> E . + E, E -> a ., S -> E .
T[0,2]: E -> E + . E
T[0,3]: E -> E + E ., E -> E . * E, E -> E . + E, S -> E .
T[0,4]: E -> E * . E
T[0,5]: E -> E * E ., E -> E + E ., E -> E . * E, E -> E . + E, S -> E .
T[2,2]: E -> . E * E, E -> . E + E, E -> . a
T[2,3]: E -> E . * E, E -> E . + E, E -> a .
T[2,4]: E -> E * . E
T[2,5]: E -> E * E ., E -> E . * E, E -> E . + E
T[4,4]: E -> . E * E, E -> . E + E, E -> . a
T[4,5]: E -> E . * E, E -> E . + E, E -> a ."""


def test_criterion_03(capsys):
    failures = []
    g = parse_grammar(EXPR_TEXT)
    t0 = time.perf_counter()
    c = earley_parse(g, "a + a * a".split())
    elapsed = time.perf_counter() - t0
    _check(failures, earley_matrix(c) == EXPR_MATRIX, "matrix differs")
    filled = {(it.origin, it.end) for it in map(EarleyItem._make, c.items)}
    expected = {
        (0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (0, 5),
        (2, 2), (2, 3), (2, 4), (2, 5), (4, 4), (4, 5),
    }
    _check(failures, filled == expected, f"filled cells {sorted(filled)}")
    _check(failures, earley_recognized(c), "not recognized")
    _check(failures, elapsed < 1.0, f"took {elapsed:.3f}s")
    _gate(capsys, 3, "dotted-rule matrix matches the golden cells, empties stay empty", failures)


# ---------------------------------------------------------------- criterion 4

CNF_MATRIX = """\
T[0,1]: A
T[0,2]: A, S
T[0,3]: A, S
T[0,4]: A, S
T[1,2]: A
T[1,3]: A
T[1,4]: A
T[2,3]: S
T[2,4]: S
T[3,4]: S"""


def test_criterion_04(capsys):
    failures = []
    g = parse_grammar(CNF_TEXT)
    c = cky_parse(g, "aabb")
    _check(failures, cky_matrix(c) == CNF_MATRIX, "matrix differs")
    _check(failures, len([cell for cell in c.cells.values() if cell]) == 10, "cell count")
    _check(failures, "S" in c.cells.get((0, 4), ()), "(0, S, 4) missing")
    _check(failures, cky_recognized(c), "not recognized")
    _gate(capsys, 4, "normal-form matrix matches the golden ten cells and recognizes", failures)


# ---------------------------------------------------------------- criterion 5

CNF_FOREST = """\
( 0 , A , 1 ) -> ( 0 , a , 1 )
( 0 , A , 2 ) -> ( 0 , A , 1 ) ( 1 , A , 2 )
( 0 , A , 3 ) -> ( 0 , A , 1 ) ( 1 , A , 3 )
( 0 , A , 3 ) -> ( 0 , A , 2 ) ( 2 , S , 3 )
( 0 , A , 4 ) -> ( 0 , A , 1 ) ( 1 , A , 4 )
( 0 , A , 4 ) -> ( 0 , A , 2 ) ( 2 , S , 4 )
( 0 , A , 4 ) -> ( 0 , A , 3 ) ( 3 , S , 4 )
( 0 , S , 2 ) -> ( 0 , A , 1 ) ( 1 , A , 2 )
( 0 , S , 3 ) -> ( 0 , A , 1 ) ( 1 , A , 3 )
( 0 , S , 3 ) -> ( 0 , S , 2 ) ( 2 , S , 3 )
( 0 , S , 4 ) -> ( 0 , A , 1 ) ( 1 , A , 4 )
( 0 , S , 4 ) -> ( 0 , S , 2 ) ( 2 , S , 4 )
( 0 , S , 4 ) -> ( 0 , S , 3 ) ( 3 , S , 4 )
( 0 , a , 1 ) -> a
( 1 , A , 2 ) -> ( 1 , a , 2 )
( 1 , A , 3 ) -> ( 1 , A , 2 ) ( 2 , S , 3 )
( 1 , A , 4 ) -> ( 1 , A , 2 ) ( 2 , S , 4 )
( 1 , A , 4 ) -> ( 1 , A , 3 ) ( 3 , S , 4 )
( 1 , a , 2 ) -> a
( 2 , S , 3 ) -> ( 2 , b , 3 )
( 2 , S , 4 ) -> ( 2 , S , 3 ) ( 3 , S , 4 )
( 2 , b , 3 ) -> b
( 3 , S , 4 ) -> ( 3 , b , 4 )
( 3 , b , 4 ) -> b"""

ELIMINATED_BODIES = {
    "( 0 , A , 2 ) -> ( 0 , A , 1 ) ( 1 , A , 2 )",
    "( 0 , A , 3 ) -> ( 0 , A , 1 ) ( 1 , A , 3 )",
    "( 0 , A , 3 ) -> ( 0 , A , 2 ) ( 2 , S , 3 )",
    "( 0 , A , 4 ) -> ( 0 , A , 1 ) ( 1 , A , 4 )",
    "( 0 , A , 4 ) -> ( 0 , A , 2 ) ( 2 , S , 4 )",
    "( 0 , A , 4 ) -> ( 0 , A , 3 ) ( 3 , S , 4 )",
}


def test_criterion_05(capsys):
    failures = []
    g = parse_grammar(CNF_TEXT)
    full = build_forest_cky(cky_parse(g, "aabb"))
    _check(failures, len(full.rules) == 24, f"{len(full.rules)} rules")
    _check(
        failures,
        set(dump_forest(full).splitlines()) == set(CNF_FOREST.splitlines()),
        "forest rules differ",
    )
    reduced = reduce_forest(full)
    gone = {
        f"{r.head} -> " + " ".join(str(b) for b in r.body)
        for r in set(full.rules) - set(reduced.rules)
    }
    _check(failures, gone == ELIMINATED_BODIES, f"eliminated {sorted(gone)}")
    counted = count_trees(reduced)
    _check(failures, counted.value == 5, f"count {counted}")
    _check(
        failures,
        len(enumerate_trees(g, "aabb", 100)) == 5,
        "brute-force enumeration disagrees",
    )
    trees = extract_trees(reduced, 10)
    _check(failures, len(trees) == 5, f"{len(trees)} trees extracted")
    _check(failures, len({render_tree(t) for t in trees}) == 5, "trees not distinct")
    for t in trees:
        _check(failures, validate_tree(g, t), f"invalid {render_tree(t)}")
        _check(
            failures,
            tree_yield(t) == ("a", "a", "b", "b"),
            f"bad yield {render_tree(t)}",
        )
    _gate(capsys, 5, "shared forest: 24 rules, 6 eliminated, 5 verified trees", failures)


# ---------------------------------------------------------------- criterion 6

ACCEPT_CHAINS = {
    (("q0", 0, "q1", 3), ("q1", 3, "q3", 4), ("q3", 4, "q4", 5)),
    (("q0", 0, "q1", 1), ("q1", 1, "q3", 2), ("q3", 2, "q4", 5)),
}


def test_criterion_06(capsys):
    failures = []
    g = parse_grammar(SPS_TEXT)
    p = compile_lr(g)
    toks = "a + a + a".split()
    c = run_tabular(p, toks)
    accept = c.accept_item()
    _check(failures, accept == Item(BOTTOM, 0, p.final, 5), "accept item shape")
    _check(failures, accept in c.items, "not recognized")
    justs = [
        j
        for j in map(Justification._make, c.justifications.get(accept, []))
        if j.tag == "accept"
    ]
    _check(failures, len(justs) == 2, f"{len(justs)} accept inferences")
    chains = set()
    for j in justs:
        below, *chain = map(Item._make, j.antecedents)
        _check(
            failures,
            (str(below.lower), below.lower_pos, str(below.upper), below.upper_pos)
            == ("bot", 0, "q0", 0),
            "below arc differs",
        )
        _check(failures, str(j.via.rule) == "S -> S + S", f"via {j.via.rule}")
        chains.add(
            tuple(
                (str(a.lower), a.lower_pos, str(a.upper), a.upper_pos) for a in chain
            )
        )
    _check(failures, chains == ACCEPT_CHAINS, f"chains {sorted(chains)}")
    b = binarize_reductions(p)
    cb = run_tabular(b, toks)
    _check(failures, recognized(cb), "binarized machine rejects")
    for probe in ["a", "a +", "a a", ""]:
        pt = probe.split()
        _check(
            failures,
            recognized(run_tabular(b, pt)) == recognized(run_tabular(p, pt)),
            f"verdicts split on {probe!r}",
        )
    _gate(capsys, 6, "shift-reduce table accepts through exactly the two chains", failures)


# ---------------------------------------------------------------- criterion 7


def test_criterion_07(capsys):
    failures = []
    g = parse_grammar(EXPR_TEXT)
    c = earley_parse(g, "a + a * a".split())
    _check(
        failures,
        earley_ambiguous_final(c) == 2,
        f"final completions {earley_ambiguous_final(c)}",
    )
    reduced = reduce_forest(build_forest_items(c))
    counted = count_trees(reduced)
    _check(failures, counted.value == 2, f"forest count {counted}")
    trees = extract_trees(reduced, 5)
    _check(failures, len(trees) == 2, f"{len(trees)} trees")
    for t in trees:
        _check(failures, validate_tree(g, t), f"invalid {render_tree(t)}")
    _gate(capsys, 7, "ambiguity surfaces as two final completions and two trees", failures)


# ---------------------------------------------------------------- criterion 8

ENGINE_BOUND_CHECKS: list[tuple[int, int]] = []  # (item count, bound)
CKY_BOUND_CHECKS: list[tuple[int, int]] = []  # (fired, bound)


def _random_general(rng: random.Random) -> Grammar:
    k = rng.randint(1, 4)
    nts = ["S", "A", "B", "C"][:k]
    n_rules = rng.randint(1, 8)
    lhss = ["S"] + [rng.choice(nts) for _ in range(n_rules - 1)]
    pool = sorted(set(lhss)) + ["a", "b"]
    out = []
    for lhs in lhss:
        length = rng.choice((0, 1, 1, 2, 2, 3))
        out.append(Rule(lhs, tuple(rng.choice(pool) for _ in range(length))))
    seen, rules = set(), []
    for r in out:
        if r not in seen:
            seen.add(r)
            rules.append(r)
    return Grammar(tuple(rules), "S")


def _random_cnf(rng: random.Random) -> Grammar:
    k = rng.randint(1, 4)
    nts = ["S", "A", "B", "C"][:k]
    n_rules = rng.randint(1, 8)
    lhss = ["S"] + [rng.choice(nts) for _ in range(n_rules - 1)]
    ruled = sorted(set(lhss))
    out = []
    for lhs in lhss:
        if rng.random() < 0.5:
            rhs = (rng.choice("ab"),)
        else:
            rhs = (rng.choice(ruled), rng.choice(ruled))
        out.append(Rule(lhs, rhs))
    seen, rules = set(), []
    for r in out:
        if r not in seen:
            seen.add(r)
            rules.append(r)
    return Grammar(tuple(rules), "S")


def _sweep_grammars() -> list[Grammar]:
    rng = random.Random(20260823)
    return [
        _random_cnf(rng) if rng.random() < 0.4 else _random_general(rng)
        for _ in range(200)
    ]


def _strings(g: Grammar, max_len: int = 5):
    alphabet = sorted(g.terminals)
    for n in range(max_len + 1):
        yield from itertools.product(alphabet, repeat=n)


def _note_engine_chart(c, n: int) -> None:
    q = len(c.pda.stack_symbols)
    ENGINE_BOUND_CHECKS.append((len(c.items), q * q * (n + 1) * (n + 2) // 2))


def test_criterion_08(capsys):
    failures = []
    t0 = time.perf_counter()
    grammars = _sweep_grammars()
    _check(failures, len(grammars) == 200, "grammar count")
    n_cnf = sum(1 for g in grammars if is_cnf(g))
    n_epsfree = sum(1 for g in grammars if not has_epsilon_rules(g))
    checked = 0
    for gi, g in enumerate(grammars):
        aug = augment_start(g)
        td = compile_topdown(aug)
        cnf = is_cnf(g)
        epsfree = not has_epsilon_rules(g)
        if epsfree:
            plain = compile_lr(g)
            binz = binarize_reductions(plain)
        for toks in _strings(g):
            n = len(toks)
            want = recognizes(g, toks)
            checked += 1

            got = earley_recognized(earley_parse(aug, toks))
            if got != want:
                failures.append(f"earley vs oracle on grammar {gi} input {toks}")
                break

            c = run_tabular(td, toks)
            _note_engine_chart(c, n)
            if recognized(c) != want:
                failures.append(f"goal-driven table on grammar {gi} input {toks}")
                break

            if cnf:
                ck = cky_parse(g, toks)
                CKY_BOUND_CHECKS.append((ck.fired, len(g.rules) * (n + 1) ** 3))
                if cky_recognized(ck) != want:
                    failures.append(f"matrix on grammar {gi} input {toks}")
                    break

            if epsfree:
                cp = run_tabular(plain, toks)
                _note_engine_chart(cp, n)
                cb = run_tabular(binz, toks)
                _note_engine_chart(cb, n)
                if recognized(cp) != want or recognized(cb) != want:
                    failures.append(f"shift-reduce on grammar {gi} input {toks}")
                    break
        else:
            continue
        break
    elapsed = time.perf_counter() - t0
    _check(failures, checked == 7524, f"{checked} strings checked")
    _check(failures, n_cnf == 90, f"{n_cnf} normal-form grammars")
    _check(failures, n_epsfree == 140, f"{n_epsfree} epsilon-free grammars")
    _check(failures, elapsed < 60.0, f"took {elapsed:.1f}s")
    _gate(capsys, 8, "200-grammar randomized sweep agrees with brute force", failures)


# ---------------------------------------------------------------- criterion 9


def test_criterion_09(capsys):
    failures = []
    g = augment_start(parse_grammar("E -> E + E\nE -> a"))
    fired = {}
    for n in (9, 17):
        toks = " + ".join(["a"] * ((n + 1) // 2)).split()
        assert len(toks) == n
        c = earley_parse(g, toks)
        _check(failures, earley_recognized(c), f"rejects length {n}")
        fired[n] = c.fired
    ratio = fired[17] / fired[9]
    limit = 1.5 * (17 / 9) ** 3
    _check(failures, ratio <= limit, f"work ratio {ratio:.3f} > {limit:.3f}")

    # table size bound, over every table the sweep built plus the goldens
    checks = list(ENGINE_BOUND_CHECKS)
    bp = run_tabular(make_branching_pda(), "a b c d".split())
    checks.append((len(bp.items), len(bp.pda.stack_symbols) ** 2 * 5 * 6 // 2))
    sps = parse_grammar(SPS_TEXT)
    lr_chart = run_tabular(compile_lr(sps), "a + a + a".split())
    checks.append(
        (len(lr_chart.items), len(lr_chart.pda.stack_symbols) ** 2 * 6 * 7 // 2)
    )
    _check(failures, len(checks) >= 2, "no table sizes recorded")
    over = [(items, bound) for items, bound in checks if items > bound]
    _check(failures, not over, f"{len(over)} tables over the size bound")

    cky_checks = list(CKY_BOUND_CHECKS)
    c = cky_parse(parse_grammar(CNF_TEXT), "aabb")
    cky_checks.append((c.fired, len(c.grammar.rules) * 5**3))
    over = [(f, b) for f, b in cky_checks if f > b]
    _check(failures, not over, f"{len(over)} matrix runs over the work bound")
    _gate(capsys, 9, "cubic work growth and the table size bounds hold", failures)


# --------------------------------------------------------------- criterion 10


def test_criterion_10(capsys):
    failures = []
    base = parse_grammar("S -> S\nS -> a")
    g = augment_start(base)
    c = run_tabular(compile_topdown(g), ["a"])
    reduced = reduce_forest(build_forest_items(c))
    counted = count_trees(reduced)
    _check(failures, counted.infinite, "count not flagged infinite")
    _check(failures, counted.value is None, "infinite count carries a value")
    trees = extract_trees(reduced, 3)
    _check(failures, len(trees) == 3, f"{len(trees)} trees")
    _check(
        failures,
        [render_tree(t) for t in trees]
        == ["(S a)", "(S (S a))", "(S (S (S a)))"],
        "trees not shallowest-first",
    )
    for t in trees:
        _check(failures, validate_tree(base, t), f"invalid {render_tree(t)}")
        _check(failures, tree_yield(t) == ("a",), f"bad yield {render_tree(t)}")
    _gate(capsys, 10, "cyclic forest reports infinitely many trees, extracts three", failures)
