"""Checks of every output, made after the timed passes.

Each expected value comes from a computation that shares no code with the
parsers (a closed formula, the inside recursion, a comb built here, the
brute-force oracle) or is a property every correct output has.
"""

from __future__ import annotations

import math

from tabparse import oracle
from tabparse.trees import leaf, node, tree_depth, tree_yield, validate_tree

from workloads import LEFT_FAULT_LENGTH, inside, read_rules

# Two faults of forest.extract_trees show under these algorithms.  It
# recurses once per tree level, so it raises RecursionError on long left
# lists: the named failed operations of `lists`.  On cyclic forests its
# rounds go by depth in the forest, which for the dotted-item charts of
# these two algorithms is not the depth of the edited tree, so trees come
# out deeper first, on seed-dependent sweep grammars; the same rounds
# re-enumerate every shallower tree and can take seconds for one tree of a
# four-token input.  run.py therefore leaves out extraction from cyclic
# forests under these algorithms.
FAULTY_EXTRACTION = ("earley", "topdown")


def catalan(m: int) -> int:
    return math.comb(2 * m, m) // (m + 1)


def comb(n: int, left: bool):
    """The only tree of `a`*n under L -> L a | a (left) or L -> a L | a."""
    tree = node("L", (leaf("a"),))
    for _ in range(n - 1):
        tree = node("L", (tree, leaf("a")) if left else (leaf("a"), tree))
    return tree


def _expected(case, ii: int, toks, g, rules):
    """(verdict, tree count or None when only agreement is checked)."""
    n = len(toks)
    if case.kind == "expr":
        return True, catalan((n + 1) // 2 - 1)
    if case.kind == "cnf":
        count, _ = inside(rules, toks)
        return count > 0, count
    if case.kind in ("left", "right"):
        return True, 1
    if case.kind == "language" and ii not in case.corrupted:
        return True, None  # sampled from the grammar
    return oracle.recognizes(g, toks), None


def _check_trees(g, toks, outcome, k: int) -> list[str]:
    trees = outcome["trees"]
    problems = []
    want = k if outcome["infinite"] else min(k, outcome["count"])
    if len(trees) != want:
        problems.append(f"{len(trees)} trees extracted, expected {want}")
    if len(set(trees)) != len(trees):
        problems.append("extracted trees repeat")
    for t in trees:
        if not validate_tree(g, t):
            problems.append("extracted tree applies a rule the grammar lacks")
        if tree_yield(t) != tuple(toks):
            problems.append("extracted tree does not yield the input")
    if outcome["infinite"]:
        depths = [tree_depth(t) for t in trees]
        if depths != sorted(depths):
            problems.append(f"cyclic forest trees not shallowest first: depths {depths}")
    return problems


def verify(prepared, outcomes, failed, k: int) -> list[str]:
    """Every problem found, one line each; an empty list passes."""
    problems = []
    failed = set(failed)
    for ci, p in enumerate(prepared):
        case, g = p.case, p.grammar
        rules = read_rules(case.text)
        for ii, toks in enumerate(case.inputs):
            where = f"{case.name} input {ii} (n={len(toks)})"
            verdict, count = _expected(case, ii, toks, g, rules)
            counts = {}
            for alg in case.algorithms:
                out = outcomes[(ci, ii, alg)]
                if out["verdict"] != verdict:
                    problems.append(f"{where} {alg}: verdict {out['verdict']}, expected {verdict}")
                if "count" not in out:
                    continue
                counts[alg] = (out["count"], out["infinite"])
                if count is not None and counts[alg] != (count, False):
                    problems.append(f"{where} {alg}: count {counts[alg]}, expected {count}")
                if (ci, ii, alg) in failed:
                    named = (
                        case.kind == "left"
                        and len(toks) >= LEFT_FAULT_LENGTH
                        and alg in FAULTY_EXTRACTION
                    )
                    if not named:
                        problems.append(f"{where} {alg}: extraction failed")
                    continue
                if out["trees"] is None:
                    continue  # extraction left out: cyclic forest, see above
                problems += [f"{where} {alg}: {m}" for m in _check_trees(g, toks, out, k)]
                if case.kind in ("left", "right") and out["trees"] != [
                    comb(len(toks), case.kind == "left")
                ]:
                    problems.append(f"{where} {alg}: tree is not the {case.kind} comb")
            if len(set(counts.values())) > 1:
                problems.append(f"{where}: algorithms disagree on the count: {counts}")
            if case.kind == "sweep" and counts:
                value, infinite = next(iter(counts.values()))
                if not infinite:
                    found = len(oracle.enumerate_trees(g, toks, cap=value + 1))
                    if found != value:
                        problems.append(f"{where}: count {value}, oracle finds {found} trees")
    return problems
