import itertools

import pytest

from tabparse.cky import CkyJustification, cky_parse, cky_recognized, dump_matrix
from tabparse.engine import Item, recognized, run_tabular
from tabparse.grammar import GrammarError, grammar_size, parse_grammar
from tabparse.oracle import recognizes
from tabparse.strategies import compile_bottomup

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


def test_cnf_matrix_frozen(cnf_grammar):
    c = cky_parse(cnf_grammar, "aabb")
    assert dump_matrix(c) == CNF_MATRIX
    assert cky_recognized(c)
    assert c.fired == 20


def test_rejects_non_cnf(expr_grammar):
    with pytest.raises(GrammarError, match="normal form"):
        cky_parse(expr_grammar, [])


def test_empty_input_not_recognized(cnf_grammar):
    c = cky_parse(cnf_grammar, "")
    assert not cky_recognized(c)
    assert not c.cells


def test_justifications_record_splits(cnf_grammar):
    c = cky_parse(cnf_grammar, "aabb")
    lex = c.justifications[(0, "A", 1)]
    assert lex == [CkyJustification(cnf_grammar.rules[5], None)]
    wide = map(CkyJustification._make, c.justifications[(0, "S", 4)])
    rules = {(str(j.rule), j.split) for j in wide}
    assert rules == {("S -> A A", 1), ("S -> S S", 2), ("S -> S S", 3)}
    ambiguous = map(CkyJustification._make, c.justifications[(0, "A", 4)])
    assert {(str(j.rule), j.split) for j in ambiguous} == {
        ("A -> A A", 1),
        ("A -> A S", 2),
        ("A -> A S", 3),
    }


def test_fired_within_cubic_bound(cnf_grammar):
    for text in ["aabb", "ab", "bbbb", "abab", "a"]:
        c = cky_parse(cnf_grammar, text)
        n = len(text)
        assert c.fired <= len(cnf_grammar.rules) * (n + 1) ** 3


def test_matches_oracle(cnf_grammar):
    for n in range(5):
        for w in map("".join, itertools.product("ab", repeat=n)):
            assert cky_recognized(cky_parse(cnf_grammar, w)) == recognizes(
                cnf_grammar, w
            ), w


def test_projection_equals_data_driven_table(cnf_grammar):
    # an engine arc whose upper end is a phrase label is a matrix entry
    p = compile_bottomup(cnf_grammar)
    for text in ["aabb", "ab", "b", ""]:
        c = run_tabular(p, list(text))
        native = cky_parse(cnf_grammar, text)
        proj = {
            (it.lower_pos, it.upper, it.upper_pos)
            for it in map(Item._make, c.items)
            if it.upper in cnf_grammar.nonterminals
        }
        want = {
            (j, sym, i) for (j, i), cell in native.cells.items() for sym in cell
        }
        assert proj == want, text
        assert recognized(c) == cky_recognized(native)


def test_unknown_tokens_never_enter_cells(cnf_grammar):
    c = cky_parse(cnf_grammar, "axb")
    assert (1, 2) not in c.cells
    assert not cky_recognized(c)
