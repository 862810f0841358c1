import warnings

import pytest
from hypothesis import given, strategies as st

import tabparse.grammar as grammar_module
from tabparse.grammar import (
    DuplicateRuleWarning,
    Grammar,
    GrammarError,
    Rule,
    augment_start,
    format_grammar,
    fresh_symbol,
    grammar_size,
    has_epsilon_rules,
    is_cnf,
    parse_grammar,
)
from tabparse.trees import leaf, node, validate_tree


def test_parse_basic(expr_grammar):
    g = expr_grammar
    assert g.start == "S"
    assert g.rules == (
        Rule("S", ("E",)),
        Rule("E", ("E", "*", "E")),
        Rule("E", ("E", "+", "E")),
        Rule("E", ("a",)),
    )
    assert g.nonterminals == {"S", "E"}
    assert g.terminals == {"*", "+", "a"}


def test_parse_skips_comments_and_blanks():
    g = parse_grammar("# header\n\nS -> a\n  # trailing\nS -> b\n")
    assert len(g.rules) == 2


def test_parse_epsilon_rule():
    g = parse_grammar("S ->")
    assert g.rules == (Rule("S", ()),)
    assert has_epsilon_rules(g)
    assert grammar_size(g) == 1


def test_parse_missing_arrow():
    with pytest.raises(GrammarError, match="arrow"):
        parse_grammar("S a b")


def test_parse_empty_lhs():
    with pytest.raises(GrammarError, match="left-hand side"):
        parse_grammar("-> a b")


def test_parse_no_rules():
    with pytest.raises(GrammarError):
        parse_grammar("# nothing here\n")


def test_duplicate_rule_warns_and_drops():
    with pytest.warns(DuplicateRuleWarning):
        g = parse_grammar("S -> a\nS -> a\n")
    assert g.rules == (Rule("S", ("a",)),)


def test_grammar_needs_rules_without_repeats():
    with pytest.raises(GrammarError, match="^grammar has no rules$"):
        Grammar((), "S")
    rule = Rule("S", ("a",))
    with pytest.raises(GrammarError, match="^duplicate rules in rule list$"):
        Grammar((rule, Rule("S", ("b",)), rule), "S")


def test_start_needs_a_rule():
    with pytest.raises(GrammarError):
        Grammar((Rule("A", ("a",)),), "S")


def test_nonterminal_means_has_a_rule():
    # No casing conventions: "b" is a nonterminal because it has a rule,
    # "A" is a terminal because it has none.
    g = parse_grammar("S -> b A\nb -> A")
    assert g.nonterminals == {"S", "b"}
    assert g.terminals == {"A"}


def test_rule_str():
    assert str(Rule("A", ("a", "B"))) == "A -> a B"
    assert str(Rule("A", ())) == "A ->"


def test_format_puts_start_rules_first():
    g = parse_grammar("A -> a\nS -> A\nS -> b\n")
    # start is the first left-hand side seen, rendering reorders its rules up
    assert g.start == "A"
    text = format_grammar(g)
    assert text.endswith("\n")
    assert text.splitlines()[0] == "A -> a"
    assert parse_grammar(text) == g


def test_grammar_size(expr_grammar, cnf_grammar):
    assert grammar_size(expr_grammar) == 12
    assert grammar_size(cnf_grammar) == 16


def test_is_cnf(expr_grammar, cnf_grammar):
    assert is_cnf(cnf_grammar)
    assert not is_cnf(expr_grammar)
    assert not is_cnf(parse_grammar("S -> a\nS ->"))
    # unit rule over a nonterminal is not allowed
    assert not is_cnf(parse_grammar("S -> A\nA -> a"))


def test_fresh_symbol():
    assert fresh_symbol("S", {"S"}) == "S'"
    assert fresh_symbol("S", {"S", "S'"}) == "S''"
    assert fresh_symbol("X", {"S"}) == "X"


def test_augment_start_noop_when_unneeded(expr_grammar):
    assert augment_start(expr_grammar) is expr_grammar


def test_augment_start_wraps_cyclic_start():
    g = parse_grammar("S -> S\nS -> a")
    ga = augment_start(g)
    assert ga.start == "S'"
    assert ga.rules[0] == Rule("S'", ("S",))
    assert ga.augmented_from == "S"
    assert augment_start(ga) is ga


def test_augment_start_wraps_multiple_start_rules():
    g = parse_grammar("S -> a\nS -> b")
    ga = augment_start(g)
    assert len(ga.start_rules()) == 1
    assert ga.rules[1:] == g.rules


_SYMS = st.sampled_from(["S", "A", "B", "a", "b", "c"])


@st.composite
def grammars(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    rules = []
    seen = set()
    for i in range(n):
        lhs = "S" if i == 0 else draw(st.sampled_from(["S", "A", "B"]))
        rhs = tuple(draw(st.lists(_SYMS, max_size=3)))
        if (lhs, rhs) not in seen:
            seen.add((lhs, rhs))
            rules.append(Rule(lhs, rhs))
    return Grammar(tuple(rules), "S")


@given(grammars())
def test_format_parse_roundtrip(g):
    # Rendering may move start rules to the front (the parser infers the
    # start symbol from the first rule), so compare order-insensitively.
    back = parse_grammar(format_grammar(g))
    assert back.start == g.start
    assert set(back.rules) == set(g.rules)


@given(grammars())
def test_size_counts_every_symbol_once(g):
    assert grammar_size(g) == len(g.rules) + sum(len(r.rhs) for r in g.rules)


@given(grammars())
def test_rules_for_matches_linear_scan(g):
    for sym in sorted(g.nonterminals | g.terminals) + ["Z", "S'"]:
        assert g.rules_for(sym) == tuple(r for r in g.rules if r.lhs == sym)
    assert g.rules_for("Z") == ()
    assert g.nonterminals == {r.lhs for r in g.rules}


def test_derived_sets_are_computed_once(expr_grammar):
    g = expr_grammar
    assert g.nonterminals is g.nonterminals
    assert g.terminals is g.terminals
    assert g.rule_index is g.rule_index
    assert g.rules_for("E") is g.rules_for("E")


def test_validate_long_comb_builds_each_set_once(monkeypatch):
    # validate_tree asks the grammar for its sets once per node; a 5,000-leaf
    # comb must not rebuild them each time.
    g = parse_grammar("L -> L a\nL -> a")
    t = node("L", (leaf("a"),))
    for _ in range(4_999):
        t = node("L", (t, leaf("a")))
    built = []

    def counting_frozenset(*args):
        built.append(args)
        return frozenset(*args)

    monkeypatch.setattr(grammar_module, "frozenset", counting_frozenset, raising=False)
    assert validate_tree(g, t)
    assert len(built) <= 3
