import pytest
from hypothesis import settings
from hypothesis import strategies as st

from tabparse.grammar import Rule, parse_grammar
from tabparse.pda import Pda, Transition

# `pytest --hypothesis-profile=thorough` runs every property on ten times
# the default number of examples, with no time limit on any one of them.
settings.register_profile("thorough", max_examples=1000, deadline=None)

BRANCHING_TRANSITIONS = (
    Transition(("q0",), ("a",), ("q0", "q1")),
    Transition(("q0", "q1"), ("b",), ("q0", "q2")),
    Transition(("q0", "q1"), ("b",), ("q0", "q3")),
    Transition(("q2",), ("c",), ("q2", "q4")),
    Transition(("q3",), ("c",), ("q3", "q4")),
    Transition(("q4",), ("d",), ("q4", "q5")),
    Transition(("q4", "q5"), (), ("q6",)),
    Transition(("q2", "q6"), (), ("q7",)),
    Transition(("q0", "q7"), (), ("q9",)),
    Transition(("q3", "q6"), (), ("q8",)),
    Transition(("q0", "q8"), (), ("q9",)),
)


def make_branching_pda() -> Pda:
    """Hand-built nondeterministic machine accepting exactly "a b c d",
    via two runs that split on the second transition and rejoin at the end."""
    return Pda(
        input_alphabet=frozenset("abcd"),
        stack_symbols=frozenset(f"q{i}" for i in range(10)),
        initial="q0",
        final="q9",
        transitions=BRANCHING_TRANSITIONS,
    )


@pytest.fixture
def branching_pda() -> Pda:
    return make_branching_pda()


EXPR_TEXT = """\
S -> E
E -> E * E
E -> E + E
E -> a
"""

CNF_TEXT = """\
S -> S S
S -> A A
S -> b
A -> A S
A -> A A
A -> a
"""

SPS_TEXT = """\
S -> S + S
S -> a
"""


@pytest.fixture
def expr_grammar():
    return parse_grammar(EXPR_TEXT)


@pytest.fixture
def cnf_grammar():
    return parse_grammar(CNF_TEXT)


@pytest.fixture
def sps_grammar():
    return parse_grammar(SPS_TEXT)


# Small grammars, empty and cyclic rules included, and small CNF grammars.
_GENERAL_RULES = st.lists(
    st.builds(
        Rule,
        st.sampled_from("SAB"),
        st.lists(st.sampled_from("SABab"), max_size=3).map(tuple),
    ),
    min_size=1,
    max_size=6,
    unique=True,
)
_CNF_RULES = st.lists(
    st.one_of(
        st.builds(Rule, st.sampled_from("SA"), st.sampled_from("ab").map(lambda a: (a,))),
        st.builds(Rule, st.sampled_from("SA"), st.tuples(*[st.sampled_from("SA")] * 2)),
    ),
    min_size=1,
    max_size=6,
    unique=True,
)
RANDOM_GRAMMARS = st.one_of(_GENERAL_RULES, _CNF_RULES)
