"""
Generalized shift-reduce parsing on the chart
=============================================

An LR automaton handles ambiguity badly on its own: a state can demand
both a shift and a reduce, or two different reduces.  Running the
machine on the tabular engine instead of a single stack turns those
conflicts into plain nondeterminism, shared in the chart.  Reductions
stay lazy: instead of eagerly popping n stack symbols, the machine
records "in state q, rule r may reduce" and the engine walks the chart
backwards when the moment comes.
"""

import pathlib

from tabparse.engine import Item, recognized, run_tabular
from tabparse.grammar import parse_grammar
from tabparse.lr import binarize_reductions, build_lr_automaton, compile_lr, dump_automaton
from tabparse.pda import dump_pda

here = pathlib.Path(__file__).parent

# S -> S + S is both left and right recursive, so "a + a + a" is the
# textbook shift/reduce conflict.
grammar = parse_grammar((here / "grammars" / "sps.cfg").read_text())

print(dump_automaton(build_lr_automaton(grammar)))
print()

machine = compile_lr(grammar)
print(dump_pda(machine))

tokens = "a + a + a".split()
chart = run_tabular(machine, tokens)
print()
print("input:", " ".join(tokens))
print("recognized:", recognized(chart))

# Each accept justification pins down one reduction chain, i.e. one way
# of grouping the additions.  The chart stores justifications as plain
# (tag, antecedents, via) tuples; Item names the fields of an antecedent.
accept = chart.accept_item()
for tag, antecedents, via in chart.justifications[accept]:
    below, *chain = map(Item._make, antecedents)
    spans = ", ".join(f"{a.lower}:{a.lower_pos}..{a.upper_pos}" for a in chain)
    print(f"  {tag} by {via.rule} through {spans}")

# Lazy reductions can pop arbitrarily many symbols at once.  Binarizing
# rewrites them into two-symbol pops over auxiliary stack symbols, at
# the cost of a larger machine.  Verdicts are unchanged.
binarized = binarize_reductions(machine)
print()
print(f"plain machine: {len(machine.transitions)} transitions "
      f"+ {len(machine.reductions)} lazy reductions")
print(f"binarized:     {len(binarized.transitions)} transitions")
for probe in ("a", "a + a", "a +", ""):
    toks = probe.split()
    a = recognized(run_tabular(machine, toks))
    b = recognized(run_tabular(binarized, toks))
    assert a == b
    print(f"  {probe!r:12} -> {'yes' if a else 'no'}")
