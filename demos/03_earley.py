"""
Dotted rules and the triangular matrix
======================================

The classic top-down chart algorithm, phrased as a deduction system over
items (origin, dotted rule, end).  Predict proposes rules, scan consumes
tokens, and a symmetric completer joins finished constituents to the
items waiting for them, in whatever order the agenda happens to pick.
"""

import pathlib

from tabparse.earley import (
    dump_matrix,
    earley_ambiguous_final,
    earley_parse,
    earley_recognized,
)
from tabparse.grammar import augment_start, parse_grammar

here = pathlib.Path(__file__).parent
grammar = parse_grammar((here / "grammars" / "expr.cfg").read_text())

# The algorithm wants a single start rule; this grammar already has one
# (S -> E), so augment_start is a no-op here.
grammar = augment_start(grammar)

tokens = "a + a * a".split()
chart = earley_parse(grammar, tokens)

print("input:", " ".join(tokens))
print("recognized:", earley_recognized(chart))
print()

# T[j,i] lists the dotted rules spanning positions j..i.  Cells that
# stay empty are simply absent.
print(dump_matrix(chart))

# "a + a * a" parses two ways (+ first or * first).  Both readings
# complete the start rule over the whole input, so the final cell holds
# one finished start item with two recorded completions.
print()
print("derivations of the final item:", earley_ambiguous_final(chart))

# Work is counted per inference fired; handy for complexity checks.
print("rule firings:", chart.fired)

# Unambiguous input for contrast: one completion.
flat = earley_parse(grammar, ["a"])
print()
print("on plain 'a':", earley_ambiguous_final(flat), "derivation")
