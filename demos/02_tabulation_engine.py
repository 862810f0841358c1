"""
Tabulation: recognizing without re-running the stack
====================================================

The naive simulator from demo 01 re-explores shared stack prefixes over
and over; on a left-recursive grammar it never terminates at all.  The
tabular engine instead derives a chart of items ( lower , j , upper , i )
meaning: some run can go from a stack ending in `lower` at position j to
that same stack with `upper` on top at position i.  Each item is derived
once, no matter how many runs share it.
"""

import pathlib

from tabparse import (
    chart_to_dot,
    compile_topdown,
    dump_chart,
    augment_start,
    parse_grammar,
    recognized,
    run_tabular,
    simulate,
)

here = pathlib.Path(__file__).parent

# Left-recursive arithmetic.  compile_topdown turns it into a machine
# whose runs mirror leftmost derivations.
grammar = augment_start(parse_grammar((here / "grammars" / "expr.cfg").read_text()))
machine = compile_topdown(grammar)
tokens = "a + a * a".split()

# The naive simulator chases E -> E + E -> E + E + E -> ... forever
# (well, until its step bound trips).
naive = simulate(machine, tokens, max_steps=20_000)
print("naive simulation says:", naive.verdict)

# The engine handles the same machine in polynomial time.
chart = run_tabular(machine, tokens)
print("tabular engine says:", "yes" if recognized(chart) else "no")
print(f"{len(chart.items)} items, {chart.fired} rule firings")
print()
print(dump_chart(chart))

# Every item remembers how it was derived.  The accept item's
# justifications are the roots of the packed derivation structure.  The
# chart stores them as plain (tag, antecedents, via) tuples.
accept = chart.accept_item()
print()
print("accept item:", accept)
for tag, antecedents, _ in chart.justifications[accept]:
    print(f"  {tag} from {len(antecedents)} antecedent(s)")

# The chart is a graph: positions are columns, items are edges.
out = here / "expr_chart.dot"
out.write_text(chart_to_dot(chart))
print()
print(f"wrote {out} (render with: dot -Tpdf {out.name})")
