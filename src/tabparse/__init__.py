"""Tabular context-free parsing via stack machines.

Grammars compile into nondeterministic stack machines under different
strategies (goal-driven, data-driven, shift-reduce); one generic engine
tabulates any such machine in polynomial time and space by deriving arcs
of the graph of reachable stacks.  Native matrix and dotted-rule
recognizers, parse forests with counting and tree extraction, a brute-force
derivability oracle and a command-line front end round it out.
"""

from .algorithms import ALGORITHMS, Algorithm
from .cky import CkyChart, CkyJustification, cky_parse, cky_recognized
from .earley import (
    EarleyChart,
    EarleyItem,
    EarleyJustification,
    earley_ambiguous_final,
    earley_parse,
    earley_recognized,
)
from .engine import (
    BOTTOM,
    Chart,
    Item,
    Justification,
    UnsupportedTransition,
    chart_to_dot,
    classify_transition,
    dump_chart,
    recognized,
    run_tabular,
)
from .forest import (
    ForestError,
    ForestRule,
    ParseForest,
    SpanNode,
    TreeCount,
    build_forest_cky,
    build_forest_items,
    count_trees,
    dump_forest,
    extract_trees,
    reduce_forest,
)
from .grammar import (
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
from .lr import (
    AuxSymbol,
    LrAutomaton,
    LrState,
    Reduction,
    binarize_reductions,
    build_lr_automaton,
    closure,
    compile_lr,
    dump_automaton,
)
from .oracle import derivable, enumerate_trees, recognizes
from .pda import (
    Configuration,
    Marker,
    Pda,
    Run,
    SimulationResult,
    Transition,
    applicable,
    dump_pda,
    dump_run,
    pda_size,
    simulate,
)
from .strategies import DottedRule, compile_bottomup, compile_topdown, dotted_rules
from .trees import (
    ParseTree,
    leaf,
    node,
    render_tree,
    tree_depth,
    tree_yield,
    validate_tree,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
