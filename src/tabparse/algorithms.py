"""One table from each algorithm name to its pipeline.

A strategy compiles a grammar to a machine and a saturator tabulates it;
the native recognizers saturate the grammar itself, and `naive` searches
the goal-driven machine instead of tabulating it.  Each record says how an
algorithm prepares a grammar, saturates, decides, builds a forest and dumps
its table, and which artifacts it can show.  The command line and the tests
read this table instead of spelling each pipeline out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from .cky import cky_parse, cky_recognized
from .cky import dump_matrix as cky_matrix
from .earley import dump_matrix as earley_matrix
from .earley import earley_parse, earley_recognized
from .engine import dump_chart, recognized, run_tabular
from .forest import ParseForest, build_forest_cky, build_forest_items
from .grammar import Grammar, augment_start
from .lr import binarize_reductions, compile_lr
from .pda import SimulationResult, simulate
from .strategies import compile_bottomup, compile_topdown


@dataclass(frozen=True)
class Algorithm:
    """One algorithm's pipeline: ``saturate(prepare(grammar), tokens)`` is
    its chart, and ``recognized`` reads the verdict off that chart."""

    # grammar -> the grammar or stack machine that `saturate` takes
    prepare: Callable[[Grammar], Any]
    # (prepared, tokens) -> chart; for `naive`, the simulator's result
    saturate: Callable[[Any, Any], Any]
    # chart -> verdict, or None when a bounded search settled nothing
    recognized: Callable[[Any], Optional[bool]]
    build_forest: Optional[Callable[[Any], ParseForest]] = None
    dump_table: Optional[Callable[[Any], str]] = None
    shows_pda: bool = False  # `prepare` gives a stack machine
    shows_lr: bool = False  # ... that carries its shift-reduce automaton
    shows_graph: bool = False  # the chart is an engine chart of items


def _engine(prepare: Callable[[Grammar], Any], shows_lr: bool = False) -> Algorithm:
    """A compiled machine tabulated by the engine."""
    return Algorithm(
        prepare,
        run_tabular,
        recognized,
        build_forest_items,
        dump_chart,
        shows_pda=True,
        shows_lr=shows_lr,
        shows_graph=True,
    )


def _search(pda, tokens) -> SimulationResult:
    # Only the verdict is wanted, and the first run settles it.
    return simulate(pda, tokens, max_runs=1)


def _verdict_of(result: SimulationResult) -> Optional[bool]:
    return None if result.verdict == "bound-exceeded" else result.verdict == "yes"


# In the order the command line lists them.  `cky` and `bottomup` take the
# grammar as it is; the others add a fresh start rule where it needs one.
ALGORITHMS: dict[str, Algorithm] = {
    "earley": Algorithm(
        augment_start, earley_parse, earley_recognized, build_forest_items, earley_matrix
    ),
    "cky": Algorithm(lambda g: g, cky_parse, cky_recognized, build_forest_cky, cky_matrix),
    "glr": _engine(lambda g: compile_lr(augment_start(g)), shows_lr=True),
    "glr-binarized": _engine(
        lambda g: binarize_reductions(compile_lr(augment_start(g))), shows_lr=True
    ),
    "topdown": _engine(lambda g: compile_topdown(augment_start(g))),
    "bottomup": _engine(compile_bottomup),
    "naive": Algorithm(
        lambda g: compile_topdown(augment_start(g)), _search, _verdict_of, shows_pda=True
    ),
}
