"""Command-line front end.

Reads a grammar file, tokenizes the input, runs the chosen recognizer and
prints RECOGNIZED or REJECTED followed by any requested artifacts.  Exit
status: 0 recognized, 1 rejected, 2 for unusable requests (bad grammar,
artifact the chosen algorithm cannot produce, exhausted search bounds),
3 when the brute-force check disagrees with the recognizer.
"""

from __future__ import annotations

import argparse
import sys
import warnings

from .algorithms import ALGORITHMS
from .engine import chart_to_dot
from .forest import count_trees, dump_forest, extract_trees, reduce_forest
from .grammar import DuplicateRuleWarning, GrammarError, parse_grammar
from .lr import dump_automaton
from .oracle import recognizes
from .pda import dump_pda
from .trees import render_tree


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tabparse", description="Recognize and parse with context-free grammars."
    )
    parser.add_argument("--grammar", required=True, help="grammar file")
    parser.add_argument("--input", default="", help="input string (default empty)")
    parser.add_argument(
        "--chars",
        action="store_true",
        help="tokenize per character instead of per whitespace-separated word",
    )
    parser.add_argument(
        "--algorithm", default="earley", choices=ALGORITHMS, help="recognizer to run"
    )
    parser.add_argument(
        "--show-pda", action="store_true", help="print the compiled stack machine"
    )
    parser.add_argument(
        "--show-lr", action="store_true", help="print the shift-reduce automaton"
    )
    parser.add_argument(
        "--show-table", action="store_true", help="print the recognition table"
    )
    parser.add_argument(
        "--forest", choices=("full", "reduced"), help="print the parse forest"
    )
    parser.add_argument("--count", action="store_true", help="print the tree count")
    parser.add_argument(
        "--trees", type=int, metavar="K", help="print up to K parse trees"
    )
    parser.add_argument(
        "--dot", metavar="PATH", help="write the item graph in dot format to PATH"
    )
    parser.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check the verdict against brute-force derivability",
    )
    return parser


def _usage_error(message: str) -> int:
    print(f"tabparse: {message}", file=sys.stderr)
    return 2


def _print_warning(message, *_) -> None:
    print(f"tabparse: warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    alg = args.algorithm
    algorithm = ALGORITHMS[alg]

    if args.show_pda and not algorithm.shows_pda:
        return _usage_error(f"--show-pda: {alg} builds no stack machine")
    if args.show_lr and not algorithm.shows_lr:
        return _usage_error(f"--show-lr: {alg} builds no shift-reduce automaton")
    # Only the simulation has no table and no forest.
    if args.show_table and algorithm.dump_table is None:
        return _usage_error(f"--show-table: {alg} simulation builds no table")
    if args.dot and not algorithm.shows_graph:
        return _usage_error(f"--dot: {alg} builds no item graph")
    if args.trees is not None and args.trees <= 0:
        return _usage_error("--trees: K must be positive")
    wants_forest = args.forest is not None or args.count or args.trees is not None
    if wants_forest and algorithm.build_forest is None:
        return _usage_error(f"{alg} simulation builds no forest")

    try:
        # utf-8-sig drops a leading byte-order mark, which would otherwise
        # become part of the first left-hand side.
        with open(args.grammar, encoding="utf-8-sig") as handle:
            text = handle.read()
        # One stderr line per dropped duplicate rule, never a traceback,
        # whatever the interpreter's warning filters say.
        with warnings.catch_warnings():
            warnings.simplefilter("always", DuplicateRuleWarning)
            warnings.showwarning = _print_warning
            grammar = parse_grammar(text)
    except OSError as err:
        return _usage_error(f"cannot read {args.grammar}: {err.strerror}")
    except UnicodeDecodeError as err:
        return _usage_error(f"cannot read {args.grammar}: not UTF-8 at byte {err.start}")
    except GrammarError as err:
        return _usage_error(f"bad grammar: {err}")

    if args.chars:
        tokens = tuple(ch for ch in args.input if not ch.isspace())
    else:
        tokens = tuple(args.input.split())

    try:
        machine = algorithm.prepare(grammar)
        chart = algorithm.saturate(machine, tokens)
        verdict = algorithm.recognized(chart)
    except GrammarError as err:
        return _usage_error(f"{alg}: {err}")
    if verdict is None:
        return _usage_error(f"{alg} simulation exceeded its bounds")

    print("RECOGNIZED" if verdict else "REJECTED")
    if args.show_pda:
        print(dump_pda(machine))
    if args.show_lr:
        print(dump_automaton(machine.automaton))
    if args.show_table:
        text = algorithm.dump_table(chart)
        if text:
            print(text)
    if args.dot:
        try:
            with open(args.dot, "w", encoding="utf-8") as handle:
                handle.write(chart_to_dot(chart) + "\n")
        except OSError as err:
            return _usage_error(f"cannot write {args.dot}: {err.strerror}")
    if wants_forest:
        full = algorithm.build_forest(chart)
        reduced = reduce_forest(full)
        if args.forest == "full":
            text = dump_forest(full, eliminated=set(full.rules) - set(reduced.rules))
            if text:
                print(text)
        elif args.forest == "reduced":
            text = dump_forest(reduced)
            if text:
                print(text)
        if args.count:
            counted = count_trees(reduced)
            print(f"trees: {'infinite' if counted.infinite else counted.value}")
        if args.trees is not None:
            for tree in extract_trees(reduced, args.trees):
                print(render_tree(tree))
    if args.oracle:
        expected = recognizes(grammar, tokens)
        agree = expected == verdict
        print(f"oracle: {'agree' if agree else 'disagree'}")
        if not agree:
            return 3
    return 0 if verdict else 1


if __name__ == "__main__":
    sys.exit(main())
