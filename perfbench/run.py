"""Benchmark of the tabparse pipeline: grammar -> machine -> chart -> forest.

    python3 perfbench/run.py --workload ambiguous --seed 1 --seconds 24 --trace 0

Runs one workload (see workloads.py) in a single process and thread as a
closed loop: each job starts when the previous one ends.  A job recognizes
one input with one algorithm; when the input is accepted and the algorithm
builds forests, the job goes on to build, reduce, count and extract.  The
run repeats whole passes over the workload's jobs while the next pass
should end within `--seconds` (at least one pass), checks every output
(checks.py), and prints one JSON object as its last line.  `--trace 0` reports the end-to-end metrics, `--trace 1` the
per-layer ones, taken from spans recorded around every public call.
Results go to perfbench/out/.  `--smoke` runs a small pass of each input
family, for tests.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 15

# Saturating layer of each algorithm: the span name prefix of its phases.
LAYER = {
    "earley": "earley",
    "cky": "cky",
    "topdown": "engine.topdown",
    "bottomup": "engine.bottomup",
    "glr": "engine.lr",
    "glr-binarized": "engine.lr-binarized",
}
ENGINE_KINDS = ("topdown", "bottomup", "lr", "lr-binarized")
FOREST_PHASES = ("build", "reduce", "count", "extract")

# The host is shared.  Over spans of seconds to minutes every CPU-bound step
# in this process runs up to 1.8 times slower and back, process CPU time
# included, and runs of the same inputs spread by 25% between quartiles.
# A fixed probe of chart-like work (tuples hashed into a set and a dict of
# lists) slows by the same factor: the ratio of an Earley parse to the
# probe held within about 3% while the parse alone moved by 20%.  So the
# run probes the machine between jobs and every reported time is scaled to
# the nominal probe time, by the median probe within PROBE_WINDOW_S of it.
# The raw wall times are kept in the result file.
PROBE_EVERY_S = 0.01
PROBE_WINDOW_S = 0.2
PROBE_NOMINAL_S = 3.0e-4


def _import_tabparse():
    """The package from this checkout's src/, never an installed copy."""
    if not (SRC / "tabparse" / "__init__.py").is_file():
        sys.exit(f"run.py: no tabparse sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tabparse

    if Path(tabparse.__file__).resolve().parent != SRC / "tabparse":
        sys.exit(f"run.py: imported tabparse from {tabparse.__file__}, not {SRC}")


_import_tabparse()

from tabparse import cky, earley, engine, forest, grammar, lr, strategies  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


class Tracer:
    """Spans kept in memory: [name, start, end, parent, job, attrs].

    When disabled nothing is recorded; the caller still times what the
    end-to-end metrics need.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []

    def open(self, name: str, start: float, job=None, **attrs):
        """Reserve a root span whose end comes later; returns its index."""
        if not self.enabled:
            return None
        self.spans.append([name, start, None, None, job, attrs])
        return len(self.spans) - 1

    def close(self, index, end: float, **attrs) -> None:
        if index is not None:
            self.spans[index][2] = end
            self.spans[index][5].update(attrs)

    def record(self, name, start, end, parent=None, job=None, **attrs) -> None:
        if self.enabled:
            self.spans.append([name, start, end, parent, job, attrs])

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its children cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                own[s[3]] -= s[2] - s[1]
        return own


def _probe_work() -> int:
    seen = set()
    index: dict = {}
    for i in range(400):
        key = (i % 37, "x", i % 11, i)
        if key not in seen:
            seen.add(key)
            index.setdefault(key[:2], []).append(key)
    return len(seen)


class Speed:
    """Probes of the machine's speed, taken between jobs."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self.last = float("-inf")

    def probe(self, force: bool = False) -> None:
        now = perf_counter()
        if force or now - self.last >= PROBE_EVERY_S:
            _probe_work()
            self.last = perf_counter()
            self.at.append(now)
            self.took.append(self.last - now)

    def burst(self, count: int = 15) -> None:
        for _ in range(count):
            self.probe(force=True)

    def scale(self, start: float, end: float) -> float:
        """Factor taking a wall time measured over [start, end] to the time
        it would have taken at the nominal probe speed."""
        lo = bisect.bisect_left(self.at, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.at, end + PROBE_WINDOW_S)
        return PROBE_NOMINAL_S / statistics.median(self.took[lo:hi])


# ---------------------------------------------------------------------- setup


class Prepared:
    """One case with its grammar objects and compiled machines."""

    def __init__(self, case, g, machines):
        self.case = case
        self.grammar = g
        self.machines = machines


def setup(cases, tracer: Tracer) -> list[Prepared]:
    """Parse the grammar text, augment it and compile every machine the
    cases run, each call in its own span."""

    def call(name, fn, arg, **attrs):
        t0 = perf_counter()
        out = fn(arg)
        t1 = perf_counter()
        if tracer.enabled:
            if name.endswith("compile") or name == "lr.binarize":
                attrs = {"transitions": len(out.transitions), **attrs}
            if name == "lr.compile":
                attrs.update(states=len(out.automaton.states), reductions=len(out.reductions))
            tracer.record(name, t0, t1, parent=root, **attrs)
        return out

    root = tracer.open("setup", perf_counter())
    prepared = []
    for case in cases:
        g = call("grammar.parse", grammar.parse_grammar, case.text)
        aug = call("grammar.augment", grammar.augment_start, g)
        machines = {}
        for alg in case.algorithms:
            if alg == "earley":
                machines[alg] = aug
            elif alg == "cky":
                machines[alg] = g
            elif alg == "topdown":
                machines[alg] = call("strategies.compile", strategies.compile_topdown, aug)
            elif alg == "bottomup":
                machines[alg] = call("strategies.compile", strategies.compile_bottomup, g)
            elif alg == "glr":
                machines[alg] = call("lr.compile", lr.compile_lr, aug)
            elif alg == "glr-binarized":
                plain = machines.get("glr") or call("lr.compile", lr.compile_lr, aug)
                machines[alg] = call("lr.binarize", lr.binarize_reductions, plain)
        prepared.append(Prepared(case, g, machines))
    tracer.close(root, perf_counter())
    return prepared


# ----------------------------------------------------------------------- jobs


def _saturate(alg, machine, toks):
    if alg == "earley":
        chart = earley.earley_parse(machine, toks)
        return chart, earley.earley_recognized
    if alg == "cky":
        return cky.cky_parse(machine, toks), cky.cky_recognized
    return engine.run_tabular(machine, toks), engine.recognized


def _build(alg, chart):
    if alg == "cky":
        return forest.build_forest_cky(chart)
    return forest.build_forest_items(chart)


def run_job(alg: str, machine, toks, k: int, tracer: Tracer, job: int, **attrs):
    """One closed-loop job: saturate and decide, then, for an accepted input
    under an algorithm that builds forests, build, reduce, count and
    extract.  Returns (outcome, verdict seconds, parse seconds or None,
    failed).  The outcome holds only small results: the chart and the
    forests are released before anything is checked."""
    layer = LAYER[alg]
    t0 = perf_counter()
    root = tracer.open("job", t0, job=job, alg=alg, n=len(toks), **attrs)
    chart, verdict_of = _saturate(alg, machine, toks)
    t1 = perf_counter()
    verdict = verdict_of(chart)
    t2 = perf_counter()
    if tracer.enabled:
        size = len(chart.justifications if alg == "cky" else chart.items)
        tracer.record(f"{layer}.saturate", t0, t1, root, job, items=size, fired=chart.fired)
        tracer.record(f"{layer}.verdict", t1, t2, root, job)
    outcome = {"verdict": verdict}
    if not verdict or alg == "glr-binarized":
        tracer.close(root, t2)
        return outcome, t2 - t0, None, False
    full = _build(alg, chart)
    t3 = perf_counter()
    reduced = forest.reduce_forest(full)
    t4 = perf_counter()
    counted = forest.count_trees(reduced)
    t5 = perf_counter()
    outcome.update(count=counted.value, infinite=counted.infinite, trees=None)
    if tracer.enabled:
        tracer.record("forest.build", t2, t3, root, job, rules=len(full.rules))
        tracer.record("forest.reduce", t3, t4, root, job, kept=len(reduced.rules))
        tracer.record("forest.count", t4, t5, root, job)
    if counted.infinite and alg in checks.FAULTY_EXTRACTION:
        # Left out, see checks.py; no parse operation is counted.
        tracer.close(root, t5)
        return outcome, t2 - t0, None, False
    try:
        outcome["trees"] = forest.extract_trees(reduced, k)
        failed = False
    except RecursionError:
        failed = True
    t6 = perf_counter()
    tracer.record("forest.extract", t5, t6, root, job, cyclic=counted.infinite, failed=failed)
    tracer.close(root, t6, failed=failed)
    return outcome, t2 - t0, None if failed else t6 - t0, failed


class Run:
    """What the timed passes leave for the checks and the metrics."""

    def __init__(self):
        # (key, tokens, start, end, verdict seconds, parse seconds or None);
        # key is (case index, input index, algorithm).
        self.jobs: list[tuple] = []
        self.outcomes: dict[tuple[int, int, str], dict] = {}
        self.failed: list[tuple[int, int, str]] = []
        self.attempted = 0
        self.passes = 0
        self.unsteady: list[str] = []


def run_pass(prepared, k: int, tracer: Tracer, speed: Speed, run: Run) -> None:
    for ci, p in enumerate(prepared):
        for ii, toks in enumerate(p.case.inputs):
            for alg in p.case.algorithms:
                speed.probe()
                start = perf_counter()
                outcome, verdict_s, parse_s, failed = run_job(
                    alg, p.machines[alg], toks, k, tracer, len(run.jobs), case=p.case.name
                )
                key = (ci, ii, alg)
                run.jobs.append((key, len(toks), start, perf_counter(), verdict_s, parse_s))
                run.attempted += 1 + (parse_s is not None or failed)
                if failed:
                    run.failed.append(key)
                if key not in run.outcomes:
                    run.outcomes[key] = outcome
                elif run.outcomes[key] != outcome:
                    run.unsteady.append(f"{p.case.name} input {ii} {alg}: output changed between passes")
    run.passes += 1


# -------------------------------------------------------------------- metrics


def job_medians(run: Run, scales) -> dict:
    """(tokens, verdict seconds, parse seconds or None) of each job: the
    median over the passes of its times scaled to the nominal speed."""
    samples: dict = {}
    for (key, n, _, _, verdict_s, parse_s), scale in zip(run.jobs, scales):
        entry = samples.setdefault(key, (n, [], []))
        entry[1].append(verdict_s * scale)
        if parse_s is not None:
            entry[2].append(parse_s * scale)
    return {
        key: (n, statistics.median(vs), statistics.median(ps) if ps else None)
        for key, (n, vs, ps) in samples.items()
    }


def end_to_end(setup_times, jobs: dict, peak_kib: int) -> dict:
    verdict = [(n, v) for n, v, _ in jobs.values()]
    parse = [(n, p) for n, _, p in jobs.values() if p is not None]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "verdict_tokens_per_s": (sum(n for n, _ in verdict) / sum(s for _, s in verdict), "tokens/s"),
        "parse_tokens_per_s": (sum(n for n, _ in parse) / sum(s for _, s in parse), "tokens/s"),
        "verdict_p50_ms": (1e3 * statistics.median(s for _, s in verdict), "ms"),
        "parse_p50_ms": (1e3 * statistics.median(s for _, s in parse), "ms"),
        "peak_rss_mb": (peak_kib / 1024, "MiB"),
    }


def _growth_exponent(points) -> float:
    """Least-squares slope of log time against log n, one intercept per
    series: points are (series, n, seconds), repeats of one (series, n)
    reduced to their median first."""
    cells: dict = {}
    for series, n, dt in points:
        if n > 0 and dt > 0:
            cells.setdefault(series, {}).setdefault(n, []).append(dt)
    num = den = 0.0
    for by_n in cells.values():
        if len(by_n) < 2:
            continue
        xs = [math.log(n) for n in by_n]
        ys = [math.log(statistics.median(ts)) for ts in by_n.values()]
        mx, my = statistics.fmean(xs), statistics.fmean(ys)
        num += sum((x - mx) * (y - my) for x, y in zip(xs, ys))
        den += sum((x - mx) ** 2 for x in xs)
    return num / den if den else 0.0


def per_layer(tracer: Tracer, speed: Speed, passes: int) -> dict:
    spans = tracer.spans
    own = tracer.self_times()
    # Scale every span by the machine speed around its root span.
    roots = {}
    for i, s in enumerate(spans):
        root = i if s[3] is None else s[3]
        if root not in roots:
            roots[root] = speed.scale(spans[root][1], spans[root][2])
        own[i] *= roots[root]
    setup_roots = [i for i, s in enumerate(spans) if s[0] == "setup"]
    metrics: dict[str, tuple[float, str]] = {}

    # Set-up phases: median over the set-up repeats of each phase's total.
    per_repeat = {root: {} for root in setup_roots}
    for i, (name, _, _, parent, _, _) in enumerate(spans):
        if parent in per_repeat:
            per_repeat[parent][name] = per_repeat[parent].get(name, 0.0) + own[i]
    for phase in ("grammar.parse", "strategies.compile", "lr.compile", "lr.binarize"):
        ms = statistics.median(1e3 * r.get(phase, 0.0) for r in per_repeat.values())
        metrics[f"{phase}_ms"] = (ms, "ms")
    last = setup_roots[-1]
    compiled = [s for s in spans if s[3] == last]

    def total(name, attr):
        return sum(s[5][attr] for s in compiled if s[0] == name)

    metrics["strategies.transitions"] = (total("strategies.compile", "transitions"), "count")
    metrics["lr.states"] = (total("lr.compile", "states"), "count")
    metrics["lr.reductions"] = (total("lr.compile", "reductions"), "count")
    metrics["lr.binarized_transitions"] = (total("lr.binarize", "transitions"), "count")

    # Job phases: totals per pass, and growth exponents over input length.
    sums: dict[str, float] = {}
    points: dict[str, list] = {}
    for i, (name, _, _, parent, _, attrs) in enumerate(spans):
        if parent is None or spans[parent][0] != "job":
            continue
        job = spans[parent][5]
        key = name
        if name == "forest.extract" and attrs["failed"]:
            continue
        sums[key + "_s"] = sums.get(key + "_s", 0.0) + own[i]
        for attr in ("items", "fired", "rules", "kept"):
            if attr in attrs:
                sums[f"{key}.{attr}"] = sums.get(f"{key}.{attr}", 0) + attrs[attr]
        if name == "forest.extract" and attrs["cyclic"]:
            sums["forest.extract_cyclic_s"] = sums.get("forest.extract_cyclic_s", 0.0) + own[i]
        points.setdefault(name, []).append(((job["case"], job["alg"]), job["n"], own[i]))

    def per_pass(key):
        return sums.get(key, 0) / passes

    layers = [f"engine.{kind}" for kind in ENGINE_KINDS] + ["earley", "cky"]
    for layer in layers:
        sat = f"{layer}.saturate"
        metrics[f"{sat}_ms"] = (1e3 * per_pass(sat + "_s"), "ms")
        items = per_pass(f"{sat}.items")
        fired = per_pass(f"{sat}.fired")
        metrics[f"{layer}.entries" if layer == "cky" else f"{layer}.items"] = (items, "count")
        metrics[f"{layer}.fired"] = (fired, "count")
        if layer != "cky":
            metrics[f"{layer}.new_item_ratio"] = (items / fired if fired else 0.0, "ratio")
        metrics[f"{sat}_exp"] = (_growth_exponent(points.get(sat, ())), "exponent")
    for phase in FOREST_PHASES:
        name = f"forest.{phase}"
        metrics[f"{name}_ms"] = (1e3 * per_pass(name + "_s"), "ms")
        metrics[f"{name}_exp"] = (_growth_exponent(points.get(name, ())), "exponent")
    metrics["forest.rules"] = (per_pass("forest.build.rules"), "count")
    metrics["forest.kept_rules"] = (per_pass("forest.reduce.kept"), "count")
    metrics["forest.extract_cyclic_ms"] = (1e3 * per_pass("forest.extract_cyclic_s"), "ms")
    return metrics


# ----------------------------------------------------------------------- main


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False):
    """Set up, run whole passes for `seconds`, check.  Returns the result
    object and the tracer."""
    cases = workloads.WORKLOADS[workload](seed, smoke=smoke)
    k = workloads.TREE_BUDGET
    tracer = Tracer(trace)
    speed = Speed()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        speed.burst()
        t0 = perf_counter()
        prepared = setup(cases, tracer)
        t1 = perf_counter()
        setup_times.append((t0, t1))

    # The cyclic collector runs between passes, not inside them.  Charts and
    # forests hold no reference cycles and are freed by reference counting;
    # with the collector on, one full collection more or less inside the
    # 300 ms glr job of `lists` moved it by 15% either way, depending on
    # what earlier jobs had left on the heap.
    run = Run()
    gc.collect()
    gc.disable()
    try:
        speed.burst()
        start = last = perf_counter()
        while True:
            run_pass(prepared, k, tracer, speed, run)
            now = perf_counter()
            # Whole passes only, while the next one should end within `seconds`.
            if smoke or now - start + (now - last) > seconds:
                break
            gc.collect()
            last = perf_counter()
        measured = perf_counter() - start
        speed.burst()
    finally:
        gc.enable()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setup_scaled = [(t1 - t0) * speed.scale(t0, t1) for t0, t1 in setup_times]
    scales = [speed.scale(start, end) for _, _, start, end, _, _ in run.jobs]

    t0 = perf_counter()
    problems = run.unsteady + checks.verify(prepared, run.outcomes, run.failed, k)
    check_s = perf_counter() - t0
    jobs = job_medians(run, scales)
    e2e = end_to_end(setup_scaled, jobs, peak_kib)
    raw_jobs = job_medians(run, [1.0] * len(scales))
    raw = end_to_end([t1 - t0 for t0, t1 in setup_times], raw_jobs, peak_kib)
    shown = per_layer(tracer, speed, run.passes) if trace else e2e
    result = {
        "correct": not problems,
        "attempted": run.attempted,
        "failed": len(run.failed),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in shown.items()},
    }
    details = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "passes": run.passes,
        "measured_s": measured,
        "check_s": check_s,
        "probes": len(speed.took),
        "probe_median_s": statistics.median(speed.took),
        "end_to_end_raw": {name: v for name, (v, _) in raw.items()},
        "jobs": [
            [prepared[ci].case.name, n, alg, 1e3 * v, None if p is None else 1e3 * p]
            for (ci, _, alg), (n, v, p) in jobs.items()
        ],
        "end_to_end": {name: v for name, (v, _) in e2e.items()},
        "failed_operations": [
            f"{prepared[ci].case.name} n={len(prepared[ci].case.inputs[ii])} {alg}: "
            "extract_trees raised RecursionError"
            for ci, ii, alg in run.failed[: len(run.failed) // max(run.passes, 1)]
        ],
        "problems": problems[:20],
    }
    return result, details, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one small pass, for tests")
    args = parser.parse_args(argv)

    result, details, tracer = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
    )
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({**result, **details}, indent=1) + "\n")
    if args.trace:
        keys = ("name", "start", "end", "parent", "job", "attrs")
        with open(OUT / f"{stem}-spans.json", "w") as handle:
            json.dump([dict(zip(keys, s)) for s in tracer.spans], handle)
    for problem in details["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
