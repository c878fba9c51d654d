"""Benchmark of the ghk package: one seeded workload per run.

    python3 bench/run.py --workload library-report --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics with nothing
patched. With ``--trace 1`` it runs the workload five times over the same
operations instead: a warm-up pass, then plain passes in turn with passes
under span-recording wrappers at the package's layer boundaries, twice; it
reports per-layer self time and call counts.
Either way every output is checked, the metrics are printed one per line
with their units, and the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

The package under test is ``src/ghk`` of the checkout this file sits in;
without it the run exits with status 2.
"""

from __future__ import annotations

import argparse
import itertools
import json
import statistics
import sys
from collections import Counter, defaultdict
from pathlib import Path

from measure import ROOT, SRC, Outcome, best_times, closed_loop, run_python, setup_times
from workloads import WORKLOADS
from spans import LAYER, NAME, OP, START, END, Tracer, call_counts, reductions_by_kind, self_times

IMPORT_CODE = (
    "import time; t = time.perf_counter(); import ghk; print(time.perf_counter() - t)"
)
IMPORT_REPEATS = 3
SPANS_DIR = ROOT / ".bench_out"
BLOCK_SECONDS = 0.02  # plain run time of one block of the traced run


def timed_run(workload, seconds: float, outcome: Outcome):
    setup = setup_times()
    outcome.add(closed_loop(workload.prelude(), workload.execute, workload.check))
    ops, deadline = workload.timed_ops(seconds)
    results = closed_loop(ops, workload.execute, workload.check, deadline)
    outcome.add(results)
    setup += setup_times()
    metrics, table = workload.summarize(results)
    metrics["setup_s"] = statistics.median(setup)
    table.append(("setup_s", metrics["setup_s"], "s",
                  f"fresh interpreter: import ghk + first report, median of {len(setup)}"))
    units = {"ops_per_s": "1/s", "op_p50_ms": "ms", "setup_s": "s"}
    return {name: (value, units[name]) for name, value in metrics.items()}, table


def scipy_import_seconds(stderr: str) -> float:
    """Cumulative time of the outermost scipy imports in ``-X importtime`` output."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue  # the header line
        name = fields[2].rstrip()
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), int(fields[1])))
    total, stack = 0, []
    for depth, name, cumulative in reversed(entries):  # parents before children
        del stack[depth:]
        if name.split(".")[0] == "scipy" and not any(
            outer.split(".")[0] == "scipy" for outer in stack
        ):
            total += cumulative
        stack.append(name)
    return total / 1e6


def _import_metrics() -> dict:
    plain, scipy = [], []
    for _ in range(IMPORT_REPEATS):
        _, done = run_python(["-c", IMPORT_CODE])
        plain.append(float(done.stdout))
        _, done = run_python(["-X", "importtime", "-c", "import ghk"])
        scipy.append(scipy_import_seconds(done.stderr))
    return {
        "cli.import_s": (statistics.median(plain), "s"),
        "cli.import_scipy_s": (statistics.median(scipy), "s"),
    }


def layer_metrics(spans: list[list], ops: list, per_op_kinds) -> dict:
    """Per-layer self time and counts from one traced pass over ``ops``."""
    own = self_times(spans)
    roots = [i for i, span in enumerate(spans) if span[LAYER] == "bench"]
    op_at = dict(zip(roots, ops))
    group = {i: "op" if op.kind in per_op_kinds else "row" if op.kind == "sweep" else None
             for i, op in op_at.items()}
    n_ops = sum(g == "op" for g in group.values())
    rows = sum(op.rows for i, op in op_at.items() if group[i] == "row")
    op_ns = sum(spans[i][END] - spans[i][START] for i in roots if group[i] == "op")
    self_ns, layer_calls, name_calls = defaultdict(int), Counter(), Counter()
    for span, ns in zip(spans, own):
        where = group[span[OP]]
        for key in ((span[LAYER], where), (span[LAYER], "all")):
            self_ns[key] += ns
            layer_calls[key] += 1
        name_calls[span[NAME], where] += 1

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "cli.self_us_per_row": (ratio(self_ns["cli", "row"], rows) / 1e3, "us"),
        "states.self_us_per_row": (ratio(self_ns["states", "row"], rows) / 1e3, "us"),
        "states.entropic_h_calls_per_op": (
            ratio(name_calls["entropic_h", "op"], n_ops), "calls/op"),
        "symplectic.self_us_per_op": (ratio(self_ns["symplectic", "op"], n_ops) / 1e3, "us"),
        "symplectic.self_us_per_row": (ratio(self_ns["symplectic", "row"], rows) / 1e3, "us"),
        "discord.self_us_per_op": (ratio(self_ns["discord", "op"], n_ops) / 1e3, "us"),
        "discord.self_us_per_row": (ratio(self_ns["discord", "row"], rows) / 1e3, "us"),
        "affinity.self_us_per_call": (
            ratio(self_ns["affinity", "all"], layer_calls["affinity", "all"]) / 1e3, "us"),
        "affinity.calls_per_state": (ratio(layer_calls["affinity", "op"], n_ops), "calls/op"),
        "oracle.busy_s_per_state": (ratio(self_ns["oracle", "op"], n_ops) / 1e9, "s"),
        "oracle.share": (ratio(self_ns["oracle", "op"], op_ns), "frac"),
    }
    fock = [span[END] - span[START] for span in spans if span[NAME].startswith("fock_")]
    m["oracle.fock_us_per_call"] = (ratio(sum(fock), len(fock)) / 1e3, "us")
    reductions = reductions_by_kind(spans)
    for tag in ("in_family", "out_of_family", "closest_product"):
        done, tagged = reductions.get(tag, (0, 0))
        m[f"symplectic.reductions_per_op.{tag}"] = (ratio(done, tagged), "calls/op")
    return m


def traced_run(workload, seconds: float, outcome: Outcome):
    """A warm-up pass, then two passes over the same ops that run each short
    block of ops plain and then traced; per-layer metrics from the spans of
    the first pass."""
    run, check = workload.execute_in_process, workload.check
    deadline = seconds / 5 if workload.trace_timed else None
    warm = closed_loop(workload.prelude(), run, check)
    warm += closed_loop(workload.stream(), run, check, deadline, workload.trace_limit)
    ops = [op for op, _, _ in warm]
    plain, traced, spans = [], [], []
    for _ in range(2):
        tracer = Tracer()
        untraced, done = alternate(ops, run, check, tracer)
        plain += untraced
        traced += done
        spans.append(tracer.spans)
    for results in (warm, plain, traced):
        outcome.add(results)
    counts = [(call_counts(s), reductions_by_kind(s)) for s in spans]
    if counts[0] != counts[1]:
        outcome.integrity.append("call counts differ between the two traced passes")
    _write_spans(workload.name, spans[0])

    metrics = layer_metrics(spans[0], ops, workload.per_op_kinds)
    metrics["oracle.not_converged"] = (
        sum(failures.count("raised NotConvergedError") for _, _, failures in traced[:len(ops)]),
        "count")
    metrics["trace.overhead_frac"] = (
        sum(best_times(traced).values()) / sum(best_times(plain).values()) - 1, "frac")
    metrics.update(_import_metrics())
    table = [(name, value, unit, "") for name, (value, unit) in sorted(metrics.items())]
    return metrics, table


def alternate(ops: list, run, check, tracer: Tracer):
    """Run ``ops`` in consecutive blocks, each for about BLOCK_SECONDS plain
    and then once more with ``tracer`` installed, so the machine's drift
    reaches both alike. Returns (plain results, traced results)."""
    plain, traced = [], []
    while len(plain) < len(ops):
        block = closed_loop(itertools.islice(ops, len(plain), None), run, check, BLOCK_SECONDS)
        plain += block
        with tracer:
            traced += closed_loop([op for op, _, _ in block],
                                  lambda op: tracer.op(op.kind, run, op), check)
    return plain, traced


def _write_spans(workload: str, spans: list[list]) -> None:
    """Spans of the first traced pass, one JSON array per line."""
    SPANS_DIR.mkdir(exist_ok=True)
    path = SPANS_DIR / f"spans-{workload}.jsonl"
    with open(path, "w", encoding="utf-8") as out:
        for span in spans:
            out.write(json.dumps(span) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ghk" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'ghk'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ghk
    import ghk.cli  # noqa: F401  (the cli workload calls ghk.cli.main)

    if Path(ghk.__file__).resolve().parent != (SRC / "ghk").resolve():
        print(f"error: imported ghk from {ghk.__file__}, not {SRC}", file=sys.stderr)
        return 2
    # numpy seeds must be non-negative; this keeps distinct seeds distinct
    workload = WORKLOADS[args.workload](ghk, args.seed % 2**64)
    outcome = Outcome()
    run = traced_run if args.trace else timed_run
    metrics, table = run(workload, args.seconds, outcome)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, value, unit, note in table:
        print(f"  {name:<40} {value:>14.6g} {unit:<9} {note}")
    frac = outcome.failed / outcome.attempted
    print(f"  {'failed_frac':<40} {frac:>14.6g} {'1':<9} "
          f"{outcome.failed} of {outcome.attempted} operations")
    for reason, count in sorted(outcome.reasons.items()):
        print(f"    failed: {count} x {reason}")
    for problem in outcome.integrity:
        print(f"    incorrect: {problem}")
    print(json.dumps({
        "correct": not outcome.integrity,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
