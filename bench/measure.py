"""Timing helpers shared by the workloads: the closed loop, percentiles,
fresh-interpreter timings and tolerance checks."""

from __future__ import annotations

import itertools
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)

# A fresh process that pays what every user of the package pays once:
# interpreter start, ``import ghk`` and one first call.
SETUP_CODE = (
    "import ghk; ghk.correlation_report("
    "[[1, 0, 0.5, 0], [0, 1, 0, -0.5], [0.5, 0, 1, 0], [0, -0.5, 0, 1]])"
)
SETUP_REPEATS = 5  # before the timed loop, and again after it


def tail_percentile(count: int) -> float | None:
    """Highest percentile with at least 10 of ``count`` samples beyond it."""
    for p in TAIL_PERCENTILES:
        if count * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            return p
    return None


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = max(math.ceil(p / 100.0 * len(ordered)), 1)
    return ordered[rank - 1]


def child_env() -> dict:
    """Environment for child interpreters: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])]
    )
    return env


def run_python(args: list[str], timeout: float = 120.0) -> tuple[float, subprocess.CompletedProcess]:
    """Run a fresh interpreter to completion; return (wall seconds, result)."""
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=child_env(),
        cwd=ROOT,
        timeout=timeout,
    )
    return time.perf_counter() - started, done


def setup_times() -> list[float]:
    """Wall times of SETUP_REPEATS fresh processes running SETUP_CODE."""
    times = []
    for _ in range(SETUP_REPEATS):
        elapsed, done = run_python(["-c", SETUP_CODE])
        if done.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{done.stderr}")
        times.append(elapsed)
    return times


def best_times(results) -> dict:
    """Fastest time of each op over its repeats in ``closed_loop`` results,
    by identity: a stream that repeats an op yields the same object.

    On a shared machine the speed of a sub-millisecond call swings with what
    the neighbours run, for seconds to minutes at a time; the fastest of many
    repeats of the same call stays put, and still moves with the call's cost.
    """
    best = {}
    for op, dt, _ in results:
        best[id(op)] = min(dt, best.get(id(op), dt))
    return best


def close(value, reference, tol: float) -> bool:
    """|value - reference| <= tol * max(1, |reference|), for numbers or tuples."""
    if isinstance(reference, (tuple, list)):
        return len(value) == len(reference) and all(
            close(v, r, tol) for v, r in zip(value, reference)
        )
    if reference is None or isinstance(reference, bool):
        return value == reference
    if value is None or isinstance(value, bool):
        return False
    return abs(value - reference) <= tol * max(1.0, abs(reference))


@dataclass
class Outcome:
    """Operations attempted and failed in one run, and why."""

    attempted: int = 0
    failed: int = 0
    reasons: dict = field(default_factory=dict)  # reason -> count
    integrity: list = field(default_factory=list)  # problems with the benchmark itself

    def add(self, results) -> None:
        """Count the results of ``closed_loop``; a sweep counts once per row."""
        for op, _, failures in results:
            self.attempted += op.rows or 1
            self.failed += len(failures)
            for reason in failures:
                self.reasons[reason] = self.reasons.get(reason, 0) + 1


def closed_loop(ops, execute, check, seconds: float | None = None, limit: int | None = None):
    """One caller that waits for each result, until time or ops run out.

    Each output is checked as soon as it arrives, outside the op's time, and
    then dropped. An exception from ``execute`` is the op's output, never
    the run's end. Returns [(op, seconds, failure reasons)].
    """
    results = []
    deadline = None if seconds is None else time.perf_counter() + seconds
    for op in itertools.islice(ops, limit):
        t0 = time.perf_counter()
        if deadline is not None and t0 >= deadline:
            break
        try:
            output = execute(op)
        except Exception as exc:  # a failed operation, counted by the caller
            output = exc
        elapsed = time.perf_counter() - t0
        results.append((op, elapsed, check(op, output)))
    return results
