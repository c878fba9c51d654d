"""Tests of the benchmark's own machinery.

    python3 -m pytest bench/test_bench.py -q
"""

import sys

import numpy as np
import pytest

from measure import SRC, Outcome, best_times, closed_loop, tail_percentile

sys.path.insert(0, str(SRC))

import ghk  # noqa: E402
import ghk.cli  # noqa: E402,F401  (a layer; ``import ghk`` leaves it out)
import run  # noqa: E402
import spans  # noqa: E402
from workloads import Cli, LibraryReport, Op  # noqa: E402


@pytest.mark.parametrize(
    "count, expected",
    [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
     (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_is_the_highest_with_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_best_times_keeps_the_fastest_repeat_of_each_op():
    report, closest = Op("report", 1), Op("closest", 1)
    results = [(report, 3.0, []), (closest, 2.0, []), (report, 1.0, ["failed"]),
               (closest, 4.0, [])]
    assert sorted(best_times(results).values()) == [1.0, 2.0]


def _span(name, start, end, parent, op=0, tag=None, layer="discord"):
    return [name, layer, start, end, parent, op, tag]


def test_self_time_subtracts_nested_and_back_to_back_children():
    trace = [
        _span("op", 0, 100, -1, layer="bench"),
        _span("a", 10, 30, 0),
        _span("b", 30, 50, 0),  # starts where a ends
        _span("a.inner", 15, 25, 1),  # covered by a, not by the op again
        _span("c", 60, 61, 0),
    ]
    assert spans.self_times(trace) == [100 - 20 - 20 - 1, 20 - 10, 20, 10, 1]


def test_reductions_count_toward_the_nearest_tagged_call():
    trace = [
        _span("report", 0, 100, -1, layer="bench"),
        _span("correlation_report", 1, 90, 0, tag="in_family"),
        _span("standard_form", 2, 3, 1, layer="symplectic"),
        _span("entropic_discord_helper", 4, 10, 1),
        _span("standard_form", 5, 6, 3, layer="symplectic"),
        _span("closest_product_state", 91, 99, 0, tag="closest_product"),
        _span("reduce_to_standard_form", 92, 93, 5, layer="symplectic"),
        _span("correlation_report", 99, 100, 0),  # raised: no tag, not counted
        _span("standard_form", 99, 100, 7, layer="symplectic"),
    ]
    assert spans.reductions_by_kind(trace) == {
        "in_family": (2, 1), "closest_product": (1, 1)}


def test_a_raising_input_is_counted_and_the_loop_goes_on():
    def execute(op):
        if op.key == 1:
            raise ghk.NotPhysicalError("rejected")
        return op.key

    workload = LibraryReport.__new__(LibraryReport)  # check() needs no pool here
    ops = [Op("report", k) for k in range(3)]
    results = closed_loop(ops, execute, lambda op, out: workload.check(op, out) if op.key == 1 else [])
    outcome = Outcome()
    outcome.add(results)
    assert [op.key for op, _, _ in results] == [0, 1, 2]
    assert (outcome.attempted, outcome.failed) == (3, 1)
    assert outcome.reasons == {"raised NotPhysicalError": 1}


@pytest.fixture(scope="module")
def cli_workload():
    return Cli(ghk, seed=0)


def _sweep_output(workload, op, flag_row=None, breach_row=None):
    grid, refs = workload._grids[op.key]
    lines = ["x,physical,hellinger_discord"]
    for i, (x, ref) in enumerate(zip(grid, refs)):
        if i == flag_row:
            lines.append(f"{float(x)!r},false,")
        else:
            value = ref + (1e-6 if i == breach_row else 0.0)
            lines.append(f"{float(x)!r},true,{value!r}")
    return 0, "\n".join(lines) + "\n", ""


def test_a_rejected_valid_row_and_a_failed_sweep_are_counted(cli_workload):
    op = cli_workload.sweeps[0]
    outputs = [
        _sweep_output(cli_workload, op),
        _sweep_output(cli_workload, op, flag_row=3, breach_row=7),
        ghk.ConsistencyError("pairing"),
        (1, "", "verification error"),
    ]
    outcome = Outcome()
    outcome.add([(op, 0.0, cli_workload.check(op, out)) for out in outputs])
    assert outcome.attempted == 4 * op.rows
    assert outcome.failed == 2 + 2 * op.rows
    assert outcome.reasons["valid row flagged physical=false"] == 1
    assert outcome.reasons["sweep discord off the mpmath reference"] == 1
    assert cli_workload.max_abs_err == pytest.approx(1e-6, rel=1e-3)


def _patchable():
    """Every attribute the tracer may replace, by identity."""
    owners = [ghk] + [getattr(ghk, layer) for layer in spans.LAYERS]
    owners += [obj for mod in owners[1:] for obj in vars(mod).values()
               if isinstance(obj, type) and obj.__module__ == mod.__name__]
    return {(id(owner), name): value for owner in owners for name, value in vars(owner).items()}


def test_the_tracer_restores_every_wrapper_even_after_an_error():
    before = _patchable()
    matrix = np.diag([1.0, 1.0, 2.0, 2.0])
    with pytest.raises(RuntimeError):
        with spans.Tracer() as tracer:
            assert ghk.discord.standard_form is not before[id(ghk.discord), "standard_form"]
            ghk.correlation_report(matrix)  # outside an operation: not recorded
            assert tracer.spans == []
            tracer.op("report", ghk.correlation_report, matrix)
            raise RuntimeError("stop")
    assert tracer.spans[0][:2] == ["report", "bench"]
    assert {span[spans.LAYER] for span in tracer.spans} >= {"discord", "symplectic"}
    after = _patchable()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_scipy_share_counts_only_the_outermost_scipy_imports():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:       200 |        300 |   scipy",
        "import time:        50 |         50 |     scipy.linalg._misc",
        "import time:       400 |        450 |   scipy.linalg",
        "import time:        10 |         10 |   numpy",
        "import time:       500 |       1260 | ghk",
    ])
    assert run.scipy_import_seconds(stderr) == pytest.approx(750e-6)
