"""Command-line interface: report, sweep, verify."""

import dataclasses
import functools
import importlib.util
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from family_reference import family_reference

import ghk
from ghk import (
    ConsistencyError,
    GhkError,
    MtsParams,
    NotConvergedError,
    NotPhysicalError,
    StandardForm,
    StsParams,
    TruncationInsufficientError,
    correlation_report,
    mts_standard_form,
    random_physical_cm,
    random_standard_form,
    sts_standard_form,
)
from ghk.cli import main


EYE4 = np.eye(4).tolist()


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReport:
    def test_sts_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "report", "--sts", "nbar1=1", "nbar2=1", "r=1"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["report"]["hellinger_discord"] == pytest.approx(
            math.tanh(1.0) ** 2, abs=1e-9
        )
        assert payload["report"]["separable"] is False
        assert payload["standard_form"]["c"] == -payload["standard_form"]["d"]

    def test_std_form_product_all_zero(self, capsys):
        code, out, _ = run_cli(capsys, "report", "--std-form", "1.5,0.7,0,0")
        assert code == 0
        payload = json.loads(out)
        report = payload["report"]
        assert report["hellinger_discord"] == 0.0
        assert report["mutual_information"] == 0.0
        assert report["eof"] == 0.0
        assert report["separable"] is True
        # asymmetric marginals: entropic closed forms do not apply
        assert report["entropic_discord"] is None
        assert report["classical_correlations"] is None

    def test_nonphysical_matrix_exit_2(self, capsys):
        matrix = ",".join(str(x) for x in (0.4 * np.eye(4)).ravel())
        code, out, err = run_cli(capsys, "report", "--matrix", matrix)
        assert code == 2
        assert "physical" in err.lower()

    def test_matrix_that_overflows_when_symmetrised_exits_2(self, capsys):
        matrix = "1.7e308,0,0,0;0,1,0,0;0,0,1,0;0,0,0,1"
        code, out, err = run_cli(capsys, "report", "--matrix", matrix)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "overflow" in err

    def test_zero_gap_matrix_exits_2_without_a_traceback(self, tmp_path):
        # the pure two-mode squeezed vacuum at r = 9 as a float matrix, whose
        # own kappa2 is 1/2 - 5.4e-3 (test_a_rounded_matrix_below_half_is_rejected
        # of test_report.py): the exact decision rejects it
        rows = sts_standard_form(StsParams(0.0, 0.0, 9.0)).to_cm().matrix.tolist()
        path = tmp_path / "cm.txt"
        path.write_text("\n".join(" ".join(map(repr, row)) for row in rows))
        src = str(Path(ghk.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "ghk.cli", "report", "--matrix", str(path)],
            env=env, capture_output=True, text=True,
        )
        assert done.returncode == 2
        assert done.stderr.startswith("error:")
        assert "Traceback" not in done.stderr
        assert done.stdout == ""

    def test_pure_squeezed_vacuum_at_r_9_7_exits_2(self, capsys):
        # b and c of the family form round to one float, so the matrix is
        # singular; LAPACK's Cholesky passes it, and b1 b2 > c^2 fails on
        # its reduced form
        matrix = sts_standard_form(StsParams(0.0, 0.0, 9.7)).to_cm().matrix
        with pytest.raises(NotPhysicalError):
            correlation_report(matrix)
        text = ",".join(repr(x) for x in matrix.ravel().tolist())
        code, out, err = run_cli(capsys, "report", "--matrix", text)
        assert (code, out) == (2, "")
        assert "physical" in err

    def test_full_precision_inline_matrix(self, capsys):
        # repr-precision entries make the text longer than a file name may be
        cm = random_physical_cm(2, np.random.default_rng(3))
        matrix = ",".join(repr(x) for x in cm.matrix.ravel().tolist())
        assert len(matrix) > 255
        code, out, _ = run_cli(capsys, "report", "--matrix", matrix)
        assert code == 0
        assert json.loads(out)["input"]["matrix"] == cm.matrix.tolist()

    def test_report_document_read_as_numpy_reads_it(self, capsys):
        # numbers written as strings, and a mean as a 2x2 list, which numpy
        # reads and the report flattens, and echoes flat
        rows = [[1.5, 0.2, 0.6, 0.0], [0.2, 1.2, 0.1, -0.4],
                [0.6, 0.1, 1.3, 0.0], [0.0, -0.4, 0.0, 1.1]]
        plain = {"input": {"matrix": rows}}
        spelled = {"input": {"matrix": [[repr(x) for x in row] for row in rows],
                             "mean": [[0, 1], [2, "3"]]}}
        code, first, _ = run_cli(capsys, "report", "--matrix", json.dumps(plain))
        assert code == 0
        code, second, _ = run_cli(capsys, "report", "--matrix", json.dumps(spelled))
        assert code == 0
        first_doc, second_doc = json.loads(first), json.loads(second)
        assert second_doc["input"]["mean"] == [0.0, 1.0, 2.0, 3.0]
        for key in ("report", "standard_form"):
            assert second_doc[key] == first_doc[key]
        assert second_doc["input"]["matrix"] == first_doc["input"]["matrix"]

    def test_a_nested_mean_echoes_flat_and_round_trips(self, capsys):
        # the echo is the mean that was checked: its 4 entries, flat; a
        # document read back prints itself
        rows = StandardForm(1.5, 1.2, 0.3, -0.2).matrix_rows()
        document = {"input": {"matrix": rows, "mean": [[0, 1], [2, 3]]}}
        code, first, _ = run_cli(capsys, "report", "--matrix", json.dumps(document))
        assert code == 0
        assert json.loads(first)["input"]["mean"] == [0.0, 1.0, 2.0, 3.0]
        code, second, _ = run_cli(capsys, "report", "--matrix", first)
        assert code == 0
        assert second == first

    def test_a_report_document_of_integers_past_the_float_range_exits_2(self, capsys):
        huge = 10**400
        for document in (
            {"input": {"matrix": [[huge, 0, 0, 0]] + EYE4[1:]}},
            {"input": {"matrix": EYE4, "mean": [huge, 0, 0, 0]}},
        ):
            code, out, err = run_cli(capsys, "report", "--matrix", json.dumps(document))
            assert (code, out) == (2, "")
            assert err == "error: could not read a report document: int too large to convert to float\n"

    def test_matrix_asymmetric_within_tolerance_echoes_its_symmetrised_rows(self, capsys):
        rows = [[1.5, 0.2, 0.6 + 4e-11, 0.0], [0.2, 1.2, 0.1, -0.4],
                [0.6, 0.1, 1.3, 0.0], [0.0, -0.4, -3e-11, 1.1]]
        code, out, _ = run_cli(capsys, "report", "--matrix", json.dumps({"input": {"matrix": rows}}))
        assert code == 0
        doc = json.loads(out)
        symmetrised = ghk.CovarianceMatrix(np.array(rows)).matrix.tolist()
        assert symmetrised != rows
        assert doc["input"]["matrix"] == symmetrised
        report = correlation_report(rows)
        assert doc["report"]["hellinger_discord"] == report.hellinger_discord
        assert doc["standard_form"]["c"] == report.standard_form.c
        # the report of the symmetrised matrix, and of this document, print
        # the same bytes
        text = ";".join(",".join(map(repr, row)) for row in symmetrised)
        assert run_cli(capsys, "report", "--matrix", text) == (0, out, "")
        assert run_cli(capsys, "report", "--matrix", out) == (0, out, "")

    def test_matrix_file(self, capsys, tmp_path):
        path = tmp_path / "cm.txt"
        path.write_text("1.5 0 0 0\n0 1.5 0 0\n0 0 0.7 0\n0 0 0 0.7\n")
        code, out, _ = run_cli(capsys, "report", "--matrix", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["hellinger_discord"] == 0.0

    def test_round_trip(self, capsys, tmp_path):
        # a family report reads the family's exact invariants and the
        # reduction of a given standard form may move its numbers in the
        # last digits, so the matrix route agrees to 1e-12
        inputs = [
            ("--sts", "nbar1=0.5", "nbar2=2", "r=0.8"),
            ("--mts", "kappa1=3", "kappa2=1.2", "theta=0.8"),
            ("--std-form", "1.7,1.1,0.6,-0.3"),
            ("--std-form", "1.7,1.1,0.6,-0.3,2.5,0.4"),
        ]
        for source in inputs:
            code, first, _ = run_cli(capsys, "report", *source)
            assert code == 0
            path = tmp_path / "report.json"
            path.write_text(first)
            code, second, _ = run_cli(capsys, "report", "--matrix", str(path))
            assert code == 0
            first_doc = json.loads(first)
            second_doc = json.loads(second)
            assert second_doc["input"]["matrix"] == first_doc["input"]["matrix"]
            for key in ("report", "standard_form"):
                assert_numbers_close(second_doc[key], first_doc[key], 1e-12)
            # a second re-ingestion is byte-identical
            path2 = tmp_path / "report2.json"
            path2.write_text(second)
            code, third, _ = run_cli(capsys, "report", "--matrix", str(path2))
            assert third == second

    def test_requires_exactly_one_source(self, capsys):
        code, _, err = run_cli(capsys, "report")
        assert code == 2
        code, _, err = run_cli(
            capsys, "report", "--std-form", "1,1,0,0", "--sts", "r=1"
        )
        assert code == 2

    def test_mts_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "report", "--mts", "kappa1=2.5", "kappa2=0.5", "theta=1.5707963267948966"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["hellinger_discord"] == pytest.approx(
            2.0 - math.sqrt(3.0), rel=1e-9
        )
        assert payload["report"]["separable"] is True


def assert_numbers_close(actual, expected, rel):
    """Equal structure; floats within ``rel`` relative, everything else equal."""
    if isinstance(expected, dict):
        assert list(actual) == list(expected)
        for key in expected:
            assert_numbers_close(actual[key], expected[key], rel)
    elif isinstance(expected, list):
        assert len(actual) == len(expected)
        for a, b in zip(actual, expected):
            assert_numbers_close(a, b, rel)
    elif isinstance(expected, float):
        assert type(actual) is float
        assert math.isclose(actual, expected, rel_tol=rel), (actual, expected)
    else:
        assert actual == expected


# The order of the fields of a report document's "report" object.
REPORT_KEYS = (
    "hellinger_discord", "entropic_discord", "mutual_information",
    "classical_correlations", "eof", "separable", "symplectic_spectrum", "pt_spectrum",
)


def numpy_route(sf: StandardForm):
    """(exit code, report document fields) of ``correlation_report(sf.to_cm())``,
    the matrix route, for the input of a ``ghk report`` of ``sf``."""
    try:
        cov = sf.to_cm()
        report = correlation_report(cov)
    except (ConsistencyError, NotConvergedError, TruncationInsufficientError):
        return 1, None
    except GhkError:
        return 2, None
    fields = dataclasses.asdict(report)
    form = fields.pop("standard_form")
    fields["symplectic_spectrum"] = list(fields["symplectic_spectrum"])
    fields["pt_spectrum"] = list(fields["pt_spectrum"])
    return 0, {
        "matrix": cov.matrix.tolist(),
        "mean": [0.0] * 4,
        "standard_form": form,
        "report": {name: fields[name] for name in REPORT_KEYS},
    }


def form_route(capsys, argv):
    """(exit code, report document fields) of ``ghk report`` in this process."""
    code, out, _ = run_cli(capsys, "report", *argv)
    if code:
        return code, None
    doc = json.loads(out)
    return 0, {
        "matrix": doc["input"]["matrix"],
        "mean": doc["input"]["mean"],
        "standard_form": doc["standard_form"],
        "report": doc["report"],
    }


def sts_inputs(rng, n):
    """(argv, form) of squeezed thermal states, the benchmark's distribution."""
    for _ in range(n):
        n1, n2 = (float(x) for x in rng.uniform(0.0, 5.0, 2))
        r = float(rng.uniform(0.05, 3.0))
        argv = ("--sts", f"nbar1={n1!r}", f"nbar2={n2!r}", f"r={r!r}")
        yield argv, sts_standard_form(StsParams(n1, n2, r))


def mts_inputs(rng, n):
    """(argv, form) of mode-mixed thermal states, the benchmark's distribution."""
    for _ in range(n):
        k2 = float(rng.uniform(0.5, 3.0))
        k1 = k2 + float(rng.uniform(0.1, 3.0))
        theta = float(rng.uniform(0.05, math.pi - 0.05))
        argv = ("--mts", f"kappa1={k1!r}", f"kappa2={k2!r}", f"theta={theta!r}")
        yield argv, mts_standard_form(MtsParams(k1, k2, theta))


def std_form_argv(sf: StandardForm):
    fields = (sf.b1, sf.b2, sf.c, sf.d, sf.s1, sf.s2)
    return ("--std-form", ",".join(repr(x) for x in fields))


def std_form_inputs(rng, n):
    """(argv, form): criterion 2's random forms, as given and with scales
    from 1e-8 to 1e8; forms of the same draw below the uncertainty bound;
    and forms with c^2 >= b1 b2, which belong to no positive-definite matrix."""
    for _ in range(n):
        sf = random_standard_form(rng)
        s1, s2 = (float(x) for x in 10.0 ** rng.uniform(-8.0, 8.0, 2))
        b1, b2 = (float(x) for x in rng.uniform(0.5, 5.0, 2))
        c = float(rng.uniform(0.0, 0.98 * math.sqrt(b1 * b2)))
        below = StandardForm(b1, b2, c, float(rng.uniform(-c, c)))
        c = float(rng.uniform(1.0, 1.5) * math.sqrt(b1 * b2))
        no_matrix = StandardForm(b1, b2, c, float(rng.uniform(-c, c)))
        for form in (sf, dataclasses.replace(sf, s1=s1, s2=s2), below, no_matrix):
            yield std_form_argv(form), form


def assert_reference(report: dict, argv, rel: float) -> None:
    """The report fields of the family input ``argv`` against the 50-digit
    family reference: within ``rel`` where the reference is at least 1e-3,
    and None, 0 and the separability where the reference has them."""
    params = dict(token.split("=") for token in argv[1:])
    if argv[0] == "--sts":
        k1, k2 = (mpmath.mpf(params[n]) + 0.5 for n in ("nbar1", "nbar2"))
        ref = family_reference(True, k1, k2, float(params["r"]))
    else:
        k1, k2 = (float(params[n]) for n in ("kappa1", "kappa2"))
        ref = family_reference(False, k1, k2, float(params["theta"]))
    for name, expected in ref.items():
        value = report[name]
        if expected is None or isinstance(expected, bool):
            assert value == expected, (name, argv)
            continue
        pairs = zip(value, expected) if isinstance(value, list) else [(value, expected)]
        for x, exact in pairs:
            if abs(exact) >= 1e-3:
                assert abs(x - exact) <= rel * abs(exact), (name, argv, x)
            elif exact == 0:
                assert x == 0.0, (name, argv, x)


class TestReportRoutes:
    """``ghk report`` of family and standard-form input takes the float route.
    A given standard form reports what its matrix reports; a family form
    reads the family's exact invariants, so its exit code is the matrix
    route's and its numbers are the family reference's."""

    def test_families_match_the_matrix_route_exit_codes_and_the_reference(self, capsys):
        rng = np.random.default_rng(20261018)
        inputs = [*sts_inputs(rng, 60), *mts_inputs(rng, 60)]
        for argv, sf in inputs:
            code, fields = form_route(capsys, argv)
            expected_code, _ = numpy_route(sf)
            assert code == expected_code == 0, argv
            assert_reference(fields["report"], argv, 1e-12)

    def test_std_forms_match_the_matrix_route(self, capsys):
        rng = np.random.default_rng(20261019)
        codes = []
        for argv, sf in std_form_inputs(rng, 60):
            code, fields = form_route(capsys, argv)
            expected_code, expected = numpy_route(sf)
            assert code == expected_code, argv
            codes.append(code)
            if code == 0:
                assert_numbers_close(fields, expected, 1e-12)
        # both physical and unphysical forms were drawn
        assert codes.count(0) >= 120 and codes.count(2) >= 60

    def test_pure_squeezed_vacuum_at_large_squeeze(self, capsys):
        argv = ("--sts", "nbar1=0", "nbar2=0", "r=4.5")
        code, _ = form_route(capsys, argv)
        expected_code, _ = numpy_route(sts_standard_form(StsParams(0.0, 0.0, 4.5)))
        assert code == expected_code


class TestSweep:
    def test_fig1_style_monotone(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "--sts",
            "nbar1=0",
            "nbar2=20",
            "--sweep-param",
            "r",
            "--range",
            "0.05:2.5:30",
        )
        assert code == 0
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        col = header.index("hellinger_discord")
        values = [float(row.split(",")[col]) for row in lines[1:]]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(v < 1.0 for v in values)

    def test_deterministic_output(self, capsys):
        args = (
            "sweep", "--mts", "kappa1=2.5", "kappa2=0.5",
            "--sweep-param", "theta", "--range", "0:3.14159:13",
        )
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_symmetric_family_eof_threshold(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "--symmetric",
            "b2c2=6.25",
            "dsign=-1",
            "--sweep-param",
            "b",
            "--range",
            "2.5:9:27",
        )
        assert code == 0
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        b_col = header.index("b")
        eof_col = header.index("eof")
        for row in lines[1:]:
            cells = row.split(",")
            b = float(cells[b_col])
            eof = float(cells[eof_col])
            if b <= 6.5:
                assert eof == 0.0
            else:
                assert eof > 0.0

    # (start, stop) of the benchmark's four grids and of the README's sweeps
    GRID_ENDS = [
        (0.05, 3.0), (2.5, 9.0), (0.0, math.pi), (0.05, 12.0),
        ("0.05", "3"), ("2.5", "9"), ("0", "3.14159"), ("-1", "1"),
    ]

    @pytest.mark.parametrize("steps", [2, 3, 25, 40, 60, 1000])
    @pytest.mark.parametrize("start, stop", GRID_ENDS)
    def test_grid_is_numpy_linspace_bit_for_bit(self, capsys, start, stop, steps):
        grid = f"{start!s}:{stop!s}:{steps}"
        code, out, _ = run_cli(
            capsys,
            "sweep", "--mts", "kappa1=2.5", "kappa2=0.5", "theta=1",
            "--sweep-param", "phi", "--range", grid, "--out", "json",
            "--outputs", "separable",
        )
        assert code == 0
        values = [row[0] for row in json.loads(out)["rows"]]
        expected = np.linspace(float(start), float(stop), steps).tolist()
        assert [x.hex() for x in values] == [x.hex() for x in expected]

    def test_negative_range_start(self, capsys):
        # argparse alone reads "-1:1:3" as an option and exits 2
        code, out, _ = run_cli(
            capsys,
            "sweep", "--mts", "kappa1=2.5", "kappa2=0.5", "theta=1",
            "--sweep-param", "phi", "--range", "-1:1:3",
        )
        assert code == 0
        _, joined, _ = run_cli(
            capsys,
            "sweep", "--mts", "kappa1=2.5", "kappa2=0.5", "theta=1",
            "--sweep-param", "phi", "--range=-1:1:3",
        )
        assert out == joined
        rows = out.strip().splitlines()[1:]
        assert [float(row.split(",")[0]) for row in rows] == [-1.0, 0.0, 1.0]

    def test_unphysical_rows_flagged_not_fatal(self, capsys):
        # the mode-mixed partner stops being physical beyond b = 6.5
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "--symmetric",
            "b2c2=6.25",
            "dsign=1",
            "--sweep-param",
            "b",
            "--range",
            "2.5:9:27",
        )
        assert code == 0
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        b_col = header.index("b")
        phys_col = header.index("physical")
        seen_unphysical = False
        for row in lines[1:]:
            cells = row.split(",")
            physical = cells[phys_col] == "true"
            if float(cells[b_col]) > 6.5 + 1e-9:
                assert not physical
                seen_unphysical = True
            else:
                assert physical
        assert seen_unphysical

    def test_pure_sts_edge_grid_completes(self, capsys):
        # reducing the matrices of this grid raises NotPhysicalError at
        # r = 9.7 and 10.95 (b and c round to one float); the family rows
        # read the exact invariants, so every row is a state and every
        # column matches the reference to the 12 digits of the CSV
        code, out, _ = run_cli(
            capsys, "sweep", "--sts", "nbar1=0", "nbar2=0",
            "--sweep-param", "r", "--range", "0.05:12:240",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 241
        header = lines[0].split(",")
        for row in lines[1:]:
            cells = dict(zip(header, row.split(",")))
            assert cells.pop("physical") == "true"
            r = float(cells.pop("r"))
            ref = family_reference(True, 0.5, 0.5, r)
            assert cells.pop("separable") == str(ref["separable"]).lower()
            assert abs(float(cells["hellinger_discord"]) - math.tanh(r) ** 2) <= 1e-10
            for name, cell in cells.items():
                assert abs(float(cell) - ref[name]) <= 1e-11 * ref[name], (r, name)

    def test_classical_correlations_match_between_signs(self, capsys):
        rows = {}
        for dsign in ("-1", "1"):
            code, out, _ = run_cli(
                capsys,
                "sweep",
                "--symmetric",
                "b2c2=6.25",
                f"dsign={dsign}",
                "--sweep-param",
                "b",
                "--range",
                "2.5:6.5:17",
                "--outputs",
                "classical_correlations",
            )
            assert code == 0
            rows[dsign] = out.strip().splitlines()
        assert rows["-1"][1:] == rows["1"][1:]

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "--sts",
            "nbar1=1",
            "nbar2=1",
            "--sweep-param",
            "r",
            "--range",
            "0:1:5",
            "--out",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["columns"][0] == "r"
        assert len(payload["rows"]) == 5
        assert payload["rows"][0][1] is True

    @pytest.mark.parametrize("bounds", ["0:inf:3", "nan:1:3", "1:-inf:3"])
    def test_non_finite_range_exit_2(self, capsys, bounds):
        code, out, err = run_cli(
            capsys, "sweep", "--sts", "nbar1=1", "nbar2=1",
            "--sweep-param", "r", "--range", bounds,
        )
        assert code == 2
        assert out == ""
        assert "finite" in err

    def test_sweep_param_validation(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--sts", "nbar1=1", "nbar2=1", "r=1",
            "--sweep-param", "r", "--range", "0:1:5",
        )
        assert code == 2
        code, _, err = run_cli(
            capsys, "sweep", "--sts", "--sweep-param", "bogus", "--range", "0:1:5"
        )
        assert code == 2


class TestVerify:
    def test_small_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--seed", "42", "--trials", "4")
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") >= 7

    def test_zero_trials_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--trials", "0"])
        assert excinfo.value.code == 2

    def test_negative_seed_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--seed", "-1", "--trials", "1"])
        assert excinfo.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_breach_injection(self, capsys, monkeypatch):
        closed_form = ghk.checks.max_affinity
        monkeypatch.setattr(
            ghk.checks, "max_affinity", lambda cov: closed_form(cov) + 1e-3
        )
        code, out, _ = run_cli(capsys, "verify", "--seed", "42", "--trials", "3")
        assert code == 1
        assert "FAIL" in out
        assert "standard form" in out

    def test_an_oracle_that_does_not_converge_exits_1(self, capsys, monkeypatch):
        def stalled(seed, trials):
            raise NotConvergedError("best two starts disagree: 0.45 vs 0.36")
            yield

        monkeypatch.setattr(ghk.checks, "suites", stalled)
        code, _, err = run_cli(capsys, "verify", "--trials", "1")
        assert code == 1
        assert err.startswith("verification error: best two starts disagree")


SWEEP_STS = ("sweep", "--sts", "nbar1=1", "nbar2=1", "--sweep-param", "r")


@pytest.mark.parametrize(
    "argv",
    [
        # key=value tokens and family keys
        ("report", "--sts", "nbar1"),
        ("report", "--sts", "nbar1=one"),
        ("report", "--sts", "kappa1=1"),
        ("report", "--mts", "kappa2=1", "theta=1"),
        # the symmetric family: b, then c or b2c2, then d or dsign
        ("sweep", "--symmetric", "c=1", "dsign=-1", "--sweep-param", "d", "--range", "0:1:2"),
        ("sweep", "--symmetric", "b=2", "dsign=-1", "--sweep-param", "d", "--range", "0:1:2"),
        ("sweep", "--symmetric", "c=1", "--sweep-param", "b", "--range", "2:3:2"),
        # --std-form and --matrix text
        ("report", "--std-form", "1,1,0"),
        ("report", "--std-form", "1,1,zero,0"),
        ("report", "--std-form", "1e200,1e200,0,0,1e200,1"),
        ("report", "--matrix", '{"input": '),
        ("report", "--matrix", "1 0 0 0; 0 1 0 0; 0 0 1 0; 0 0 0 x"),
        ("report", "--matrix", "1 0 0 0; 0 1 0 0; 0 0 1 0"),
        ("report", "--matrix", "1 0 0 0 0; 1 0 0 0; 0 1 0 0; 1 0 0"),
        # report documents whose matrix or mean numpy cannot read, or reads
        # into something that is not a two-mode matrix or a 4-vector
        ("report", "--matrix", json.dumps({"input": {"matrix": EYE4[:3] + [[0, 0, 1]]}})),
        ("report", "--matrix", json.dumps({"input": {"matrix": [[None] * 4] * 4}})),
        ("report", "--matrix", json.dumps({"input": {"matrix": np.eye(6).tolist()}})),
        ("report", "--matrix", json.dumps({"input": {"matrix": EYE4, "mean": [0, 0, 0]}})),
        ("report", "--matrix", json.dumps({"input": {"matrix": EYE4, "mean": [[0, "x"]]}})),
        # the sweep's family flag, grid and columns
        ("sweep", "--sweep-param", "r", "--range", "0:1:2"),
        ("sweep", "--sts", "nbar1=1", "--range", "0:1:2"),
        SWEEP_STS,
        SWEEP_STS + ("--range", "0:1"),
        SWEEP_STS + ("--range", "0:1:two"),
        SWEEP_STS + ("--range", "0:1:1"),
        SWEEP_STS + ("--range", "0:1:2", "--outputs", "hellinger_discord,bogus"),
        # a form whose |d| exceeds c by 5e-13, which its check lets through
        ("report", "--std-form", "1,1,0.9999999999995,-1"),
    ],
)
def test_input_errors_exit_2_with_one_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_family_reports_far_past_the_rounded_form(capsys):
    # b and c of this form round to one float: the report reads the family's
    # spectrum and root, and every number in the document is finite
    code, out, _ = run_cli(capsys, "report", "--sts", "nbar1=0.001", "nbar2=1", "r=170")
    assert code == 0
    report = json.loads(out, parse_constant=lambda name: pytest.fail(name))["report"]
    assert report["hellinger_discord"] == 1.0
    assert report["symplectic_spectrum"] == [1.5, 0.501]
    assert report["separable"] is False


def test_a_correlated_form_at_a_large_scale_is_not_a_product(capsys):
    code, out, _ = run_cli(capsys, "report", "--std-form", "1e14,1e14,5e13,-5e13")
    assert code == 0
    report = json.loads(out)["report"]
    assert report["hellinger_discord"] == pytest.approx(0.0718, abs=1e-4)
    assert report["mutual_information"] == pytest.approx(0.2877, abs=1e-4)


@pytest.mark.parametrize(
    "argv",
    [
        ("report", "--sts", "nbar1=1", "nbar2=1", "r=0.5"),
        ("sweep", "--sts", "nbar1=1", "nbar2=1", "--sweep-param", "r", "--range", "0:1:3",
         "--out", "json"),
    ],
)
def test_a_value_json_cannot_hold_exits_2(capsys, monkeypatch, argv):
    # JSON has no NaN or Infinity: a document that would hold one is an error
    original = ghk.cli._form_report

    def not_finite(sf, tol):
        return dataclasses.replace(original(sf, tol), mutual_information=math.nan)

    monkeypatch.setattr(ghk.cli, "_form_report", not_finite)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


def test_symmetric_rows_with_direct_d_and_an_unreachable_b2c2(capsys):
    # b2c2 = 5 asks for c^2 = b^2 - 5 < 0: that row is flagged, not fatal
    code, out, _ = run_cli(
        capsys, "sweep", "--symmetric", "b=2", "d=0", "--sweep-param", "b2c2",
        "--range", "2:5:2", "--outputs", "hellinger_discord",
    )
    assert code == 0
    rows = [row.split(",") for row in out.strip().splitlines()[1:]]
    assert [row[:2] for row in rows] == [["2", "true"], ["5", "false"]]
    assert float(rows[0][2]) > 0.0 and rows[1][2] == ""


def test_symmetric_rows_with_d_past_c_by_a_rounding_are_flagged(capsys):
    # |d| - c = 5e-13 passes the form's check, and sqrt(b1 b2) - |d| = 0
    code, out, _ = run_cli(
        capsys, "sweep", "--symmetric", "b=1", "d=-1", "--sweep-param", "c",
        "--range", "0.9999999999995:1:2", "--outputs", "hellinger_discord",
    )
    assert code == 0
    rows = [row.split(",") for row in out.strip().splitlines()[1:]]
    assert [row[1:] for row in rows] == [["false", ""], ["false", ""]]


def symmetric_gap_reference(b: float, b2c2: float, dsign: float) -> dict:
    """``family_reference`` of the symmetric state with b and the gap
    b^2 - c^2 = ``b2c2`` exactly: squeezed thermal with k = sqrt(b2c2) and
    sinh 2r = c / k for dsign < 0, else mode-mixed thermal of spectrum
    (b + c, b2c2 / (b + c)) at theta = pi/2."""
    with mpmath.workdps(80):
        b, gap = mpmath.mpf(b), mpmath.mpf(b2c2)
        c = mpmath.sqrt(b * b - gap)
        if dsign < 0:
            k = mpmath.sqrt(gap)
            return family_reference(True, k, k, mpmath.asinh(c / k) / 2)
        return family_reference(False, b + c, gap / (b + c), mpmath.pi / 2)


@pytest.mark.parametrize(
    "argv, dsign",
    [
        (["b2c2=6.25", "dsign=-1", "--sweep-param", "b", "--range", "2.6:9:2"], -1),
        (["b2c2=6.25", "dsign=-1", "--sweep-param", "b", "--range", "1e3:1e6:2"], -1),
        (["b2c2=6.25", "dsign=-1", "--sweep-param", "b", "--range", "1e8:1e8:2"], -1),
        (["b=1e8", "dsign=1", "--sweep-param", "b2c2", "--range", "1.5e8:3e8:7"], 1),
        (["b=1e3", "dsign=1", "--sweep-param", "b2c2", "--range", "2.5e3:2.5e3:2"], 1),
        (["b=1e6", "dsign=1", "--sweep-param", "b2c2", "--range", "3e6:3e6:2"], 1),
        # from b = 2.9e8 on, c = sqrt(b^2 - b2c2) rounds to b
        (["b2c2=6.25", "dsign=-1", "--sweep-param", "b", "--range", "1e3:1e9:25"], -1),
    ],
)
def test_symmetric_gap_rows_match_the_family_reference(capsys, argv, dsign):
    # c = sqrt(b^2 - b2c2) loses the gap at large b, so each row must carry
    # the gap it is given
    code, out, _ = run_cli(capsys, "sweep", "--symmetric", *argv, "--out", "json")
    assert code == 0
    payload = json.loads(out)
    swept = payload["sweep_param"]
    for row in payload["rows"]:
        cells = dict(zip(payload["columns"], row))
        point = {**payload["fixed"], swept: cells.pop(swept)}
        assert cells.pop("physical") is True
        ref = symmetric_gap_reference(point["b"], point["b2c2"], dsign)
        assert cells.pop("separable") == ref["separable"]
        for name, value in cells.items():
            assert abs(value - ref[name]) <= 1e-12 * ref[name], (point, name)


@pytest.mark.parametrize(
    "argv, physical",
    [
        # b2c2 <= 0 asks for c >= b, and b2c2 = 0.2 for k = 0.447 < 1/2
        (["b=2", "dsign=-1", "--sweep-param", "b2c2", "--range", "-1:0.2:3"], [False] * 3),
        (["b=2", "dsign=1", "--sweep-param", "b2c2", "--range", "-1:0.2:3"], [False] * 3),
        # b < k: b^2 - b2c2 < 0
        (["b2c2=6.25", "dsign=-1", "--sweep-param", "b", "--range", "1:2.4:2"], [False] * 2),
        # the mode-mixed k2 = b2c2 / (b + c) falls below 1/2 past b = 6.5, at
        # the second row by 8.3e-13, within phys_tol
        (
            ["b2c2=6.25", "dsign=1", "--sweep-param", "b", "--range", "6.5:6.50000000001:2"],
            [True, True],
        ),
    ],
)
def test_symmetric_gap_rows_without_a_family_are_decided_by_the_gate(
    capsys, argv, physical
):
    code, out, _ = run_cli(capsys, "sweep", "--symmetric", *argv, "--out", "json")
    assert code == 0
    assert [row[1] for row in json.loads(out)["rows"]] == physical


def run_fresh(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter on this package."""
    src = str(Path(ghk.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout


def test_import_loads_no_scipy():
    code = (
        "import sys, ghk, ghk.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert run_fresh(code).strip() == "[]"


# Runs the three README sweeps in CSV and JSON and a sweep that fails with a
# ParseError on its first row, noting after each whether numpy is loaded;
# then reports a matrix given as nested lists, which needs no numpy either.
NUMPY_FREE_SWEEPS = """
import contextlib, dataclasses, io, json, math, sys
import ghk, ghk.cli

steps = [["import ghk", None, "numpy" in sys.modules]]
sweeps = [
    ["--sts", "nbar1=0", "nbar2=20", "--sweep-param", "r", "--range", "0.05:3:60"],
    ["--symmetric", "b2c2=6.25", "dsign=-1", "--sweep-param", "b", "--range", "2.5:9:40"],
    ["--mts", "kappa1=2.5", "kappa2=0.5", "--sweep-param", "theta", "--range", "0:3.14159:25"],
    ["--mts", "kappa1=2.5", "--sweep-param", "theta", "--range", "0:1:3"],
]
for argv in sweeps:
    for out in ("csv", "json"):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = ghk.cli.main(["sweep", *argv, "--out", out])
        steps.append([" ".join([*argv[:1], out]), code, "numpy" in sys.modules])
b, c = 1.5 * math.cosh(1.4), 1.5 * math.sinh(1.4)
matrix = [[b, 0.0, c, 0.0], [0.0, b, 0.0, -c], [c, 0.0, b, 0.0], [0.0, -c, 0.0, b]]
report = dataclasses.asdict(ghk.correlation_report(matrix))
steps.append(["correlation_report", None, "numpy" in sys.modules])
print(json.dumps({"steps": steps, "matrix": matrix, "report": report}))
"""


def test_sweeps_run_without_numpy():
    result = json.loads(run_fresh(NUMPY_FREE_SWEEPS))
    steps = result["steps"]
    assert steps[0] == ["import ghk", None, False]
    assert [code for _, code, _ in steps[1:-3]] == [0] * 6
    assert [code for _, code, _ in steps[-3:-1]] == [2, 2]
    assert [loaded for _, _, loaded in steps] == [False] * 10
    assert steps[-1][0] == "correlation_report"
    # the report of this process, where numpy is loaded, is the one that
    # process gave
    here = dataclasses.asdict(ghk.correlation_report(result["matrix"]))
    assert result["report"] == json.loads(json.dumps(here))
    assert result["report"]["hellinger_discord"] == pytest.approx(
        math.tanh(0.7) ** 2, abs=1e-12
    )


# Reports of every family and standard-form input kind, among them a scaled
# form and an unphysical one (exit 2), noting after each whether numpy is
# loaded; then a matrix report, which does not load it.
NUMPY_FREE_REPORTS = """
import contextlib, io, json, sys
import ghk, ghk.cli

reports = [
    ["--sts", "nbar1=1", "nbar2=2", "r=0.7"],
    ["--mts", "kappa1=2.5", "kappa2=0.5", "theta=1.1"],
    ["--std-form", "1.7,1.1,0.6,-0.3"],
    ["--std-form", "1.7,1.1,0.6,-0.3,2.5,0.4"],
    ["--std-form", "1,1,0.9,-0.9"],
    ["--matrix", "1,0,0,0;0,1,0,0;0,0,1,0;0,0,0,1"],
]
steps = []
for argv in reports:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = ghk.cli.main(["report", *argv])
    steps.append([argv[0], code, "numpy" in sys.modules])
print(json.dumps(steps))
"""


def test_reports_of_forms_run_without_numpy():
    steps = json.loads(run_fresh(NUMPY_FREE_REPORTS))
    assert [code for _, code, _ in steps] == [0, 0, 0, 0, 2, 0]
    assert [loaded for _, _, loaded in steps] == [False] * 6


def test_the_benchmark_setup_process_loads_no_numpy(monkeypatch):
    # the fresh process whose wall time is the benchmark's setup_s
    spec = importlib.util.spec_from_file_location(
        "bench_measure", Path(__file__).resolve().parent.parent / "bench" / "measure.py"
    )
    measure = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, measure)  # for its dataclass
    spec.loader.exec_module(measure)
    code = f"{measure.SETUP_CODE}\nimport sys; print('numpy' in sys.modules)"
    assert run_fresh(code).split() == ["False"]


# One report of a nested list, the other two-mode functions of a nested
# list, and report --matrix of inline text and of the report document it
# printed, noting after each whether numpy is loaded.
NUMPY_FREE_MATRICES = """
import contextlib, io, json, os, sys, tempfile
import ghk; ghk.correlation_report(
    [[1, 0, 0.5, 0], [0, 1, 0, -0.5], [0.5, 0, 1, 0], [0, -0.5, 0, 1]])
steps = [["setup", "numpy" in sys.modules]]
matrix = [[1.5, 0.2, 0.6, 0.0], [0.2, 1.2, 0.1, -0.4], [0.6, 0.1, 1.3, 0.0], [0.0, -0.4, 0.0, 1.1]]
values = {}
for name in ("standard_form", "max_affinity", "hellinger_discord"):
    values[name] = repr(getattr(ghk, name)(matrix))
    steps.append([name, "numpy" in sys.modules])
import ghk.cli
text = ";".join(",".join(map(repr, row)) for row in matrix)
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = ghk.cli.main(["report", "--matrix", text])
steps.append(["report --matrix text", code, "numpy" in sys.modules])
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "report.json")
    with open(path, "w") as f:
        f.write(out.getvalue())
    with contextlib.redirect_stdout(io.StringIO()) as again:
        code = ghk.cli.main(["report", "--matrix", path])
steps.append(["report --matrix document", code, "numpy" in sys.modules])
print(json.dumps({"steps": steps, "values": values,
                  "documents": [out.getvalue(), again.getvalue()]}))
"""


def test_two_mode_matrices_run_without_numpy():
    result = json.loads(run_fresh(NUMPY_FREE_MATRICES))
    assert result["steps"] == [
        ["setup", False],
        ["standard_form", False],
        ["max_affinity", False],
        ["hellinger_discord", False],
        ["report --matrix text", 0, False],
        ["report --matrix document", 0, False],
    ]
    first, second = (json.loads(doc) for doc in result["documents"])
    assert first == second
    # the values are those of this process, where numpy is loaded
    matrix = np.array(first["input"]["matrix"])
    assert result["values"] == {
        name: repr(getattr(ghk, name)(matrix))
        for name in ("standard_form", "max_affinity", "hellinger_discord")
    }


AFFINITY_STEPS = {
    "submodule": "import ghk.affinity",
    "checks": "import ghk.checks",
    "oracle": "import ghk.oracle",
    "report": (
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    ghk.cli.main(['report', '--matrix', '1,0,0,0,0,1,0,0,0,0,1,0,0,0,0,1'])"
    ),
}


AFFINITY_ORDERS = list(itertools.permutations(AFFINITY_STEPS))


@functools.cache
def affinity_checks_by_order() -> dict:
    """For each import order of ``AFFINITY_STEPS``, whether ``ghk.affinity``
    is the function after each step. Every order runs in one fresh
    interpreter, which drops ``ghk`` and its submodules from ``sys.modules``
    before each order, so that each starts from an unimported package."""
    lines = ["import contextlib, io, json, sys, types", "checks = []"]
    for order in AFFINITY_ORDERS:
        lines += [
            "for name in [m for m in sys.modules if m.split('.')[0] == 'ghk']:",
            "    del sys.modules[name]",
            "import ghk, ghk.cli",
            "seen = []",
        ]
        for step in order:
            lines += [AFFINITY_STEPS[step], "seen.append(isinstance(ghk.affinity, types.FunctionType))"]
        lines.append("checks.append(seen)")
    lines.append("print(json.dumps(checks))")
    return dict(zip(AFFINITY_ORDERS, json.loads(run_fresh("\n".join(lines)))))


@pytest.mark.parametrize("order", AFFINITY_ORDERS)
def test_package_affinity_stays_the_function(order):
    # ghk.affinity is also a submodule, which the import system sets as the
    # package attribute of that name whenever it is imported
    assert affinity_checks_by_order()[order] == [True] * len(order), f"import order {order}"
