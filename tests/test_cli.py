"""Command-line interface: report, sweep, verify."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ghk
from ghk import random_physical_cm
from ghk.cli import main


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

    def test_full_precision_inline_matrix(self, capsys):
        # repr-precision entries make the text longer than a file name may be
        cm = random_physical_cm(2, np.random.default_rng(3))
        matrix = ",".join(repr(x) for x in cm.matrix.ravel().tolist())
        assert len(matrix) > 255
        code, out, _ = run_cli(capsys, "report", "--matrix", matrix)
        assert code == 0
        assert json.loads(out)["input"]["matrix"] == cm.matrix.tolist()

    def test_matrix_file(self, capsys, tmp_path):
        path = tmp_path / "cm.txt"
        path.write_text("1.5 0 0 0\n0 1.5 0 0\n0 0 0.7 0\n0 0 0 0.7\n")
        code, out, _ = run_cli(capsys, "report", "--matrix", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["hellinger_discord"] == 0.0

    def test_round_trip(self, capsys, tmp_path):
        code, first, _ = run_cli(
            capsys, "report", "--sts", "nbar1=0.5", "nbar2=2", "r=0.8"
        )
        assert code == 0
        path = tmp_path / "report.json"
        path.write_text(first)
        code, second, _ = run_cli(capsys, "report", "--matrix", str(path))
        assert code == 0
        first_doc = json.loads(first)
        second_doc = json.loads(second)
        assert second_doc["report"] == first_doc["report"]
        assert second_doc["standard_form"] == first_doc["standard_form"]
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
        # reducing the matrices of this grid raises ConsistencyError at
        # r = 9.7 and 10.95, which would end the sweep; rows beyond r ~ 5
        # lose accuracy to cancellation and are not checked here
        code, out, _ = run_cli(
            capsys, "sweep", "--sts", "nbar1=0", "nbar2=0",
            "--sweep-param", "r", "--range", "0.05:12:240",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 241
        header = lines[0].split(",")
        r_col = header.index("r")
        phys_col = header.index("physical")
        hd_col = header.index("hellinger_discord")
        checked = 0
        for row in lines[1:]:
            cells = row.split(",")
            r = float(cells[r_col])
            if r <= 3.0:
                assert cells[phys_col] == "true"
                assert abs(float(cells[hd_col]) - math.tanh(r) ** 2) <= 1e-10
                checked += 1
        assert checked == 60

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


def test_import_loads_no_scipy():
    src = str(Path(ghk.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys, ghk, ghk.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"
