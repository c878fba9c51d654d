"""Tolerance profiles and the GHK_TOLERANCE_PROFILE selector."""

import os
from types import SimpleNamespace

import numpy as np
import pytest

import ghk.tolerances
from ghk import (
    CovarianceMatrix,
    InvalidParamsError,
    NonSymmetricError,
    NotPhysicalError,
    StsParams,
    active_profile,
    closest_product_state,
    correlation_report,
    hellinger_discord,
    max_affinity,
    random_standard_form,
    reduce_to_standard_form,
    standard_form,
    sts_standard_form,
)
from ghk.sampling import random_local_frame
from ghk.tolerances import ENV_VAR, PROFILES


class TestProfiles:
    def test_default_values(self):
        profile = PROFILES["default"]
        assert profile.sym_atol == 1e-10
        assert profile.phys_tol == 1e-9

    def test_default_is_active_without_env(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert active_profile().name == "default"

    def test_env_selects_strict(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "strict")
        assert active_profile().name == "strict"
        assert active_profile().sym_atol == 1e-12

    def test_unknown_profile_rejected(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "bogus")
        with pytest.raises(InvalidParamsError):
            active_profile()

    def test_strict_rejects_borderline_asymmetry(self, monkeypatch):
        m = 0.5 * np.eye(2)
        m[0, 1] = 5e-11  # inside the default window, outside the strict one
        monkeypatch.delenv(ENV_VAR, raising=False)
        CovarianceMatrix(m)
        monkeypatch.setenv(ENV_VAR, "strict")
        with pytest.raises(NonSymmetricError):
            CovarianceMatrix(m)


class TestCliRespectsProfile:
    def test_unknown_profile_is_an_input_error(self, monkeypatch, capsys):
        from ghk.cli import main

        monkeypatch.setenv(ENV_VAR, "bogus")
        code = main(["report", "--std-form", "1.5,0.7,0,0"])
        assert code == 2

    def test_profile_echoed_in_report(self, monkeypatch, capsys):
        import json

        from ghk.cli import main

        monkeypatch.setenv(ENV_VAR, "strict")
        assert main(["report", "--std-form", "1.5,0.7,0,0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tolerance_profile"] == "strict"


class CountingEnviron:
    """``os.environ`` stand-in that counts its ``get`` calls."""

    def __init__(self):
        self.reads = 0

    def get(self, key, default=None):
        self.reads += 1
        return os.environ.get(key, default)


class TestProfileReads:
    @pytest.fixture
    def environ(self, monkeypatch):
        environ = CountingEnviron()
        monkeypatch.setattr(ghk.tolerances, "os", SimpleNamespace(environ=environ))
        return environ

    @staticmethod
    def matrices():
        rng = np.random.default_rng(31)
        frame = random_local_frame(rng)
        framed = frame @ random_standard_form(rng).to_cm().matrix @ frame.T
        in_family = sts_standard_form(StsParams(1.0, 1.0, 0.7)).to_cm().matrix
        return [0.5 * (framed + framed.T), in_family.copy()]

    def test_one_read_per_call_plus_one_per_reduction(self, environ):
        # each call reads the profile once and hands it to its reduction; a
        # report also takes the phys_tol of its measures from that one read
        reads = {
            standard_form: 1,
            reduce_to_standard_form: 1,
            correlation_report: 1,
            closest_product_state: 1,
            max_affinity: 1,
            hellinger_discord: 1,
        }
        for matrix in self.matrices():
            for call, expected in reads.items():
                environ.reads = 0
                call(matrix)
                assert environ.reads == expected, call.__name__
        sf = sts_standard_form(StsParams(1.0, 1.0, 0.7))
        environ.reads = 0
        correlation_report(sf)
        assert environ.reads == 1

    def test_change_between_calls_takes_effect(self, monkeypatch):
        # minimal symplectic eigenvalue 1/2 - 1e-10: inside the default
        # phys_tol of 1e-9, outside the strict one of 1e-12
        matrix = np.diag([1.5, 1.5, 0.5 - 1e-10, 0.5 - 1e-10])
        monkeypatch.delenv(ENV_VAR, raising=False)
        correlation_report(matrix)
        closest_product_state(matrix)
        monkeypatch.setenv(ENV_VAR, "strict")
        with pytest.raises(NotPhysicalError):
            correlation_report(matrix)
        with pytest.raises(NotPhysicalError):
            closest_product_state(matrix)
