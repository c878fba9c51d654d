"""The verification checks see a broken closed form, and stay apart from it.

Each check is run on a closed form shifted by a small amount and must
report a deviation above its tolerance together with the offending input,
so a check that silently reports 0 cannot pass for one that found nothing.
"""

import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

import ghk
from ghk import checks

FORMS = [ghk.random_standard_form(np.random.default_rng(5)) for _ in range(3)]

SHIFT = 1e-3


def shifted(fn, by=SHIFT):
    """``fn`` with ``by`` added to its value (to ``.value`` for an overlap)."""

    def wrapper(*args):
        out = fn(*args)
        if isinstance(out, ghk.OverlapResult):
            return dataclasses.replace(out, value=out.value + by)
        return out + by

    return wrapper


def assert_breach(record):
    assert record.worst > record.tol, record
    assert record.detail, record


@pytest.mark.parametrize("by, breached", [(SHIFT, 0), (-SHIFT, 1)])
def test_closed_form_vs_oracle(monkeypatch, by, breached):
    monkeypatch.setattr(checks, "max_affinity", shifted(checks.max_affinity, by))
    records = checks.closed_form_vs_oracle(FORMS[:1], np.random.default_rng(1))
    assert_breach(records[breached])
    assert records[1 - breached].worst == 0.0


def test_route_equivalence(monkeypatch):
    monkeypatch.setattr(checks, "max_affinity", shifted(checks.max_affinity))
    assert_breach(checks.route_equivalence(FORMS))


def test_square_root_routes(monkeypatch):
    closed_form = checks.square_root_standard_form

    def stretched(sf):
        tsf = closed_form(sf)
        return dataclasses.replace(tsf, b1=tsf.b1 * (1.0 + SHIFT))

    monkeypatch.setattr(checks, "square_root_standard_form", stretched)
    assert_breach(checks.square_root_routes(FORMS))


def test_stationarity(monkeypatch):
    closed_form = checks._optimum

    def moved(tsf):
        eta1, eta2, e2r1, e2r2 = closed_form(tsf)
        return eta1 * (1.0 + SHIFT), eta2, e2r1, e2r2

    monkeypatch.setattr(checks, "_optimum", moved)
    assert_breach(checks.stationarity(FORMS))


@pytest.mark.parametrize(
    "name", ["trace_of_sqrt", "affinity", "gaussian_overlap_trace"]
)
def test_photon_number(monkeypatch, name):
    monkeypatch.setattr(checks, name, shifted(getattr(checks, name)))
    assert_breach(checks.photon_number())


@pytest.mark.parametrize("by", [SHIFT, -SHIFT])
def test_trace_distance_sandwich(monkeypatch, by):
    # +SHIFT breaks the upper bound on some pair, -SHIFT the lower bound
    name = "fock_trace_distance_diagonal"
    monkeypatch.setattr(checks, name, shifted(getattr(checks, name), by))
    assert_breach(checks.trace_distance_sandwich())


def test_affinity_invariance(monkeypatch):
    closed_form = checks.affinity

    def lopsided(s1, s2):
        out = closed_form(s1, s2)
        return dataclasses.replace(out, value=out.value + SHIFT * s1.mean[0])

    monkeypatch.setattr(checks, "affinity", lopsided)
    assert_breach(checks.affinity_invariance(np.random.default_rng(2), 3))


def assert_nan_fails(record):
    assert not record.worst <= record.tol, record
    assert record.detail, record


def test_nan_deviation_fails(monkeypatch):
    monkeypatch.setattr(checks, "max_affinity", lambda cov: math.nan)
    assert_nan_fails(checks.route_equivalence(FORMS))


@pytest.mark.parametrize(
    "name", ["fock_affinity_diagonal", "fock_trace_distance_diagonal"]
)
def test_nan_in_the_sandwich_fails(monkeypatch, name):
    monkeypatch.setattr(checks, name, lambda nb1, nb2: math.nan)
    assert_nan_fails(checks.trace_distance_sandwich())


SRC = Path(ghk.__file__).resolve().parent


def package_imports(path):
    """(module, name) for each import from the package in one source file.

    ``module`` is relative to the package; ``from . import x`` and
    ``import ghk.x`` give (x, None).
    """
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                base = node.module
            elif node.level == 0 and (node.module or "").split(".")[0] == "ghk":
                base = node.module.partition(".")[2] or None
            else:
                continue
            for alias in node.names:
                if base is None:
                    yield alias.name, None
                else:
                    yield base.split(".")[0], alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("ghk."):
                    yield alias.name.split(".")[1], None


class TestLayering:
    def test_only_checks_and_init_import_the_oracle(self):
        importers = {
            path.name
            for path in SRC.glob("*.py")
            if any(module == "oracle" for module, _ in package_imports(path))
        }
        assert importers == {"checks.py", "__init__.py"}

    def test_oracle_takes_only_product_state_params_from_discord(self):
        from_discord = [
            name
            for module, name in package_imports(SRC / "oracle.py")
            if module == "discord"
        ]
        assert from_discord == ["ProductStateParams"]
