"""correlation_report: one standard-form reduction, the same numbers as the
public functions, and StandardForm input."""

import math

import numpy as np
import pytest

import ghk.forms
import ghk.symplectic
from ghk import (
    CovarianceMatrix,
    MtsParams,
    NotPhysicalError,
    OutOfFamilyError,
    StandardForm,
    StsParams,
    classical_correlations,
    closest_product_state,
    correlation_report,
    entanglement_of_formation_symmetric,
    entropic_discord,
    hellinger_discord,
    mts_standard_form,
    mutual_information,
    random_standard_form,
    random_symplectic,
    simon_separable,
    standard_form,
    sts_standard_form,
)
from ghk.cli import _MEASURES, _sweep_row


def local_frame(rng) -> np.ndarray:
    """Random local symplectic S1 (+) S2."""
    s = np.zeros((4, 4))
    s[:2, :2] = random_symplectic(1, rng)
    s[2:, 2:] = random_symplectic(1, rng)
    return s


def in_frame(sf: StandardForm, s: np.ndarray) -> CovarianceMatrix:
    m = s @ sf.to_cm().matrix @ s.T
    return CovarianceMatrix(0.5 * (m + m.T))


def family_forms() -> list[StandardForm]:
    forms = []
    for nbar1, nbar2, r in ((1.0, 1.0, 0.7), (0.0, 0.0, 1.3), (0.4, 2.5, 0.9)):
        forms.append(sts_standard_form(StsParams(nbar1, nbar2, r)))
    for kappa1, kappa2, theta in ((2.5, 0.5, math.pi / 2), (3.0, 1.2, 0.8)):
        forms.append(mts_standard_form(MtsParams(kappa1, kappa2, theta)))
    return forms


@pytest.fixture
def reductions(monkeypatch):
    """Count calls of the float reduction core of standard_form and
    reduce_to_standard_form."""
    calls = []
    original = ghk.symplectic._reduce

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(ghk.symplectic, "_reduce", counted)
    return calls


class TestOneReduction:
    def test_report_of_a_matrix(self, reductions):
        rng = np.random.default_rng(11)
        in_family = sts_standard_form(StsParams(1.0, 1.0, 0.7))
        out_of_family = sts_standard_form(StsParams(0.4, 2.5, 0.9))
        matrices = [
            in_frame(random_standard_form(rng), local_frame(rng)),
            in_frame(in_family, local_frame(rng)),
            in_family.to_cm(),
            out_of_family.to_cm(),
        ]
        for cm in matrices:
            reductions.clear()
            correlation_report(cm)
            assert len(reductions) == 1

    def test_closest_product_state(self, reductions):
        closest_product_state(random_standard_form(np.random.default_rng(12)).to_cm())
        assert len(reductions) == 1

    def test_report_of_a_standard_form(self, reductions):
        for sf in family_forms():
            correlation_report(sf)
        assert reductions == []

    def test_sweep_row(self, reductions):
        physical, _ = _sweep_row("sts", {"nbar1": 1.0, "nbar2": 1.0, "r": 0.7}, _MEASURES)
        assert physical
        assert reductions == []


def test_report_evaluates_each_spectrum_once(monkeypatch):
    # the spectrum and the partial-transpose spectrum; the entanglement of
    # formation of a physical report needs no third evaluation
    calls = []
    original = ghk.forms._form_spectrum

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(ghk.forms, "_form_spectrum", counted)
    sf = sts_standard_form(StsParams(1.0, 1.0, 0.7))
    for state in (sf, sf.to_cm()):
        calls.clear()
        assert correlation_report(state).eof is not None
        assert len(calls) == 2


def test_report_fields_equal_the_public_functions():
    rng = np.random.default_rng(13)
    matrices = [in_frame(random_standard_form(rng), local_frame(rng)) for _ in range(200)]
    for sf in family_forms():
        matrices.append(sf.to_cm())
        # a pure state in a random frame can be rejected as unphysical by
        # every route that reduces it (its reduced spectrum falls short of
        # 1/2 by more than phys_tol), so only mixed states are framed here
        if sf.spectrum()[1] > 0.5 + 1e-6:
            matrices.append(in_frame(sf, local_frame(rng)))
    in_family = 0
    for cm in matrices:
        report = correlation_report(cm)
        sf = standard_form(cm)
        assert report.standard_form == sf
        # one report route: a matrix reports what its standard form reports
        assert correlation_report(sf) == report
        assert report.hellinger_discord == hellinger_discord(cm)
        assert report.mutual_information == mutual_information(cm)
        assert report.separable == simon_separable(cm)
        assert report.symplectic_spectrum == sf.spectrum()
        assert report.pt_spectrum == sf.partial_transpose().spectrum()
        if report.entropic_discord is None:
            with pytest.raises(OutOfFamilyError):
                entropic_discord(cm)
            with pytest.raises(OutOfFamilyError):
                classical_correlations(cm)
            continue
        in_family += 1
        assert report.entropic_discord == entropic_discord(cm)
        assert report.classical_correlations == classical_correlations(cm)
        if sf.d <= 0.0:
            assert report.eof == entanglement_of_formation_symmetric(
                0.5 * (sf.b1 + sf.b2), sf.c
            )
    assert in_family >= 4


class TestStandardFormInput:
    @pytest.mark.parametrize(
        "sf",
        [
            StandardForm(1.7, 1.1, 0.6, -0.3, 2.5, 0.4),
            StandardForm(2.0, 2.0, 1.2, 1.2, 0.3, 3.0),
            StandardForm(1.6, 1.6, 1.4, -1.4, 1.8, 1.8),
        ],
    )
    def test_matches_the_matrix_route(self, sf):
        via_form = correlation_report(sf)
        via_matrix = correlation_report(sf.to_cm())
        assert (via_form.standard_form.s1, via_form.standard_form.s2) == (1.0, 1.0)
        for name in ("b1", "b2", "c", "d"):
            assert getattr(via_form.standard_form, name) == pytest.approx(
                getattr(via_matrix.standard_form, name), abs=1e-12
            )
        for name in (
            "hellinger_discord",
            "mutual_information",
            "entropic_discord",
            "classical_correlations",
            "eof",
        ):
            a, b = getattr(via_form, name), getattr(via_matrix, name)
            assert (a is None) == (b is None)
            if a is not None:
                assert a == pytest.approx(b, abs=1e-12)
        np.testing.assert_allclose(
            via_form.symplectic_spectrum, via_matrix.symplectic_spectrum, atol=1e-12
        )
        np.testing.assert_allclose(via_form.pt_spectrum, via_matrix.pt_spectrum, atol=1e-12)
        assert via_form.separable == via_matrix.separable

    @pytest.mark.parametrize(
        "sf",
        [
            StandardForm(1.0, 1.0, 0.9, -0.9),  # below the uncertainty bound
            StandardForm(1.0, 1.0, 2.0, 2.0),  # no positive-definite matrix
        ],
    )
    def test_unphysical_raises(self, sf):
        with pytest.raises(NotPhysicalError):
            correlation_report(sf)
        with pytest.raises(NotPhysicalError):
            correlation_report(sf.to_cm())
