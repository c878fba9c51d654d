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
    active_profile,
    classical_correlations,
    closest_product_state,
    correlation_report,
    entanglement_of_formation_symmetric,
    entropic_discord,
    hellinger_discord,
    is_physical,
    max_affinity,
    mts_standard_form,
    mutual_information,
    random_standard_form,
    random_symplectic,
    simon_separable,
    standard_form,
    sts_standard_form,
    symplectic_eigenvalues,
)
from ghk.cli import _MEASURES, _sweep_row
from ghk.errors import GhkError
from ghk.tolerances import ENV_VAR, PROFILES


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
        physical, _ = _sweep_row(
            "sts", {"nbar1": 1.0, "nbar2": 1.0, "r": 0.7}, _MEASURES, 1e-9
        )
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
        matrices.append(in_frame(sf, local_frame(rng)))
    in_family = 0
    for cm in matrices:
        report = correlation_report(cm)
        sf = standard_form(cm)
        assert report.standard_form == sf
        # one report route: a matrix reports what its standard form reports
        assert correlation_report(sf) == report
        assert report.symplectic_spectrum == sf.spectrum()
        assert report.pt_spectrum == sf.partial_transpose().spectrum()
        # the single-measure functions take what the report takes
        assert max_affinity(sf) == max_affinity(cm)
        for state in (cm, sf):
            assert report.hellinger_discord == hellinger_discord(state)
            assert report.mutual_information == mutual_information(state)
            assert report.separable == simon_separable(state)
            if report.entropic_discord is None:
                with pytest.raises(OutOfFamilyError):
                    entropic_discord(state)
                with pytest.raises(OutOfFamilyError):
                    classical_correlations(state)
            else:
                assert report.entropic_discord == entropic_discord(state)
                assert report.classical_correlations == classical_correlations(state)
        if report.entropic_discord is None:
            continue
        in_family += 1
        if sf.d <= 0.0:
            assert report.eof == entanglement_of_formation_symmetric(
                0.5 * (sf.b1 + sf.b2), sf.c
            )
    assert in_family >= 4


# Every public function that decides whether a two-mode matrix is a state.
DECIDERS = [
    standard_form,
    max_affinity,
    hellinger_discord,
    mutual_information,
    simon_separable,
    correlation_report,
    closest_product_state,
]


class TestFramedDoubleRoot:
    """Symmetric squeezed thermal forms have kappa1 = kappa2: the double
    root of the spectrum's quadratic, where a rounded discriminant would
    split the two eigenvalues by the square root of its error."""

    # Up to r = 4 the float matrix of every frame is a state (its kappa2,
    # evaluated to 50 digits, is within phys_tol of 1/2) and must be
    # accepted. From r = 4.5 it lies within round-off of 1/2, and frames are
    # accepted or rejected; each function must take the one decision that
    # is_physical takes, which requires the J V spectrum to reach 1/2 too.
    @pytest.mark.parametrize("r", [0.3, 1.3, 3.0, 4.0, 4.5, 5.0, 6.0, 7.0, 9.7])
    def test_framed_pure_state_is_accepted_when_physical(self, r):
        sf = sts_standard_form(StsParams(0.0, 0.0, r))
        floor = 0.5 - active_profile().phys_tol
        rng = np.random.default_rng(13)
        for _ in range(60):
            cm = in_frame(sf, local_frame(rng))
            physical = is_physical(cm)
            assert physical or r > 4.0
            if physical:
                assert symplectic_eigenvalues(cm)[-1] >= floor
            for call in DECIDERS:
                try:
                    call(cm)
                    accepted = True
                except NotPhysicalError:
                    accepted = False
                assert accepted == physical, call.__name__

    def test_framed_thermal_spectrum(self):
        sf = sts_standard_form(StsParams(1.0, 1.0, 0.7))
        rng = np.random.default_rng(14)
        for _ in range(50):
            spectrum = correlation_report(in_frame(sf, local_frame(rng))).symplectic_spectrum
            for kappa in spectrum:
                assert kappa == pytest.approx(1.5, rel=1e-13, abs=0.0)


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


# The two-mode squeezed vacuum at r = 9.7 in a random local frame. Its
# reduced form has b1 b2 > c^2, but b1 + b2 - 2c, twice the gap b - c that
# the entanglement of formation divides by, rounds to 0: the floats break
# b1 + b2 > 2c, which the form of a positive-definite matrix keeps, and the
# reduction rejects it.
ZERO_GAP_STATE = [
    [42847270.22270572, -2977356.2788595976, 47089549.912544414, 5785223.64423796],
    [-2977356.2788595976, 103621703.87119381, 30575733.669980034,
     -90341807.19136986],
    [47089549.912544414, 30575733.669980034, 62830332.54702492, -23079463.84087229],
    [5785223.64423796, -90341807.19136986, -23079463.84087229, 79001716.94558592],
]


@pytest.mark.parametrize("call", DECIDERS)
def test_a_zero_gap_is_rejected_as_unphysical(call):
    assert not is_physical(ZERO_GAP_STATE)
    with pytest.raises(NotPhysicalError):
        call(ZERO_GAP_STATE)


@pytest.mark.parametrize("call", DECIDERS)
def test_a_rounded_matrix_below_half_is_rejected(call):
    # The pure squeezed vacuum at r = 9 as a float matrix: its kappa2,
    # evaluated to 50 digits, is 1/2 - 5.4e-3. The closed-form spectrum of
    # its reduced form rounds to 1/2; the J V spectrum does not, and every
    # function rejects it, as is_physical does.
    cm = sts_standard_form(StsParams(0.0, 0.0, 9.0)).to_cm()
    assert symplectic_eigenvalues(cm)[-1] < 0.5 - active_profile().phys_tol
    assert not is_physical(cm)
    with pytest.raises(NotPhysicalError):
        call(cm)


@pytest.fixture
def linalg_calls(monkeypatch):
    """Count the calls of np.linalg.cholesky and np.linalg.eigvals."""
    calls = {"cholesky": 0, "eigvals": 0}
    for name in calls:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


class TestHotPath:
    """A well-conditioned matrix is checked positive definite and physical
    in Python floats, with no call of numpy's linear algebra; a matrix
    whose physicality the floats cannot prove runs eigvals(J V) once."""

    CALLS = (correlation_report, closest_product_state, standard_form, is_physical)

    def test_matrix(self, linalg_calls):
        rng = np.random.default_rng(15)
        for _ in range(8):
            cm = in_frame(random_standard_form(rng), local_frame(rng))
            for call in self.CALLS:
                linalg_calls.update(cholesky=0, eigvals=0)
                call(cm)
                assert linalg_calls == {"cholesky": 0, "eigvals": 0}

    # a pure state, and a state 1e-10 above the bound, whose kappa2 the
    # certificate cannot bound within phys_tol of 1/2
    @pytest.mark.parametrize(
        "params", [StsParams(0.0, 0.0, 1.3), StsParams(1e-10, 1e-10, 0.7)]
    )
    def test_uncertified_matrix_runs_eigvals_once(self, linalg_calls, params):
        cm = in_frame(sts_standard_form(params), local_frame(np.random.default_rng(15)))
        for call in self.CALLS:
            linalg_calls.update(cholesky=0, eigvals=0)
            call(cm)
            assert linalg_calls == {"cholesky": 0, "eigvals": 1}

    def test_standard_form(self, linalg_calls):
        for sf in family_forms():
            correlation_report(sf)
        assert linalg_calls == {"cholesky": 0, "eigvals": 0}


def near_boundary_matrices() -> list[np.ndarray]:
    """Matrices at and around kappa2 = 1/2 where the float certificate and
    eigvals(J V) could part: framed pure and nearly pure squeezed states,
    random states with kappa2 within 1e-3 of 1/2 on both sides, squeezed
    thermal states up to r = 12, and ZERO_GAP_STATE."""
    rng = np.random.default_rng(16)
    out = [np.array(ZERO_GAP_STATE)]
    for r in (0.3, 1.3, 3.0, 4.5, 5.0, 6.0, 7.0, 9.7):
        sf = sts_standard_form(StsParams(0.0, 0.0, r))
        out += [in_frame(sf, local_frame(rng)).matrix for _ in range(6)]
    for nbar in np.logspace(-12.0, -4.0, 9).tolist():
        for r in (0.0, 0.5, 2.0):
            sf = sts_standard_form(StsParams(nbar, nbar, r))
            out.append(in_frame(sf, local_frame(rng)).matrix)
    for gap in np.logspace(-12.0, -3.0, 10).tolist():
        for kappa2 in (0.5 + gap, 0.5 - gap):
            kappa1 = kappa2 + rng.uniform(0.0, 3.0)
            s = random_symplectic(2, rng)
            m = s @ np.diag([kappa1, kappa1, kappa2, kappa2]) @ s.T
            out.append(0.5 * (m + m.T))
    for r in np.linspace(0.5, 12.0, 12).tolist():
        nbar1, nbar2 = rng.uniform(0.0, 3.0, 2).tolist()
        sf = sts_standard_form(StsParams(nbar1, nbar2, r))
        out += [sf.to_cm().matrix, in_frame(sf, local_frame(rng)).matrix]
    return out


class TestEigvalsCertificate:
    """The float certificate only skips eigvals(J V) where the J V check
    would accept: every decision, exception and output bit is the one of
    the J V check alone."""

    @staticmethod
    def outcomes(matrices) -> list:
        out = []
        for m in matrices:
            for call in (ghk.symplectic._reduce, is_physical, correlation_report):
                try:
                    out.append(repr(call(m)))
                except GhkError as exc:
                    out.append(type(exc))
        return out

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_same_outcome_as_the_eigvals_check_alone(self, monkeypatch, profile):
        monkeypatch.setenv(ENV_VAR, profile)
        matrices = near_boundary_matrices()
        certified = self.outcomes(matrices)
        monkeypatch.setattr(ghk.symplectic, "_eigvals_certified", lambda *_: False)
        assert self.outcomes(matrices) == certified

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_certifies_only_what_eigvals_accepts(self, monkeypatch, profile):
        monkeypatch.setenv(ENV_VAR, profile)
        original = ghk.symplectic._eigvals_certified
        seen = []

        def recording(entries, det_v, p, tol):
            seen.append((entries, tol, original(entries, det_v, p, tol)))
            return seen[-1][-1]

        monkeypatch.setattr(ghk.symplectic, "_eigvals_certified", recording)
        for m in near_boundary_matrices():
            try:
                standard_form(m)
            except GhkError:
                pass
        assert {ok for *_, ok in seen} == {True, False}
        for entries, tol, ok in seen:
            if ok:
                matrix = np.array(entries).reshape(4, 4)
                assert ghk.symplectic._jv_spectrum(matrix)[-1] >= 0.5 - tol
