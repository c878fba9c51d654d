"""correlation_report: one standard-form reduction, the same numbers as the
public functions, and StandardForm input."""

import itertools
import math
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

import mpmath
import numpy as np
import pytest

import ghk.forms
import ghk.symplectic
from ghk import (
    ConsistencyError,
    CovarianceMatrix,
    MtsParams,
    NotPhysicalError,
    NotPositiveDefiniteError,
    OutOfFamilyError,
    StandardForm,
    StsParams,
    active_profile,
    affinity,
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
    oracle_max_affinity,
    random_physical_cm,
    random_standard_form,
    random_symplectic,
    simon_separable,
    square_root_cm,
    standard_form,
    sts_standard_form,
    symplectic_eigenvalues,
)
from ghk.cli import _MEASURES, _sweep_row
from ghk.errors import GhkError
from ghk.sampling import random_local_frame
from ghk.states import GaussianState
from ghk.tolerances import ENV_VAR, PROFILES


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
            in_frame(random_standard_form(rng), random_local_frame(rng)),
            in_frame(in_family, random_local_frame(rng)),
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
    # the spectrum and the partial-transpose spectrum of a record filled
    # from floats; the entanglement of formation of a physical report needs
    # no third evaluation, a family form carries its spectrum, and a matrix
    # off the float certificate carries both from its integers
    calls = []
    original = ghk.forms._form_spectrum

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(ghk.forms, "_form_spectrum", counted)
    sf = sts_standard_form(StsParams(1.0, 1.0, 0.7))
    framed = in_frame(sts_standard_form(StsParams(0.0, 0.0, 1.3)), random_local_frame(
        np.random.default_rng(15)
    ))
    for state, evaluations in ((sf, 1), (sf.to_cm(), 2), (framed, 0)):
        calls.clear()
        assert correlation_report(state).eof is not None
        assert len(calls) == evaluations


def test_report_fields_equal_the_public_functions():
    rng = np.random.default_rng(13)
    matrices = [in_frame(random_standard_form(rng), random_local_frame(rng)) for _ in range(200)]
    for sf in family_forms():
        matrices.append(sf.to_cm())
        matrices.append(in_frame(sf, random_local_frame(rng)))
    in_family = same_invariants = 0
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
            eof = entanglement_of_formation_symmetric(0.5 * (sf.b1 + sf.b2), sf.c)
            symmetric = StandardForm(sf.b1, sf.b1, sf.c, sf.d)
            if sf.b2 == sf.b1 and sf.d == -sf.c and (
                ghk.forms._form_record(sf)[:4] == ghk.forms._form_record(symmetric)[:4]
            ):
                assert report.eof == eof
                same_invariants += 1
            else:
                # the report reads the gap b - c from the record of the
                # matrix (its integers where the float certificate fails);
                # the function sees only the floats b and c
                # (TestFieldAccuracy checks the report against 80 digits)
                assert report.eof == pytest.approx(eof, rel=1e-12, abs=0.0)
    assert in_family >= 4 and same_invariants >= 1


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


def leibniz_det(rows) -> mpmath.mpf:
    """The determinant of a square matrix of floats by the Leibniz sum, in
    mpmath: each term is exact at 80 digits, whatever the entries' scale,
    where mpmath's LU factorisation takes a pivot below its tolerance for
    zero."""
    n = len(rows)
    total = mpmath.mpf(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = mpmath.mpf(-1) ** inversions
        for i, j in enumerate(perm):
            term *= mpmath.mpf(float(rows[i][j]))
        total += term
    return total


def reference_fields(matrix) -> dict | None:
    """The exact quantities of the float two-mode ``matrix``, from its
    Leibniz determinants A, B, C, D in 80-digit mpmath, or None where
    mpmath's eigsy finds it not positive definite. Independent of the
    integer decision and the closed forms of ghk.

    "spectrum" and "pt_spectrum" are the roots of x^2 - Delta x + D with
    Delta = A + B + 2C and A + B - 2C; "b" is (sqrt A, sqrt B); "gaps" are
    gc = b1 b2 - c^2 <= gd = b1 b2 - d^2 from gc gd = D and gc + gd =
    (AB - C^2 + D)/(b1 b2); "hellinger_discord" is 1 - A* on the
    square-root form of (b1, b2, c, d), with the report's pure-mode limit
    (a mode within phys_tol of 1/2 has kappa_tilde = kappa), or None below
    1/2 - phys_tol.
    """
    m = np.asarray(matrix, dtype=float)
    tol = active_profile().phys_tol
    with mpmath.workdps(80):
        if min(mpmath.eigsy(mpmath.matrix(m.tolist()), eigvals_only=True)) <= 0:
            return None
        a, b = leibniz_det(m[:2, :2]), leibniz_det(m[2:, 2:])
        c, d = leibniz_det(m[:2, 2:]), leibniz_det(m)

        def root(x):
            return mpmath.sqrt(max(x, 0))

        def spectrum(delta):
            k1 = mpmath.sqrt((delta + root(delta * delta - 4 * d)) / 2)
            return k1, mpmath.sqrt(d) / k1

        b1, b2 = mpmath.sqrt(a), mpmath.sqrt(b)
        fields = {
            "spectrum": spectrum(a + b + 2 * c),
            "pt_spectrum": spectrum(a + b - 2 * c),
            "b": (b1, b2),
        }
        beta, total = b1 * b2, (a * b - c * c + d) / (b1 * b2)
        gc = (total - root(total * total - 4 * d)) / 2
        gd = d / gc
        fields["gaps"] = (gc, gd)
        fields["hellinger_discord"] = None
        k1, k2 = fields["spectrum"]
        if k2 < 0.5 - tol:
            return fields
        # the form (b1, b2, c, d), c >= |d|, sign(d) = sign(det C), and its root
        cc, dd = root(beta - gc), mpmath.sign(c) * root(beta - gd)
        rad1, rad2 = (root(k * k - 0.25) if k - 0.5 >= tol else 0 for k in (k1, k2))
        if rad1 or rad2:
            big_k = k1 * rad2 + k2 * rad1
            big_l = 4 * k1 * k2 * (k1 + rad1) * (k2 + rad2)
            pref = 4 * k1 * k2 * big_k
            x1, x2 = (b1 * big_l - b2 * gc) / pref, (b2 * big_l - b1 * gc) / pref
            y1, y2 = (b1 * big_l - b2 * gd) / pref, (b2 * big_l - b1 * gd) / pref
            zc, zd = (cc * big_l + dd * gc) / pref, (dd * big_l + cc * gd) / pref
            b1, b2 = mpmath.sqrt(x1 * y1), mpmath.sqrt(x2 * y2)
            cc = zc * mpmath.root(y1 * y2 / (x1 * x2), 4)
            dd = zd * mpmath.root(x1 * x2 / (y1 * y2), 4)
        s = mpmath.sqrt(b1 * b2)
        rc, rd = root(b1 * b2 - cc * cc), root(b1 * b2 - dd * dd)
        fields["hellinger_discord"] = 1 - mpmath.sqrt(4 * rc * rd / ((s + rc) * (s + rd)))
        return fields


def reference_kappa2(matrix):
    """kappa2 of the float ``matrix`` (``reference_fields``), or None where
    it is not positive definite."""
    fields = reference_fields(matrix)
    return None if fields is None else fields["spectrum"][1]


class TestFramedDoubleRoot:
    """Symmetric squeezed thermal forms have kappa1 = kappa2: the double
    root of the spectrum's quadratic, where a rounded discriminant would
    split the two eigenvalues by the square root of its error."""

    # Up to r = 4 the float matrix of every frame is a state (its kappa2,
    # evaluated to 80 digits, is within phys_tol of 1/2) and must be
    # accepted. From r = 4.5 it lies within round-off of 1/2, and frames are
    # accepted or rejected; each function must take the one decision that
    # is_physical takes, and accept only a matrix whose own kappa2 reaches
    # the floor.
    @pytest.mark.parametrize("r", [0.3, 1.3, 3.0, 4.0, 4.5, 5.0, 6.0, 7.0, 9.7])
    def test_framed_pure_state_is_accepted_when_physical(self, r):
        sf = sts_standard_form(StsParams(0.0, 0.0, r))
        floor = 0.5 - active_profile().phys_tol
        rng = np.random.default_rng(13)
        decisions = set()
        for _ in range(60):
            cm = in_frame(sf, random_local_frame(rng))
            physical = is_physical(cm)
            decisions.add(physical)
            if physical:
                assert reference_kappa2(cm.matrix) >= floor
            for call in DECIDERS:
                try:
                    call(cm)
                    accepted = True
                except NotPhysicalError:
                    accepted = False
                assert accepted == physical, call.__name__
        # past r = 4 the frames take both decisions, so neither goes untested
        assert decisions == ({True} if r <= 4.0 else {True, False})

    def test_framed_thermal_spectrum(self):
        sf = sts_standard_form(StsParams(1.0, 1.0, 0.7))
        rng = np.random.default_rng(14)
        for _ in range(50):
            cm = in_frame(sf, random_local_frame(rng))
            for kappa in correlation_report(cm).symplectic_spectrum:
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
            # |d| - c = 5e-13 passes the check c >= |d| - 1e-12 |d|, and
            # sqrt(b1 b2) - |d| = 0: no gap may be divided by
            StandardForm(1.0, 1.0, 1.0 - 5e-13, -1.0),
        ],
    )
    def test_unphysical_raises(self, sf):
        with pytest.raises(NotPhysicalError):
            correlation_report(sf)
        with pytest.raises(NotPhysicalError):
            correlation_report(sf.to_cm())

    def test_the_product_test_comes_before_the_root(self):
        # the root of this product overflows, and its A* needs no root
        sf = StandardForm(0.5, 1.7e308, 0.0, 0.0)
        assert max_affinity(sf) == 1.0
        assert correlation_report(sf).hellinger_discord == 0.0


# The two-mode squeezed vacuum at r = 9.7 in a random local frame. Its
# reduced form has b1 b2 > c^2, but b1 + b2 - 2c, twice the gap b - c that
# the entanglement of formation divides by, rounds to 0: the floats break
# b1 + b2 > 2c, which the form of a positive-definite matrix keeps. The exact
# decision on the matrix accepts it (its kappa2 is 0.6997), and the report
# reads the gap from the record of its exact invariants.
ZERO_GAP_STATE = [
    [42847270.22270572, -2977356.2788595976, 47089549.912544414, 5785223.64423796],
    [-2977356.2788595976, 103621703.87119381, 30575733.669980034,
     -90341807.19136986],
    [47089549.912544414, 30575733.669980034, 62830332.54702492, -23079463.84087229],
    [5785223.64423796, -90341807.19136986, -23079463.84087229, 79001716.94558592],
]


@pytest.mark.parametrize("call", DECIDERS)
def test_a_zero_gap_is_rejected_as_unphysical(call):
    # the closed-form gate on the reduced form used to reject it; the one
    # decision on the matrix accepts it, and so does every function
    assert is_physical(ZERO_GAP_STATE)
    call(ZERO_GAP_STATE)
    kappa2 = correlation_report(ZERO_GAP_STATE).symplectic_spectrum[1]
    assert kappa2 == pytest.approx(float(reference_kappa2(ZERO_GAP_STATE)), rel=1e-9)


@pytest.mark.parametrize("call", DECIDERS)
def test_a_rounded_matrix_below_half_is_rejected(call):
    # The pure squeezed vacuum at r = 9 as a float matrix: its kappa2,
    # evaluated to 80 digits, is 1/2 - 5.4e-3. The closed-form spectrum of
    # its reduced form rounds to 1/2; the exact decision on the matrix
    # rejects it, and every function rejects it, as is_physical does.
    cm = sts_standard_form(StsParams(0.0, 0.0, 9.0)).to_cm()
    assert reference_kappa2(cm.matrix) < 0.5 - active_profile().phys_tol
    assert not is_physical(cm)
    with pytest.raises(NotPhysicalError):
        call(cm)


NO_CALLS = {"cholesky": 0, "eigvals": 0, "eigh": 0}


@pytest.fixture
def linalg_calls(monkeypatch):
    """Count the calls of np.linalg.cholesky, np.linalg.eigvals and
    np.linalg.eigh."""
    calls = dict(NO_CALLS)
    for name in calls:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


class TestHotPath:
    """A two-mode matrix is decided positive definite and physical in
    Python, with no call of numpy's linear algebra: by the float
    certificate where it proves acceptance, else exactly, on integers."""

    CALLS = (correlation_report, closest_product_state, standard_form, is_physical)

    def test_matrix(self, linalg_calls):
        rng = np.random.default_rng(15)
        for _ in range(8):
            cm = in_frame(random_standard_form(rng), random_local_frame(rng))
            for call in self.CALLS:
                linalg_calls.update(NO_CALLS)
                call(cm)
                assert linalg_calls == NO_CALLS

    # a pure state, and a state 1e-10 above the bound, whose kappa2 the
    # certificate cannot bound within phys_tol of 1/2
    @pytest.mark.parametrize(
        "params", [StsParams(0.0, 0.0, 1.3), StsParams(1e-10, 1e-10, 0.7)]
    )
    def test_uncertified_matrix_is_decided_exactly(self, linalg_calls, monkeypatch, params):
        cm = in_frame(sts_standard_form(params), random_local_frame(np.random.default_rng(15)))
        exact = []
        original = ghk.symplectic._exactly_physical

        def counted(*args):
            exact.append(1)
            return original(*args)

        monkeypatch.setattr(ghk.symplectic, "_exactly_physical", counted)
        for call in self.CALLS:
            linalg_calls.update(NO_CALLS)
            exact.clear()
            call(cm)
            assert linalg_calls == NO_CALLS
            assert len(exact) == 1

    def test_standard_form(self, linalg_calls):
        for sf in family_forms():
            correlation_report(sf)
        assert linalg_calls == NO_CALLS

    def test_no_linear_algebra_near_the_boundary(self, linalg_calls):
        matrices = near_boundary_matrices() + framed_tmsv_grid() + framed_sts_9_25()
        linalg_calls.update(NO_CALLS)
        for m in matrices:
            for call in (is_physical, correlation_report):
                try:
                    call(m)
                except GhkError:
                    pass
        assert linalg_calls == NO_CALLS

    def test_symplectic_eigenvalues(self, linalg_calls):
        # a two-mode spectrum is read from the exact invariants; any other
        # mode count from Williamson's
        for pool in POOLS.values():
            for m in pool():
                try:
                    symplectic_eigenvalues(m)
                except NotPositiveDefiniteError:
                    pass
        assert linalg_calls == NO_CALLS
        symplectic_eigenvalues(np.eye(6))
        assert linalg_calls == {"cholesky": 1, "eigvals": 0, "eigh": 1}

    def test_square_root_cm(self, linalg_calls):
        # a two-mode root is built on the exact invariants; any other mode
        # count on Williamson's decomposition
        rng = np.random.default_rng(15)
        for _ in range(8):
            square_root_cm(in_frame(random_standard_form(rng), random_local_frame(rng)))
        assert linalg_calls == NO_CALLS
        square_root_cm(np.eye(6))
        assert linalg_calls == {"cholesky": 1, "eigvals": 0, "eigh": 1}


def near_boundary_matrices() -> list[np.ndarray]:
    """Matrices at and around kappa2 = 1/2 where the float certificate and
    the exact decision could part: framed pure and nearly pure squeezed
    states, random states with kappa2 within 1e-3 of 1/2 on both sides,
    squeezed thermal states up to r = 12, and ZERO_GAP_STATE."""
    rng = np.random.default_rng(16)
    out = [np.array(ZERO_GAP_STATE)]
    for r in (0.3, 1.3, 3.0, 4.5, 5.0, 6.0, 7.0, 9.7):
        sf = sts_standard_form(StsParams(0.0, 0.0, r))
        out += [in_frame(sf, random_local_frame(rng)).matrix for _ in range(6)]
    for nbar in np.logspace(-12.0, -4.0, 9).tolist():
        for r in (0.0, 0.5, 2.0):
            sf = sts_standard_form(StsParams(nbar, nbar, r))
            out.append(in_frame(sf, random_local_frame(rng)).matrix)
    for gap in np.logspace(-12.0, -3.0, 10).tolist():
        for kappa2 in (0.5 + gap, 0.5 - gap):
            kappa1 = kappa2 + rng.uniform(0.0, 3.0)
            s = random_symplectic(2, rng)
            m = s @ np.diag([kappa1, kappa1, kappa2, kappa2]) @ s.T
            out.append(0.5 * (m + m.T))
    for r in np.linspace(0.5, 12.0, 12).tolist():
        nbar1, nbar2 = rng.uniform(0.0, 3.0, 2).tolist()
        sf = sts_standard_form(StsParams(nbar1, nbar2, r))
        out += [sf.to_cm().matrix, in_frame(sf, random_local_frame(rng)).matrix]
    return out


def framed_tmsv_grid() -> list[np.ndarray]:
    """The pure two-mode squeezed vacuum from r = 4, 100 frames per squeeze."""
    out = []
    for r in (4.0, 4.5, 5.0, 6.0, 7.0, 9.7):
        sf = sts_standard_form(StsParams(0.0, 0.0, r))
        rng = np.random.default_rng(13)
        out += [in_frame(sf, random_local_frame(rng)).matrix for _ in range(100)]
    return out


def framed_sts_9_25() -> list[np.ndarray]:
    """A strongly squeezed thermal state in 20 frames for each of the seeds
    0-9, with entries about 1e8, on some of which LAPACK's eigvals(J V)
    returns real eigenvalues."""
    sf = sts_standard_form(StsParams(2.49421507582407, 0.33678453102238004, 9.25))
    out = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        out += [in_frame(sf, random_local_frame(rng)).matrix for _ in range(20)]
    return out


@pytest.mark.filterwarnings("error")
def test_the_oracle_certifies_the_pools_it_can_reach():
    # on every accepted matrix the oracle either lands in the benchmark's
    # window around the closed form or its Williamson root raises; its
    # search never fails to converge (one generator per pool)
    certified = 0
    for pool in (near_boundary_matrices, framed_tmsv_grid):
        rng = np.random.default_rng(1)
        for m in pool():
            if not is_physical(m):
                continue
            try:
                value, _ = oracle_max_affinity(m, rng)
            except (ConsistencyError, NotPhysicalError, NotPositiveDefiniteError):
                continue
            assert -1e-5 <= value - max_affinity(m) <= 1e-7
            certified += 1
    assert certified >= 217


def entries_of(matrix: np.ndarray) -> tuple[float, ...]:
    """The ten distinct entries of a two-mode matrix, as ghk.symplectic
    takes them."""
    flat = np.asarray(matrix, dtype=float).ravel().tolist()
    return ghk.symplectic._TWO_MODE_ENTRIES(flat)


class TestPhysicalityCertificate:
    """The float certificate only decides what it proves: every decision
    and exception is the one of the exact decision alone. The reduced forms
    differ only by the rounding of the determinants, which the exact
    decision rounds once where the float expansion rounds each operation."""

    @staticmethod
    def outcomes(matrices) -> tuple[list, list]:
        """(the exception of each call on each matrix, or None, or the bool
        of is_physical; the (b1, b2, c, d) of each accepted reduction)."""
        decisions, forms = [], []
        for m in matrices:
            for call in (standard_form, is_physical, correlation_report):
                try:
                    value = call(m)
                except GhkError as exc:
                    decisions.append(type(exc))
                    continue
                decisions.append(value if call is is_physical else None)
                if call is standard_form:
                    forms.append((value.b1, value.b2, value.c, value.d))
        return decisions, forms

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_same_outcome_as_the_exact_decision_alone(self, monkeypatch, profile):
        monkeypatch.setenv(ENV_VAR, profile)
        matrices = near_boundary_matrices()
        decisions, forms = self.outcomes(matrices)
        monkeypatch.setattr(ghk.symplectic, "_certified_physical", lambda *_: False)
        exact_decisions, exact_forms = self.outcomes(matrices)
        assert exact_decisions == decisions
        np.testing.assert_allclose(exact_forms, forms, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_certifies_only_what_is_exactly_physical(self, monkeypatch, profile):
        monkeypatch.setenv(ENV_VAR, profile)
        original = ghk.symplectic._certified_physical
        seen = []

        def recording(entries, dets, tol):
            seen.append((entries, tol, original(entries, dets, tol)))
            return seen[-1][-1]

        monkeypatch.setattr(ghk.symplectic, "_certified_physical", recording)
        for m in near_boundary_matrices():
            try:
                standard_form(m)
            except GhkError:
                pass
        assert {ok for *_, ok in seen} == {True, False}
        for entries, tol, ok in seen:
            if ok:
                assert ghk.symplectic._exactly_physical(entries, tol) is not None

    @pytest.mark.parametrize("r", [5.0, 6.0, 7.0, 8.0, 8.3])
    def test_b1_of_a_squeezed_local_block_is_the_exact_root(self, r):
        # product states k R diag(e^{2r}, e^{-2r}) R^T (+) I: the float
        # expansion of det A = k^2 loses about u a00 a11 / det A, relative,
        # so b1 is exact only where the certificate's margin bounds that
        # loss, or from the exact determinant
        rng = np.random.default_rng(17)
        accepted = 0
        for _ in range(200):
            k, angle = rng.uniform(0.5, 3.0), rng.uniform(0.0, math.pi)
            co, si = math.cos(angle), math.sin(angle)
            up, down = k * math.exp(2.0 * r), k * math.exp(-2.0 * r)
            a00, a11 = co * co * up + si * si * down, si * si * up + co * co * down
            a01 = co * si * (up - down)
            matrix = [
                [a00, a01, 0.0, 0.0], [a01, a11, 0.0, 0.0],
                [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0],
            ]
            try:
                sf = standard_form(matrix)
            except NotPhysicalError:
                continue
            accepted += 1
            det_a = Fraction(a00) * Fraction(a11) - Fraction(a01) ** 2
            assert sf.b1 == pytest.approx(math.sqrt(float(det_a)), rel=2.0**-31, abs=0.0)
            assert sf.b2 == 1.0
        assert accepted >= 180


@cache
def decision_cases() -> tuple[list[np.ndarray], list[np.ndarray]]:
    """(matrices whose decision the closed-form gate leaves alone, matrices
    near 1/2 in strongly squeezed frames), for the exact decision."""
    plain = [
        np.diag([2.0**600 / 2, 2.0**-600 / 2, 2.0**500 / 2, 2.0**-500 / 2]),
        np.diag([2.0**1000 / 2, 2.0**-1000 / 2, 2.0**1000 / 2, 2.0**-1000 / 2]),
        0.5 * np.eye(4),
        (0.5 - 2e-9) * np.eye(4),
        (0.5 - 0.5e-9) * np.eye(4),
        np.diag([1.0, 1.0, -1.0, -1.0]),
        -np.eye(4),
    ]
    return plain, near_boundary_matrices() + framed_sts_9_25()


@cache
def reference_kappas() -> tuple[list, list]:
    plain, squeezed = decision_cases()
    return [reference_kappa2(m) for m in plain], [reference_kappa2(m) for m in squeezed]


class TestExactDecision:
    """The exact decision against an independent 80-digit reference."""

    @staticmethod
    def reference(kappa2, tol: float) -> bool:
        return kappa2 is not None and kappa2 >= mpmath.mpf(0.5 - tol)

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_equals_the_reference(self, monkeypatch, profile):
        monkeypatch.setenv(ENV_VAR, profile)
        tol = PROFILES[profile].phys_tol
        plain, squeezed = decision_cases()
        plain_kappas, squeezed_kappas = reference_kappas()
        for m, kappa2 in zip(plain, plain_kappas):
            expected = self.reference(kappa2, tol)
            exact = ghk.symplectic._exactly_physical(entries_of(m), tol)
            assert (exact is not None) == expected
            assert is_physical(m) == expected
        for m, kappa2 in zip(squeezed, squeezed_kappas):
            expected = self.reference(kappa2, tol)
            exact = ghk.symplectic._exactly_physical(entries_of(m), tol)
            assert (exact is not None) == expected
            assert is_physical(m) == expected

    # local blocks with a00 a11 about 1e17 and det A about 6: the float
    # expansion a00 a11 - a01^2 cancels to 0
    @pytest.mark.parametrize(
        "a00, a11, a01",
        [
            (74895282.1520023, 1342832049.969274, 317130549.2462062),
            (665936961.4542572, 427568323.11517453, 533604300.8722956),
        ],
    )
    def test_squeezed_local_block_whose_float_determinant_cancels(self, a00, a11, a01):
        assert a00 * a11 - a01 * a01 == 0.0
        m = np.diag([a00, a11, 0.5, 0.5])
        m[0, 1] = m[1, 0] = a01
        with mpmath.workdps(50):
            b1 = float(mpmath.sqrt(mpmath.mpf(a00) * a11 - mpmath.mpf(a01) ** 2))
        assert is_physical(m)
        report = correlation_report(m)
        assert report.standard_form.b1 == pytest.approx(b1, rel=1e-15)
        assert report.standard_form.b2 == 0.5
        assert report.hellinger_discord == 0.0
        assert report.mutual_information == 0.0

    def test_determinants_past_the_float_range(self):
        # det A = scale^2 and det V = scale^4 overflow as floats; the record
        # and b_j are taken from the integers, scaled by powers of two
        tol = active_profile().phys_tol
        for scale in (1e160, 1e200, 1e300):
            m = scale * np.eye(4)
            (a, ea), _, record, _ = ghk.symplectic._exactly_physical(entries_of(m), tol)
            assert math.ldexp(math.sqrt(a), ea) == scale
            assert record[0] == (scale, scale)
            assert is_physical(m)
            report = correlation_report(m)
            assert report.symplectic_spectrum == report.pt_spectrum == (scale, scale)
            assert (report.standard_form.b1, report.standard_form.b2) == (scale, scale)
            assert report.hellinger_discord == report.mutual_information == 0.0


@cache
def library_report_pool() -> tuple[np.ndarray, ...]:
    """The 512 matrices of the benchmark's ``library-report`` workload at
    seed 1: random forms in random frames and family forms, half symmetric."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    from workloads import LibraryReport

    return tuple(LibraryReport(ghk, 1).matrices)


POOLS = {
    "near_boundary_matrices": near_boundary_matrices,
    "framed_tmsv_grid": framed_tmsv_grid,
    "framed_sts_9_25": framed_sts_9_25,
    "library_report_pool": library_report_pool,
}


def accepts(call, matrix) -> bool:
    try:
        call(matrix)
    except NotPhysicalError:
        return False
    return True


class TestOneDecision:
    """A two-mode matrix is decided once: every function that decides it,
    and is_physical, accepts exactly what the exact decision accepts."""

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    @pytest.mark.parametrize("pool", sorted(POOLS))
    def test_every_function_takes_the_exact_decision(self, monkeypatch, profile, pool):
        monkeypatch.setenv(ENV_VAR, profile)
        tol = PROFILES[profile].phys_tol
        for m in POOLS[pool]():
            expected = ghk.symplectic._exactly_physical(entries_of(m), tol) is not None
            assert is_physical(m) == expected
            for call in DECIDERS:
                assert accepts(call, m) == expected, call.__name__


@cache
def pool_references(pool: str) -> tuple:
    return tuple(reference_fields(m) for m in POOLS[pool]())


def reference_entropy(x):
    """The entropic function in mpmath, 0 at and below 1/2."""
    if x <= 0.5:
        return mpmath.mpf(0)
    return (x + 0.5) * mpmath.log(x + 0.5) - (x - 0.5) * mpmath.log(x - 0.5)


def reference_eof(ref: dict):
    """The entanglement of formation h(z), z = (g^2 + 1/4)/(2 g), of the
    symmetric gap g = b - c = (gc + h^2)/(b + c) of ``reference_fields``
    ``ref``, with b and h the mean and half difference of b1, b2."""
    (b1, b2), (gc, _) = ref["b"], ref["gaps"]
    b, h = (b1 + b2) / 2, (b1 - b2) / 2
    gap = (gc + h * h) / (b + mpmath.sqrt(b1 * b2 - gc))
    if gap >= 0.5:
        return mpmath.mpf(0)
    return reference_entropy((gap * gap + 0.25) / (2 * gap))


class TestFieldAccuracy:
    """Every accepted matrix of the pools near kappa2 = 1/2 and at large
    squeeze reports its fields as ``reference_fields`` evaluates them on its
    own invariants: its record holds those invariants, not the rounded
    floats of its reduced form."""

    # relative bounds of the mutual information and of the discord; near
    # the boundary the pure-mode cut moves a mode 1e-9 above 1/2 to 1/2
    RTOL = {
        "near_boundary_matrices": (1e-7, 1e-10),
        "framed_tmsv_grid": (1e-8, 1e-10),
        "framed_sts_9_25": (1e-8, 1e-9),
    }

    @pytest.mark.parametrize("pool", sorted(RTOL))
    def test_every_accepted_matrix_against_the_reference(self, pool):
        mutual_rtol, discord_rtol = self.RTOL[pool]
        accepted = 0
        with mpmath.workdps(80):
            for m, ref in zip(POOLS[pool](), pool_references(pool)):
                try:
                    report = correlation_report(m)
                except NotPhysicalError:
                    continue
                accepted += 1
                sf = report.standard_form
                pairs = [
                    *zip(report.symplectic_spectrum, ref["spectrum"]),
                    *zip(report.pt_spectrum, ref["pt_spectrum"]),
                    *zip((sf.b1, sf.b2), ref["b"]),
                ]
                for value, exact in pairs:
                    assert abs(value - exact) <= 1e-9 * exact
                if not ghk.forms._is_uncorrelated(sf):
                    (k1, k2), (b1, b2) = ref["spectrum"], ref["b"]
                    exact = sum(map(reference_entropy, (b1, b2))) - sum(
                        map(reference_entropy, (k1, k2))
                    )
                    assert abs(report.mutual_information - exact) <= mutual_rtol * exact
                    exact = ref["hellinger_discord"]
                    assert abs(report.hellinger_discord - exact) <= discord_rtol * exact
                if report.entropic_discord is not None and sf.d <= 0.0:
                    exact = reference_eof(ref)
                    assert abs(report.eof - exact) <= 1e-12 * exact
        assert accepted >= 90

    @pytest.mark.parametrize("pool", sorted(RTOL))
    def test_closest_product_state_takes_max_affinity(self, pool):
        for m in POOLS[pool]():
            if is_physical(m):
                assert closest_product_state(m).max_affinity == max_affinity(m)


class TestSymplecticEigenvalues:
    """The spectrum of a two-mode matrix is that of its exact invariants,
    rounded once, and agrees with the physicality decision."""

    @pytest.mark.parametrize("pool", sorted(TestFieldAccuracy.RTOL))
    def test_against_the_reference(self, pool):
        with mpmath.workdps(80):
            for m, ref in zip(POOLS[pool](), pool_references(pool)):
                if ref is None:
                    with pytest.raises(NotPositiveDefiniteError):
                        symplectic_eigenvalues(m)
                    continue
                for value, exact in zip(symplectic_eigenvalues(m), ref["spectrum"]):
                    assert abs(value - exact) <= 1e-15 * exact

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    @pytest.mark.parametrize("pool", sorted(POOLS))
    def test_an_accepted_matrix_reads_at_least_half(self, monkeypatch, profile, pool):
        monkeypatch.setenv(ENV_VAR, profile)
        floor = 0.5 - PROFILES[profile].phys_tol
        for m in POOLS[pool]():
            if is_physical(m):
                assert symplectic_eigenvalues(m)[1] >= floor


def reference_root(matrix, ref: dict) -> mpmath.matrix:
    """The square-root CM of the float two-mode ``matrix`` in mpmath, from
    the spectrum of its ``reference_fields`` ``ref``: alpha V + beta V J V J V
    maps the Williamson mode kappa_j to (alpha - beta kappa_j^2) kappa_j, so
    alpha - beta kappa_j^2 = 1 + s_j, s_j = sqrt(1 - 1/(4 kappa_j^2)) or 0
    within phys_tol of 1/2 (the report's pure-mode cut), for j = 1, 2. At
    kappa1 = kappa2, V J V J V = -kappa^2 V and beta = 0 solves both."""
    tol = active_profile().phys_tol
    k1, k2 = ref["spectrum"]
    s1, s2 = (mpmath.sqrt(1 - 1 / (4 * k * k)) if k - 0.5 >= tol else 0 for k in (k1, k2))
    beta = (s2 - s1) / (k1 * k1 - k2 * k2) if k1 != k2 else 0
    alpha = 1 + s1 + beta * k1 * k1
    v = mpmath.matrix(np.asarray(matrix, dtype=float).tolist())
    j = mpmath.matrix([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    return alpha * v + beta * (v * j * v * j * v)


class TestSquareRootCm:
    """A two-mode square root takes the decision of is_physical and is built
    on the exact invariants of that decision."""

    # roots that pass the identity check on the three pools: no fewer than
    # the Williamson route's 217 and 115
    IDENTITY_PASSES = {"default": 217, "strict": 115}

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_two_mode_decision_is_that_of_square_root_cm(self, monkeypatch, profile):
        # an accepted two-mode state has a square root and an affinity
        monkeypatch.setenv(ENV_VAR, profile)
        plain, _ = decision_cases()
        pools = near_boundary_matrices() + framed_tmsv_grid() + framed_sts_9_25()
        outcomes = []
        for m in plain + pools:
            try:
                square_root_cm(m)
                outcomes.append("root")
            except NotPhysicalError:
                outcomes.append("unphysical")
            except ConsistencyError:  # its identity check, after the decision
                outcomes.append("inconsistent")
            assert is_physical(m) == (outcomes[-1] != "unphysical")
            if outcomes[-1] != "unphysical":
                state = GaussianState(np.zeros(4), m)
                try:
                    affinity(state, state)
                except ConsistencyError:
                    pass
        passes = outcomes[len(plain):].count("root")
        assert passes >= self.IDENTITY_PASSES[profile]

    @staticmethod
    def root_error(matrix, ref: dict) -> float:
        """The largest entry error of ``square_root_cm``, relative to the
        largest entry of ``reference_root``."""
        exact = reference_root(matrix, ref)
        got = square_root_cm(matrix).matrix
        pairs = [(got[i, j], exact[i, j]) for i in range(4) for j in range(4)]
        return float(max(abs(x - y) for x, y in pairs) / max(abs(y) for _, y in pairs))

    BOUNDS = {"framed_sts_9_25": 1e-15, "framed_tmsv_grid": 1e-11}

    @pytest.mark.parametrize("pool", sorted(BOUNDS))
    def test_against_the_reference(self, monkeypatch, pool):
        # Vt^-1 in floats cannot satisfy the identity check at these
        # conditionings, so the root is read without it
        monkeypatch.setattr(ghk.symplectic, "_check_sqrt_identity", lambda v, vt: None)
        checked = 0
        with mpmath.workdps(80):
            for m, ref in zip(POOLS[pool](), pool_references(pool)):
                if is_physical(m):
                    checked += 1
                    assert self.root_error(m, ref) <= self.BOUNDS[pool]
        assert checked >= 140

    def test_random_states_against_the_reference(self):
        rng = np.random.default_rng(17)
        with mpmath.workdps(80):
            for _ in range(40):
                m = random_physical_cm(2, rng).matrix
                assert self.root_error(m, reference_fields(m)) <= 1e-14
