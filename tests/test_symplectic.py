"""Symplectic core: spectra, Williamson square roots, standard forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghk import (
    ConsistencyError,
    CovarianceMatrix,
    DegenerateBlocksError,
    DimensionMismatchError,
    InvalidParamsError,
    NonSymmetricError,
    NotPhysicalError,
    NotPositiveDefiniteError,
    StandardForm,
    affinity,
    closest_product_state,
    correlation_report,
    invariants,
    invariants_from_spectrum,
    is_physical,
    max_affinity,
    oracle_max_affinity,
    random_physical_cm,
    random_standard_form,
    random_symplectic,
    reduce_to_standard_form,
    square_root_cm,
    square_root_standard_form,
    standard_form,
    symplectic_eigenvalues,
    symplectic_form,
    williamson,
)
from ghk.states import StsParams, sts_standard_form, sts_state
from ghk.symplectic import det2, det4
from ghk.tolerances import ENV_VAR, PROFILES


def rotation_pair(theta1, theta2):
    """Local symplectic made of one rotation per mode."""
    def rot(t):
        return np.array([[math.cos(t), math.sin(t)], [-math.sin(t), math.cos(t)]])

    out = np.zeros((4, 4))
    out[:2, :2] = rot(theta1)
    out[2:, 2:] = rot(theta2)
    return out


class TestSymplecticForm:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_square_is_minus_identity(self, n):
        j = symplectic_form(n)
        np.testing.assert_allclose(j @ j, -np.eye(2 * n), atol=0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_antisymmetric(self, n):
        j = symplectic_form(n)
        np.testing.assert_allclose(j.T, -j, atol=0)


class TestDeterminants:
    def test_det4_matches_numpy(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            m = rng.normal(size=(4, 4))
            assert det4(m) == pytest.approx(np.linalg.det(m), rel=1e-10)

    def test_det2(self):
        assert det2(np.array([[2.0, 1.0], [3.0, 4.0]])) == 5.0


class TestSymplecticEigenvalues:
    def test_vacuum(self):
        kappas = symplectic_eigenvalues(0.5 * np.eye(4))
        np.testing.assert_allclose(kappas, [0.5, 0.5], rtol=1e-12)

    def test_thermal_diagonal(self):
        kappas = symplectic_eigenvalues(np.diag([2.5, 2.5, 0.5, 0.5]))
        np.testing.assert_allclose(kappas, [2.5, 0.5], rtol=1e-12)

    def test_two_mode_squeezed_vacuum_is_minimal(self):
        # b^2 - c^2 = 1/4 forces a pure state: both eigenvalues 1/2
        r = 0.7
        b = 0.5 * math.cosh(2 * r)
        c = 0.5 * math.sinh(2 * r)
        cm = StandardForm(b, b, c, -c).to_cm()
        np.testing.assert_allclose(
            symplectic_eigenvalues(cm), [0.5, 0.5], rtol=1e-10
        )

    def test_product_rule(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 3):
            for _ in range(30):
                cov = random_physical_cm(n, rng)
                kappas = symplectic_eigenvalues(cov)
                det = np.linalg.det(cov.matrix)
                assert np.prod(kappas**2) == pytest.approx(det, rel=1e-9)

    def test_congruence_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            cov = random_physical_cm(2, rng)
            s = random_symplectic(2, rng)
            moved = CovarianceMatrix(s @ cov.matrix @ s.T)
            np.testing.assert_allclose(
                symplectic_eigenvalues(moved),
                symplectic_eigenvalues(cov),
                rtol=1e-8,
            )

    def test_rejects_asymmetric(self):
        m = 0.5 * np.eye(4)
        m = m.copy()
        m[0, 1] = 1e-6
        with pytest.raises(NonSymmetricError):
            symplectic_eigenvalues(m)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            symplectic_eigenvalues(np.diag([1.0, -1.0]))


class TestIsPhysical:
    def test_vacuum(self):
        assert is_physical(0.5 * np.eye(4))

    def test_below_uncertainty_bound(self):
        assert not is_physical(0.4 * np.eye(2))

    def test_squeezed_thermal_family(self):
        sf = sts_standard_form(StsParams(nbar1=1.0, nbar2=2.0, r=1.3))
        assert is_physical(sf.to_cm())

    def test_indefinite_is_unphysical(self):
        assert not is_physical(np.diag([1.0, -1.0]))


class TestWilliamson:
    def test_reconstruction_and_symplecticity(self):
        rng = np.random.default_rng(9)
        for n in (1, 2, 3):
            for _ in range(20):
                cov = random_physical_cm(n, rng)
                kappas, s = williamson(cov)
                d = np.diag(np.repeat(kappas, 2))
                np.testing.assert_allclose(
                    s @ d @ s.T, cov.matrix, rtol=1e-9, atol=1e-12
                )
                j = symplectic_form(n)
                np.testing.assert_allclose(s @ j @ s.T, j, atol=1e-10)


# Symmetric squeezed thermal states with a doubly degenerate symplectic
# spectrum, on which a real Schur factorization of L^T J L fails to converge.
DEGENERATE_STS = [
    StsParams(4.116728791779476, 4.116728791779476, 1.42820424695416),
    StsParams(3.0092424022654174, 3.0092424022654174, 2.829833238562583),
]


@pytest.mark.parametrize("params", DEGENERATE_STS)
class TestDegenerateSpectrum:
    def test_williamson(self, params):
        cov = sts_standard_form(params).to_cm()
        kappas, s = williamson(cov)
        assert kappas[0] == pytest.approx(kappas[1], rel=1e-12)
        d = np.diag(np.repeat(kappas, 2))
        np.testing.assert_allclose(s @ d @ s.T, cov.matrix, rtol=1e-9, atol=1e-12)
        j = symplectic_form(2)
        np.testing.assert_allclose(s @ j @ s.T, j, atol=1e-10)

    def test_square_root_cm(self, params):
        sf = sts_standard_form(params)
        via_matrix = square_root_cm(sf.to_cm()).matrix
        via_form = square_root_standard_form(sf).to_cm().matrix
        np.testing.assert_allclose(
            via_matrix, via_form, rtol=0, atol=1e-12 * np.max(np.abs(via_form))
        )

    def test_self_affinity(self, params):
        state = sts_state(params)
        assert affinity(state, state).value == pytest.approx(1.0, abs=1e-12)

    def test_oracle(self, params):
        cov = sts_standard_form(params).to_cm()
        value, _ = oracle_max_affinity(cov)
        assert -1e-5 <= value - max_affinity(cov) <= 1e-7


class TestSquareRootCm:
    def test_vacuum_fixed_point(self):
        out = square_root_cm(0.5 * np.eye(4))
        np.testing.assert_allclose(out.matrix, 0.5 * np.eye(4), atol=1e-12)

    def test_single_mode_thermal(self):
        out = square_root_cm(2.5 * np.eye(2))
        np.testing.assert_allclose(
            out.matrix, (2.5 + math.sqrt(6)) * np.eye(2), rtol=1e-12
        )

    def test_defining_identity(self):
        rng = np.random.default_rng(10)
        j = symplectic_form(2)
        for _ in range(40):
            cov = random_physical_cm(2, rng)
            vt = square_root_cm(cov).matrix
            back = 0.5 * (vt - 0.25 * j @ np.linalg.inv(vt) @ j)
            np.testing.assert_allclose(back, cov.matrix, rtol=1e-8, atol=1e-10)

    def test_scaled_form_matches_closed_entries(self):
        sf = StandardForm(1.5, 1.2, 0.6, -0.4, 1.0, 1.0)
        via_matrix = square_root_cm(sf.to_cm()).matrix
        via_form = square_root_standard_form(sf).to_cm().matrix
        np.testing.assert_allclose(via_matrix, via_form, rtol=1e-8, atol=1e-10)

    def test_rejects_unphysical(self):
        with pytest.raises(NotPhysicalError):
            square_root_cm(0.4 * np.eye(2))


class TestStandardForm:
    def test_product_of_thermals(self):
        sf = standard_form(np.diag([1.5, 1.5, 0.7, 0.7]))
        assert (sf.b1, sf.b2, sf.c, sf.d) == pytest.approx((1.5, 0.7, 0.0, 0.0))
        assert sf.s1 == sf.s2 == 1.0

    def test_roundtrip_under_local_rotations(self):
        base = StandardForm(2.0, 1.5, 0.9, -0.9)
        rng = np.random.default_rng(11)
        for _ in range(20):
            rot = rotation_pair(rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
            moved = CovarianceMatrix(rot @ base.to_cm().matrix @ rot.T)
            sf = standard_form(moved)
            assert (sf.b1, sf.b2, sf.c, sf.d) == pytest.approx(
                (2.0, 1.5, 0.9, -0.9), abs=1e-9
            )

    def test_mode_mixed_example(self):
        co = si = math.cos(math.pi / 4)
        b = 2.5 * co * co + 0.5 * si * si
        c = (2.5 - 0.5) * co * si
        cm = StandardForm(b, b, c, c).to_cm()
        sf = standard_form(cm)
        assert (sf.b1, sf.b2, sf.c, sf.d) == pytest.approx((1.5, 1.5, 1.0, 1.0))

    def test_roundtrip_random(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            sf = random_standard_form(rng)
            back = standard_form(sf.to_cm())
            for field in ("b1", "b2", "c", "d"):
                assert getattr(back, field) == pytest.approx(
                    getattr(sf, field), abs=1e-9, rel=1e-9
                )

    def test_rejects_unphysical(self):
        with pytest.raises(NotPhysicalError):
            standard_form(0.4 * np.eye(4))

    def test_form_requires_c_at_least_abs_d(self):
        StandardForm(1.5, 1.5, 0.5, -0.5)
        with pytest.raises(InvalidParamsError):
            StandardForm(1.5, 1.5, 0.5, -0.5 * (1.0 + 1e-11))
        with pytest.raises(InvalidParamsError):
            StandardForm(1.5, 1.5, math.nan, 0.0)

    def test_discriminant_guard(self, monkeypatch):
        # the reduction always reproduces the invariants of a valid matrix,
        # so both diagonal blocks are made to report b = (det V -
        # det(C)^2)^(1/4): the quadratic in (c^2, d^2) then has
        # s = c^2 + d^2 = 0 < 2 |c d|. The guard is part of the one
        # reduction, so every route through it raises.
        from ghk import symplectic

        cm = StandardForm(2.0, 2.0, 1.0, -0.5).to_cm()
        det_v, det_c = (4.0 - 1.0) * (4.0 - 0.25), 1.0 * -0.5
        b = (det_v - det_c * det_c) ** 0.25
        unit_root = symplectic._unit_root

        def corrupt(*args):
            return (b, *unit_root(*args)[1:])

        monkeypatch.setattr(symplectic, "_unit_root", corrupt)
        for reduction in (standard_form, reduce_to_standard_form, closest_product_state):
            with pytest.raises(DegenerateBlocksError):
                reduction(cm)

    def test_scale_factors_drop_out(self):
        scaled = StandardForm(2.0, 1.5, 0.9, -0.4, s1=1.7, s2=0.6)
        sf = standard_form(scaled.to_cm())
        assert (sf.b1, sf.b2, sf.c, sf.d) == pytest.approx((2.0, 1.5, 0.9, -0.4))
        assert sf.s1 == sf.s2 == 1.0


@settings(max_examples=60, deadline=None)
@given(
    b1=st.floats(0.6, 4.0),
    b2=st.floats(0.6, 4.0),
    c_frac=st.floats(0.0, 0.9),
    d_frac=st.floats(-1.0, 1.0),
)
def test_standard_form_roundtrip_property(b1, b2, c_frac, d_frac):
    c = c_frac * math.sqrt(b1 * b2)
    d = d_frac * c
    sf = StandardForm(b1, b2, c, d)
    if sf.spectrum()[1] < 0.5 + 1e-6:
        return
    back = standard_form(sf.to_cm())
    assert back.b1 == pytest.approx(b1, rel=1e-9, abs=1e-9)
    assert back.b2 == pytest.approx(b2, rel=1e-9, abs=1e-9)
    assert back.c == pytest.approx(c, rel=1e-8, abs=1e-9)
    assert back.d == pytest.approx(d, rel=1e-8, abs=1e-9)


class TestReduceToStandardForm:
    def test_tracks_the_local_frame(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            sf = random_standard_form(rng)
            rot = rotation_pair(rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
            scale = np.diag(
                [rng.uniform(0.5, 2.0), 0.0, rng.uniform(0.5, 2.0), 0.0]
            )
            local = np.zeros((4, 4))
            local[0, 0] = scale[0, 0]
            local[1, 1] = 1.0 / scale[0, 0]
            local[2, 2] = scale[2, 2]
            local[3, 3] = 1.0 / scale[2, 2]
            s_in = rot @ local
            moved = CovarianceMatrix(s_in @ sf.to_cm().matrix @ s_in.T)
            back, frame = reduce_to_standard_form(moved)
            rebuilt = frame @ back.to_cm().matrix @ frame.T
            np.testing.assert_allclose(rebuilt, moved.matrix, rtol=1e-9, atol=1e-10)
            assert back.c >= abs(back.d) - 1e-12
            # frame blocks are local symplectics
            for sl in (slice(0, 2), slice(2, 4)):
                assert np.linalg.det(frame[sl, sl]) == pytest.approx(1.0, rel=1e-9)

    def test_recovered_parameters_solve_the_invariant_system(self):
        # c d = det(C block) and (b1 b2 - c^2)(b1 b2 - d^2) = det V, with
        # sign(d) matching the cross-block determinant
        rng = np.random.default_rng(14)
        for _ in range(30):
            sf = random_standard_form(rng)
            rot = rotation_pair(rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
            moved = CovarianceMatrix(rot @ sf.to_cm().matrix @ rot.T)
            got = standard_form(moved)
            p = det2(moved.matrix[:2, 2:])
            q = det4(moved.matrix)
            assert got.c * got.d == pytest.approx(p, rel=1e-9, abs=1e-10)
            assert got.cm_determinant() == pytest.approx(q, rel=1e-9)
            assert got.c >= abs(got.d) - 1e-12
            if p != 0:
                assert math.copysign(1.0, got.d) == math.copysign(1.0, p)


def local_frame(rng) -> np.ndarray:
    """Random local symplectic S1 (+) S2."""
    s = np.zeros((4, 4))
    s[:2, :2] = random_symplectic(1, rng)
    s[2:, 2:] = random_symplectic(1, rng)
    return s


class TestReductionFrame:
    """The closed-form reduction reproduces its input and keeps c = -d ties."""

    def inputs(self):
        rng = np.random.default_rng(21)
        forms = [random_standard_form(rng) for _ in range(100)]
        # zero, rank-1, c = |d| of both signs, and det C < 0 cross blocks
        for b1, b2 in ((1.3, 0.9), (2.0, 2.0), (0.7, 3.1)):
            for c, d in ((0.0, 0.0), (0.4, 0.0), (0.4, 0.4), (0.4, -0.4), (0.5, -0.2)):
                forms.append(StandardForm(b1, b2, c, d))
        for sf in forms:
            for s in (np.eye(4), local_frame(rng)):
                m = s @ sf.to_cm().matrix @ s.T
                yield CovarianceMatrix(0.5 * (m + m.T))

    def test_frame_rebuilds_the_input(self):
        for cov in self.inputs():
            sf, s = reduce_to_standard_form(cov)
            rebuilt = s @ sf.to_cm().matrix @ s.T
            scale = np.max(np.abs(cov.matrix))
            assert np.max(np.abs(rebuilt - cov.matrix)) <= 1e-13 * scale
            assert sf.c >= abs(sf.d)

    def test_frame_blocks_are_symplectic(self):
        j1 = symplectic_form(1)
        for cov in self.inputs():
            _, s = reduce_to_standard_form(cov)
            assert not s[:2, 2:].any() and not s[2:, :2].any()
            for block in (s[:2, :2], s[2:, 2:]):
                np.testing.assert_allclose(block @ j1 @ block.T, j1, rtol=0, atol=1e-13)

    def test_diagonal_cross_block_keeps_the_tie(self):
        # solving c d = det C as d = det(C) / c misses -c by an ulp here,
        # and the spectrum formula turns that ulp into an error of 5e-6
        b, c = 954.1114688507246, 954.0994253547595
        cm = StandardForm(b, b, c, -c).to_cm()
        sf, _ = reduce_to_standard_form(cm)
        assert sf.d == -sf.c
        exact = math.sqrt((b - c) * (b + c))
        report = correlation_report(cm)
        np.testing.assert_allclose(report.symplectic_spectrum, (exact, exact), rtol=0, atol=1e-9)


class TestInvariants:
    def test_vacuum(self):
        inv = invariants(0.5 * np.eye(4))
        assert inv.M1 == inv.M2 == inv.N2 == 0.0
        assert inv.N1 == pytest.approx(1.0)
        assert inv.D == 0.0
        assert inv.K == 0.0

    def test_thermal_pair(self):
        inv = invariants_from_spectrum((2.5, 0.5))
        assert inv.M1 == pytest.approx(2.0)
        assert inv.M2 == pytest.approx(0.0)
        assert inv.N1 == pytest.approx(3.0)
        assert inv.N2 == pytest.approx(0.0)
        assert inv.D == pytest.approx(0.0)
        assert inv.K == pytest.approx(math.sqrt(6) / 2)

    def test_degenerate_pair(self):
        inv = invariants_from_spectrum((1.5, 1.5))
        assert inv.M1 == inv.M2 == pytest.approx(2.0)
        assert inv.N1 == pytest.approx(4.0)
        assert inv.N2 == pytest.approx(1.0)
        assert inv.D == pytest.approx(4.0)
        assert inv.K == pytest.approx(3 * math.sqrt(2))

    def test_identities_on_random_states(self):
        rng = np.random.default_rng(15)
        for _ in range(60):
            cov = random_standard_form(rng).to_cm()
            inv = invariants(cov)
            assert inv.M1 * inv.M2 == pytest.approx(inv.D, rel=1e-10, abs=1e-12)
            assert inv.N1 * inv.N2 == pytest.approx(inv.D, rel=1e-10, abs=1e-12)
            factored = 0.5 * (
                (math.sqrt(inv.M1) + math.sqrt(inv.M2))
                * (math.sqrt(inv.N1) + math.sqrt(inv.N2))
            )
            assert factored == pytest.approx(inv.K, rel=1e-10)

    def test_determinant_route_check_runs(self):
        # the op itself enforces the dual determinant computation
        rng = np.random.default_rng(16)
        for _ in range(20):
            invariants(random_physical_cm(2, rng))


class TestSquareRootStandardForm:
    def test_pure_state_fixed_point(self):
        r = 0.9
        b = 0.5 * math.cosh(2 * r)
        c = 0.5 * math.sinh(2 * r)
        sf = StandardForm(b, b, c, -c)
        assert square_root_standard_form(sf) == sf

    def test_squeezed_thermal_closed_entries(self):
        # equal occupancies: the transformed parameters follow by replacing
        # kappa with kappa + sqrt(kappa^2 - 1/4) in the family formulas
        p = StsParams(nbar1=1.0, nbar2=1.0, r=0.5)
        kt = 1.5 + math.sqrt(2.0)
        ch, sh = math.cosh(0.5), math.sinh(0.5)
        expected_b = kt * (ch * ch + sh * sh)
        expected_c = 2.0 * kt * ch * sh
        tsf = square_root_standard_form(sts_standard_form(p))
        assert tsf.b1 == pytest.approx(expected_b, rel=1e-12)
        assert tsf.b2 == pytest.approx(expected_b, rel=1e-12)
        assert tsf.c == pytest.approx(expected_c, rel=1e-12)
        assert tsf.d == pytest.approx(-expected_c, rel=1e-12)

    def test_unscaled_stays_unscaled_for_matched_cross_terms(self):
        # |d| = c families keep s1 = s2 = 1 through the square root
        rng = np.random.default_rng(17)
        for _ in range(40):
            sf = random_standard_form(rng)
            matched = StandardForm(sf.b1, sf.b2, sf.c, -sf.c)
            if matched.spectrum()[1] < 0.5 + 1e-6:
                continue
            tsf = square_root_standard_form(matched)
            assert tsf.s1 == pytest.approx(1.0, abs=1e-12)
            assert tsf.s2 == pytest.approx(1.0, abs=1e-12)

    def test_matches_decomposition_route_on_random_forms(self):
        rng = np.random.default_rng(18)
        for _ in range(1000):
            sf = random_standard_form(rng)
            via_matrix = square_root_cm(sf.to_cm()).matrix
            via_form = square_root_standard_form(sf).to_cm().matrix
            scale = np.max(np.abs(via_matrix))
            assert np.max(np.abs(via_matrix - via_form)) <= 1e-8 * scale

    def test_matches_decomposition_route_scaled(self):
        rng = np.random.default_rng(19)
        for _ in range(60):
            base = random_standard_form(rng)
            sf = StandardForm(
                base.b1, base.b2, base.c, base.d,
                s1=rng.uniform(0.5, 2.0), s2=rng.uniform(0.5, 2.0),
            )
            via_matrix = square_root_cm(sf.to_cm()).matrix
            via_form = square_root_standard_form(sf).to_cm().matrix
            scale = np.max(np.abs(via_matrix))
            assert np.max(np.abs(via_matrix - via_form)) <= 1e-8 * scale


class TestCovarianceMatrixType:
    def test_rejects_odd_dimension(self):
        with pytest.raises(DimensionMismatchError):
            CovarianceMatrix(np.eye(3))

    @pytest.mark.parametrize("shape", [(4, 2), (4,), (0, 0), (2, 2, 2)])
    def test_rejects_non_square_shapes(self, shape):
        with pytest.raises(DimensionMismatchError):
            CovarianceMatrix(np.ones(shape))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [(1, 1), (0, 2)])
    def test_rejects_non_finite_entries(self, bad, where):
        m = 0.5 * np.eye(4)
        m[where] = m[where[::-1]] = bad
        with pytest.raises(InvalidParamsError):
            CovarianceMatrix(m)

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_asymmetry_limit_is_sym_atol(self, monkeypatch, profile):
        monkeypatch.setenv(ENV_VAR, profile)
        limit = PROFILES[profile].sym_atol
        m = 0.5 * np.eye(4)
        m[0, 1] = limit
        CovarianceMatrix(m)
        m[0, 1] = np.nextafter(limit, 1.0)
        with pytest.raises(NonSymmetricError):
            CovarianceMatrix(m)

    def test_stores_a_read_only_symmetrised_copy(self):
        rng = np.random.default_rng(21)
        m = random_physical_cm(2, rng).matrix.copy()
        m[0, 3] += 3e-11
        given = m.copy()
        cov = CovarianceMatrix(m)
        np.testing.assert_array_equal(m, given)
        np.testing.assert_array_equal(cov.matrix, 0.5 * (given + given.T))
        np.testing.assert_array_equal(cov.matrix, cov.matrix.T)
        assert not cov.matrix.flags.writeable
        assert cov.matrix is not m

    @pytest.mark.parametrize(
        "call",
        [correlation_report, closest_product_state, standard_form, reduce_to_standard_form],
    )
    def test_entry_points_check_raw_matrices(self, call):
        m = StandardForm(1.5, 1.2, 0.3, -0.2).to_cm().matrix.copy()
        m[0, 2] = math.nan
        with pytest.raises(InvalidParamsError):
            call(m)
        m[0, 2] = 0.3 + 1e-6
        with pytest.raises(NonSymmetricError):
            call(m)
        with pytest.raises(DimensionMismatchError):
            call(random_physical_cm(3, np.random.default_rng(23)).matrix)

    def test_validates_three_modes(self):
        m = random_physical_cm(3, np.random.default_rng(22)).matrix.copy()
        assert CovarianceMatrix(m).n == 3
        m[1, 5] += 1e-6
        with pytest.raises(NonSymmetricError):
            CovarianceMatrix(m)
        m[1, 5] = math.nan
        with pytest.raises(InvalidParamsError):
            CovarianceMatrix(m)

    def test_rejects_asymmetry(self):
        m = np.eye(2)
        m[0, 1] = 1e-3
        with pytest.raises(NonSymmetricError):
            CovarianceMatrix(m)

    def test_symmetrizes_tiny_asymmetry(self):
        m = 0.5 * np.eye(2)
        m[0, 1] = 1e-12
        cov = CovarianceMatrix(m)
        assert cov.matrix[0, 1] == cov.matrix[1, 0]

    def test_matrix_is_read_only(self):
        cov = CovarianceMatrix(0.5 * np.eye(2))
        with pytest.raises(ValueError):
            cov.matrix[0, 0] = 1.0

    def test_detects_pairing_failure_never_on_valid_input(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            symplectic_eigenvalues(random_physical_cm(3, rng))

    @pytest.mark.parametrize("factor, raises", [(0.5, False), (2.0, True)])
    def test_pair_check_tolerance(self, monkeypatch, factor, raises):
        # J V of a valid matrix always pairs up, so the eigensolver is made
        # to return +/- i kappa pairs whose magnitudes differ by a set amount
        from ghk import symplectic
        from ghk.symplectic import PAIR_MATCH_RTOL

        gap = factor * PAIR_MATCH_RTOL
        broken = np.array([3j, -3j * (1 + gap), 0.7j, -0.7j])
        monkeypatch.setattr(symplectic.np.linalg, "eigvals", lambda _: broken)
        cm = StandardForm(1.5, 1.2, 0.3, -0.2).to_cm()
        if raises:
            with pytest.raises(ConsistencyError):
                symplectic_eigenvalues(cm)
        else:
            np.testing.assert_allclose(symplectic_eigenvalues(cm), (3.0, 0.7), rtol=1e-6)
