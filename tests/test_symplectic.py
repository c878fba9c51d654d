"""Symplectic core: spectra, Williamson square roots, standard forms."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ghk.symplectic
from ghk import (
    ConsistencyError,
    CovarianceMatrix,
    DimensionMismatchError,
    InvalidParamsError,
    NonSymmetricError,
    NotPhysicalError,
    NotPositiveDefiniteError,
    StandardForm,
    affinity,
    as_covariance,
    closest_product_state,
    correlation_report,
    det2,
    det4,
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
from ghk.sampling import random_local_frame
from ghk.states import GaussianState, StsParams, sts_standard_form, sts_state
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

    def test_entries_that_overflow_when_symmetrised_are_invalid(self):
        m = np.diag([1.7e308, 1.0, 1.0, 1.0])
        for value in (m, m.tolist()):
            with pytest.raises(InvalidParamsError, match="overflow"):
                is_physical(value)

    @staticmethod
    def near_boundary_three_mode_matrices(draws: int) -> list[np.ndarray]:
        """3-mode matrices with kappa3 = 1/2 - 1e-9 +/- g, g from 1e-13 to
        1e-6, in random frames: on either side of the default profile's
        physicality bound, closer than round-off can tell apart."""
        rng = np.random.default_rng(5)
        out = []
        for g in np.logspace(-13, -6, 15):
            for sign in (1.0, -1.0):
                for _ in range(draws):
                    kappas = np.array([*rng.uniform(0.6, 3.0, 2), 0.5 - 1e-9 + sign * g])
                    s = random_symplectic(3, rng, scale=1.5)
                    v = (s * np.repeat(kappas, 2)[None, :]) @ s.T
                    out.append(0.5 * (v + v.T))
        return out

    def test_n_mode_decision_is_that_of_square_root_cm(self):
        # an accepted n-mode state has a square root and an affinity
        for m in self.near_boundary_three_mode_matrices(10):
            try:
                square_root_cm(m)
                root = True
            except (NotPhysicalError, NotPositiveDefiniteError):
                root = False
            except ConsistencyError:  # its identity check, after the decision
                root = True
            assert is_physical(m) == root
            if root:
                state = GaussianState(np.zeros(6), m)
                try:
                    affinity(state, state)
                except ConsistencyError:
                    pass


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

    def test_a_pure_mode_maps_to_itself(self):
        # kappa2 = 1/2 is cut to a pure mode, kappa1 = 5/2 is not
        framed = random_local_frame(np.random.default_rng(3))
        for s in (np.eye(4), framed):
            v = s @ np.diag([2.5, 2.5, 0.5, 0.5]) @ s.T
            expected = s @ np.diag([2.5 + math.sqrt(6.0)] * 2 + [0.5] * 2) @ s.T
            np.testing.assert_allclose(
                square_root_cm(0.5 * (v + v.T)).matrix, expected, rtol=0, atol=5e-14
            )

    @pytest.mark.parametrize("n", [2, 3])
    def test_a_singular_root_fails_the_identity_check(self, n):
        vt = np.eye(2 * n)
        vt[-1, -1] = 0.0
        with pytest.raises(ConsistencyError, match="singular"):
            ghk.symplectic._check_sqrt_identity(0.5 * np.eye(2 * n), vt)


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

    @pytest.mark.parametrize(
        "entries", [(1e6, 1.1e6, 0.01, -0.005), (20.0, 12.0, 13.0, -13.0)]
    )
    def test_valid_forms_in_frames_reduce_to_their_form(self, entries):
        # real c and d with c d = det C and (b1 b2 - c^2)(b1 b2 - d^2) =
        # det V exist for every matrix whose diagonal blocks are positive
        # definite: (b1 b2 - |det C|)^2 - det V = b1 b2 (c - |d|)^2. For the
        # first form the float determinants cancel by about
        # b1 b2 / (c^2 + d^2) = 1e16, and the second has c = |d|, so that
        # margin is 0. In every frame each route accepts the state and
        # reports what the form does.
        sf = StandardForm(*entries)
        unframed = correlation_report(sf)
        rng = np.random.default_rng(3)
        for _ in range(20):
            s = random_local_frame(rng)
            v = s @ sf.to_cm().matrix @ s.T
            v = 0.5 * (v + v.T)
            assert is_physical(v)
            report = correlation_report(v)
            reduced = standard_form(v)
            closest = closest_product_state(v)
            assert report.separable == unframed.separable
            got = [
                report.hellinger_discord,
                report.mutual_information,
                *report.symplectic_spectrum,
                *report.pt_spectrum,
                closest.max_affinity,
                reduced.b1,
                reduced.b2,
                reduced.c,
                reduced.d,
            ]
            want = [
                unframed.hellinger_discord,
                unframed.mutual_information,
                *unframed.symplectic_spectrum,
                *unframed.pt_spectrum,
                max_affinity(sf),
                sf.b1,
                sf.b2,
                sf.c,
                sf.d,
            ]
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

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


class TestRandomSymplectic:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_is_symplectic_and_draws_one_normal_matrix(self, n):
        j = symplectic_form(n)
        rng, replay = np.random.default_rng(40 + n), np.random.default_rng(40 + n)
        for scale in [0.35] * 300 + [1.5] * 300:
            s = random_symplectic(n, rng, scale)
            bound = 1e-13 * max(1.0, np.max(np.abs(s)) ** 2)
            assert np.max(np.abs(s @ j @ s.T - j)) <= bound
            replay.normal(size=(2 * n, 2 * n))
            assert rng.bit_generator.state == replay.bit_generator.state


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
            for s in (np.eye(4), random_local_frame(rng)):
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
    def test_a_product_is_each_modes_own_root(self):
        # b + sqrt(b^2 - 1/4) per mode, also where the closed form in K and
        # L has no power of two that keeps its products in float range
        tsf = square_root_standard_form(StandardForm(1e100, 1e300, 0.0, 0.0))
        assert (tsf.b1, tsf.b2, tsf.c, tsf.d) == (2e100, 2e300, 0.0, 0.0)
        tsf = square_root_standard_form(StandardForm(2.0, 3.0, 0.0, 0.0))
        assert tsf == StandardForm(2.0 + math.sqrt(3.75), 3.0 + math.sqrt(8.75), 0.0, 0.0)
        # a root past the float range still raises
        with pytest.raises(InvalidParamsError):
            square_root_standard_form(StandardForm(0.5, 1.7e308, 0.0, 0.0))

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

    # (x + x) * 0.5 overflows from x = 2^1023 on
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1.7e308])
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
        m[0, 2] = m[2, 0] = 1.7e308
        with pytest.raises(InvalidParamsError, match="overflow"):
            call(m.tolist())
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

    def test_three_mode_spectrum_of_valid_input_does_not_raise(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            symplectic_eigenvalues(random_physical_cm(3, rng))


def unit_diagonal_matrix(lam_min: float, rng) -> np.ndarray:
    """A random 4x4 symmetric matrix with unit diagonal and smallest
    eigenvalue lam_min, up to round-off, scaled by a random diagonal."""
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    g = q @ np.diag(rng.uniform(0.5, 2.0, 4)) @ q.T
    g /= np.sqrt(np.outer(np.diag(g), np.diag(g)))
    g_min = np.linalg.eigvalsh(g)[0]
    # shift the spectrum so that lam_min survives rescaling to unit diagonal
    t = lam_min * (1.0 - g_min) / (1.0 - lam_min)
    h = (g + (t - g_min) * np.eye(4)) / (1.0 - g_min + t)
    s = np.diag(10.0 ** rng.uniform(-2.0, 2.0, 4))
    v = s @ h @ s
    return 0.5 * (v + v.T)


def in_random_frame(sf: StandardForm, rng) -> np.ndarray:
    """The matrix of ``sf`` in a random local frame S1 (+) S2, symmetrised."""
    s = random_local_frame(rng)
    m = s @ sf.to_cm().matrix @ s.T
    return 0.5 * (m + m.T)


def exactly_positive_definite(matrix) -> bool:
    """Whether the float ``matrix`` is positive definite, by Gaussian
    elimination in exact fractions: every pivot, the ratio of two leading
    minors, is positive."""
    rows = [[Fraction(x) for x in row] for row in np.asarray(matrix).tolist()]
    for k in range(len(rows)):
        if rows[k][k] <= 0:
            return False
        for i in range(k + 1, len(rows)):
            ratio = rows[i][k] / rows[k][k]
            rows[i] = [x - ratio * y for x, y in zip(rows[i], rows[k])]
    return True


class TestPositiveDefiniteDecision:
    """Positive definiteness of a 4x4 matrix: symplectic_eigenvalues
    decides it exactly, as the two-mode decision does, and the float
    certificate of that decision only decides what it proves."""

    LAM_MIN = (1e-3, 1e-9, 1e-13, 1e-15, 0.0, -1e-15, -1e-3)
    SQUEEZES = (4.0, 4.5, 5.0, 8.0, 9.7, 10.0, 12.0)

    @staticmethod
    def outcome(call, matrix):
        try:
            value = call(matrix)
        except (NotPhysicalError, NotPositiveDefiniteError) as exc:
            return type(exc)
        return value.tolist() if isinstance(value, np.ndarray) else value

    @classmethod
    def matrices(cls):
        rng = np.random.default_rng(31)
        out = [unit_diagonal_matrix(lam, rng) for lam in cls.LAM_MIN for _ in range(8)]
        # entries below the certificate's float range leave the decision to
        # the exact one
        out.append(1e-160 * np.eye(4))
        for r in cls.SQUEEZES:
            sf = sts_standard_form(StsParams(0.0, 0.0, r))
            out.append(sf.to_cm().matrix)
            out.extend(in_random_frame(sf, rng) for _ in range(4))
        return out

    def test_positive_definite_iff_its_leading_minors_are_positive(self):
        decisions = set()
        for m in self.matrices():
            try:
                symplectic_eigenvalues(m)
                ours = True
            except NotPositiveDefiniteError:
                ours = False
            assert ours == exactly_positive_definite(m)
            decisions.add(ours)
        assert decisions == {True, False}

    @pytest.mark.parametrize("call", [standard_form, is_physical])
    def test_same_outcome_as_the_exact_decision_alone(self, monkeypatch, call):
        from ghk import symplectic

        fast = [self.outcome(call, m) for m in self.matrices()]
        monkeypatch.setattr(symplectic, "_certified_physical", lambda *_: False)
        exact = [self.outcome(call, m) for m in self.matrices()]
        assert [type(x) for x in exact] == [type(x) for x in fast]
        for x, y in zip(exact, fast):
            if isinstance(y, StandardForm):
                # the exact decision rounds the determinants once
                assert (x.b1, x.b2, x.c, x.d) == pytest.approx(
                    (y.b1, y.b2, y.c, y.d), rel=1e-12, abs=0.0
                )
            else:
                assert x == y

    def test_random_forms_in_random_frames_take_the_float_path(self):
        from ghk import symplectic

        rng = np.random.default_rng(32)
        tol = PROFILES["default"].phys_tol
        for _ in range(256):
            m = in_random_frame(random_standard_form(rng), rng)
            entries = symplectic._TWO_MODE_ENTRIES(m.ravel().tolist())
            dets = symplectic._determinants(*entries)
            assert symplectic._certified_physical(entries, dets, tol)


PARITY_BASE = [
    [1.5, 0.2, 0.6, 0.0], [0.2, 1.2, 0.1, -0.4], [0.6, 0.1, 1.3, 0.0], [0.0, -0.4, 0.0, 1.1]
]


def with_entry(i: int, j: int, value, mirror: bool = False) -> list[list]:
    m = [row[:] for row in PARITY_BASE]
    m[i][j] = value
    if mirror:
        m[j][i] = value
    return m


def skewed(by: float) -> list[list[float]]:
    m = [row[:] for row in PARITY_BASE]
    m[0][2] += by
    return m


def np_matrix(rows) -> np.matrix:
    """``np.matrix(rows)``, without its deprecation warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PendingDeprecationWarning)
        return np.matrix(rows)


def numpy_error(value) -> tuple[type, str]:
    """The exception numpy raises on reading ``value`` as floats."""
    try:
        np.asarray(value, dtype=float)
    except Exception as exc:
        return type(exc), str(exc)
    raise AssertionError("numpy reads this input")


def parity_pool() -> list[np.ndarray]:
    """Random forms and family forms in random frames, and the pure TMSV at
    r = 4.5 in random frames, which some decisions reject."""
    rng = np.random.default_rng(41)
    out = [in_random_frame(random_standard_form(rng), rng) for _ in range(24)]
    for nbar1, nbar2, r in ((1.0, 1.0, 0.7), (0.4, 2.5, 0.9), (0.0, 0.0, 4.5)):
        sf = sts_standard_form(StsParams(nbar1, nbar2, r))
        out += [sf.to_cm().matrix] + [in_random_frame(sf, rng) for _ in range(4)]
    return out


class TestFloatValidation:
    """The two-mode functions read 4 rows of 4 real numbers as Python floats
    and leave every other input to numpy: each input raises the exception
    that the numpy reading raised, with its message, and each form of one
    matrix gives one report."""

    CALLS = (standard_form, correlation_report, max_affinity)

    @staticmethod
    def outcome(call, value):
        try:
            return call(value)
        except Exception as exc:
            return type(exc), str(exc)

    @pytest.mark.parametrize(
        "value, expected",
        [
            ([row[:3] for row in PARITY_BASE[:3]],
             (DimensionMismatchError, "covariance matrix must be 2n x 2n, got shape (3, 3)")),
            ([row + [0.0] for row in PARITY_BASE],
             (DimensionMismatchError, "covariance matrix must be 2n x 2n, got shape (4, 5)")),
            (np.eye(6).tolist(),
             (DimensionMismatchError, "standard form is defined for two modes")),
            (np.eye(6), (DimensionMismatchError, "standard form is defined for two modes")),
            (PARITY_BASE[0],
             (DimensionMismatchError, "covariance matrix must be 2n x 2n, got shape (4,)")),
            ([], (DimensionMismatchError, "covariance matrix must be 2n x 2n, got shape (0,)")),
            (np.zeros((0, 0)),
             (DimensionMismatchError, "covariance matrix must be 2n x 2n, got shape (0, 0)")),
            (with_entry(1, 1, math.nan),
             (InvalidParamsError, "covariance matrix entries must be finite")),
            (with_entry(0, 3, math.inf, mirror=True),
             (InvalidParamsError, "covariance matrix entries must be finite")),
            (np.array(with_entry(2, 1, -math.inf)),
             (InvalidParamsError, "covariance matrix entries must be finite")),
        ],
        ids=["3x3", "4x5", "6x6", "6x6 array", "1-D", "empty", "empty array", "nan",
             "inf", "-inf array"],
    )
    def test_invalid_input_raises_as_before(self, value, expected):
        for call in self.CALLS:
            assert self.outcome(call, value) == expected, call.__name__

    def test_ragged_input_raises_numpy_error(self):
        ragged = [PARITY_BASE[0], PARITY_BASE[1][:3], PARITY_BASE[2], PARITY_BASE[3]]
        for call in self.CALLS:
            assert self.outcome(call, ragged) == numpy_error(ragged), call.__name__

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_asymmetry_just_above_and_below_the_tolerance(self, monkeypatch, profile):
        monkeypatch.setenv(ENV_VAR, profile)
        atol = PROFILES[profile].sym_atol
        above, below = skewed(2.0 * atol), skewed(0.5 * atol)
        by = above[0][2] - above[2][0]
        for call in self.CALLS:
            assert self.outcome(call, above) == (
                NonSymmetricError, f"covariance matrix asymmetry {by:.3e} exceeds tolerance"
            )
            assert self.outcome(call, below) == call(np.array(below))

    @pytest.mark.parametrize(
        "value",
        [
            [[repr(x) for x in row] for row in PARITY_BASE],
            [[2, 0, True, 0], [0, 2, 0, False], [True, 0, 2, 0], [0, False, 0, 2]],
            [[np.float32(x) for x in row] for row in PARITY_BASE],
            np.array(PARITY_BASE, dtype=np.float32),
            np.array(PARITY_BASE, dtype=object),
            np_matrix(PARITY_BASE),
            CovarianceMatrix(np.array(PARITY_BASE)),
        ],
        ids=["numeric strings", "bool and int", "numpy scalars", "float32", "object array",
             "np.matrix", "CovarianceMatrix"],
    )
    def test_other_entry_types_read_as_numpy_reads_them(self, value):
        as_float = as_covariance(value).matrix
        for call in self.CALLS:
            assert self.outcome(call, value) == self.outcome(call, as_float), call.__name__

    def test_every_form_of_a_matrix_gives_one_report(self):
        for m in parity_pool():
            rows = m.tolist()
            forms = [
                rows,
                tuple(map(tuple, rows)),
                CovarianceMatrix(m),
                m.copy(order="F"),
            ]
            expected = self.outcome(correlation_report, m)
            for form in forms:
                assert self.outcome(correlation_report, form) == expected
