"""Closest product state, discord closed forms, entropic measures."""

import dataclasses
import itertools
import math

import mpmath
import numpy as np
import pytest
from family_reference import family_reference

from ghk import (
    CorrelationReport,
    CovarianceMatrix,
    DimensionMismatchError,
    GhkError,
    GaussianState,
    InvalidParamsError,
    MtsParams,
    NotPhysicalError,
    OutOfFamilyError,
    ProductStateParams,
    StandardForm,
    StsParams,
    affinity,
    affinity_from_sqrt_cms,
    classical_correlations,
    closest_product_state,
    correlation_report,
    entanglement_of_formation_symmetric,
    entropic_discord,
    entropic_h,
    gaussian_overlap_trace,
    hellinger_discord,
    hellinger_discord_mts,
    hellinger_discord_sts,
    hellinger_discord_symmetric,
    max_affinity,
    max_affinity_via_invariants,
    mts_standard_form,
    mutual_information,
    purity,
    random_standard_form,
    simon_separable,
    square_root_standard_form,
    stationarity_residual,
    sts_separability_threshold,
    sts_standard_form,
    sts_state,
    mts_state,
    symplectic_eigenvalues,
    thermal_state,
)


def tmsv_form(r):
    b = 0.5 * math.cosh(2 * r)
    c = 0.5 * math.sinh(2 * r)
    return StandardForm(b, b, c, -c)


class TestMaxAffinity:
    def test_product_state(self):
        assert max_affinity(np.diag([1.5, 1.5, 0.7, 0.7])) == 1.0

    def test_symmetric_mode_mixed(self):
        cm = StandardForm(1.5, 1.5, 1.0, 1.0).to_cm()
        assert max_affinity(cm) == pytest.approx(2.0 / (math.sqrt(3.0) + 1.0), rel=1e-12)

    def test_two_mode_squeezed_vacuum(self):
        for r in (0.3, 0.8, 1.5):
            cm = tmsv_form(r).to_cm()
            assert max_affinity(cm) == pytest.approx(1.0 / math.cosh(r) ** 2, rel=1e-9)

    def test_route_equivalence_random(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            cm = random_standard_form(rng).to_cm()
            a = max_affinity(cm)
            b = max_affinity_via_invariants(cm)
            assert b == pytest.approx(a, rel=1e-8)

    def test_invariant_route_pure_fallback(self):
        # the pure-state limit 1/(sqrt(b1 b2) + 1/2), not the closed form
        for r in (0.8, 3.0):
            cm = tmsv_form(r).to_cm()
            assert max_affinity_via_invariants(cm) == pytest.approx(
                1.0 / math.cosh(r) ** 2, rel=1e-14, abs=0.0
            )


class TestClosestProductState:
    def test_product_input_returns_sqrt_marginals(self):
        closest = closest_product_state(np.diag([1.5, 1.5, 0.7, 0.7]))
        assert closest.max_affinity == 1.0
        kt1 = 1.5 + math.sqrt(1.5**2 - 0.25)
        kt2 = 0.7 + math.sqrt(0.7**2 - 0.25)
        assert closest.params.eta1 == pytest.approx(kt1, rel=1e-10)
        assert closest.params.eta2 == pytest.approx(kt2, rel=1e-10)
        assert closest.params.r1 == pytest.approx(0.0, abs=1e-12)
        assert closest.params.r2 == pytest.approx(0.0, abs=1e-12)

    def test_matched_cross_terms_give_thermal_product(self):
        # |d| = c and unit scales: no squeezing in the optimum
        for sf in (
            sts_standard_form(StsParams(1.0, 2.0, 0.8)),
            mts_standard_form(MtsParams(2.5, 0.5, 1.2)),
        ):
            closest = closest_product_state(sf.to_cm())
            assert closest.params.r1 == pytest.approx(0.0, abs=1e-10)
            assert closest.params.r2 == pytest.approx(0.0, abs=1e-10)

    def test_pure_input_gives_pure_product(self):
        closest = closest_product_state(tmsv_form(0.8).to_cm())
        assert closest.params.eta1 == pytest.approx(0.5, abs=1e-9)
        assert closest.params.eta2 == pytest.approx(0.5, abs=1e-9)
        assert closest.max_affinity == pytest.approx(1.0 / math.cosh(0.8) ** 2, rel=1e-9)

    def test_reported_affinity_is_attained(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            cm = random_standard_form(rng).to_cm()
            closest = closest_product_state(cm)
            state = GaussianState(np.zeros(4), cm)
            attained = affinity(state, closest.product_state()).value
            assert attained == pytest.approx(closest.max_affinity, abs=1e-8)

    def test_attained_in_rotated_and_scaled_frames(self):
        # the optimum must live in the caller's frame, not the reduced one
        rng = np.random.default_rng(23)
        from ghk import CovarianceMatrix, random_symplectic

        for _ in range(20):
            sf = random_standard_form(rng)
            local = np.zeros((4, 4))
            for offset, angle, scale in (
                (0, rng.uniform(0, 2 * math.pi), rng.uniform(0.6, 1.8)),
                (2, rng.uniform(0, 2 * math.pi), rng.uniform(0.6, 1.8)),
            ):
                rot = np.array(
                    [
                        [math.cos(angle), math.sin(angle)],
                        [-math.sin(angle), math.cos(angle)],
                    ]
                )
                sq = np.diag([scale, 1.0 / scale])
                local[offset : offset + 2, offset : offset + 2] = sq @ rot
            moved = CovarianceMatrix(local @ sf.to_cm().matrix @ local.T)
            closest = closest_product_state(moved)
            state = GaussianState(np.zeros(4), moved)
            attained = affinity(state, closest.product_state()).value
            assert attained == pytest.approx(closest.max_affinity, abs=1e-8)
            assert closest.max_affinity == pytest.approx(max_affinity(moved), abs=1e-10)

    def test_sqrt_state_purity_matches_input_sqrt_purity(self):
        rng = np.random.default_rng(24)
        for _ in range(30):
            sf = random_standard_form(rng)
            closest = closest_product_state(sf.to_cm())
            kt = [
                k + math.sqrt(k * k - 0.25) for k in sf.spectrum()
            ]
            expected = 1.0 / (4.0 * kt[0] * kt[1])
            assert purity(closest.params.state()) == pytest.approx(expected, abs=1e-9)

    def test_scaled_matched_cross_terms_track_the_scale(self):
        # scaled |d| = c input: optimal squeeze log s / 2 per mode
        base = sts_standard_form(StsParams(0.7, 1.4, 0.6))
        scaled = StandardForm(base.b1, base.b2, base.c, base.d, s1=1.9, s2=0.8)
        closest = closest_product_state(scaled.to_cm())
        assert closest.params.r1 == pytest.approx(0.5 * math.log(1.9), abs=1e-9)
        assert closest.params.r2 == pytest.approx(0.5 * math.log(0.8), abs=1e-9)
        state = GaussianState(np.zeros(4), scaled.to_cm())
        attained = affinity(state, closest.product_state()).value
        assert attained == pytest.approx(closest.max_affinity, abs=1e-8)

    def test_displacement_copied(self):
        mean = np.array([0.3, -1.0, 2.0, 0.1])
        closest = closest_product_state(tmsv_form(0.5).to_cm(), mean)
        np.testing.assert_allclose(closest.product_state().mean, mean)

    def test_default_results_share_one_read_only_mean(self):
        cm = sts_standard_form(StsParams(0.4, 2.5, 0.9)).to_cm()
        first = closest_product_state(cm)
        second = closest_product_state(tmsv_form(0.9).to_cm())
        assert first.params.mean is second.params.mean
        assert not first.params.mean.flags.writeable
        assert first.params.mean.tolist() == [0.0] * 4
        with pytest.raises(ValueError):
            first.params.mean[0] = 1.0
        # an explicit mean is checked into an array of its own
        explicit = closest_product_state(cm, [0.0] * 4)
        assert explicit.params.mean is not first.params.mean
        assert explicit.params.mean.tolist() == [0.0] * 4
        shifted = dataclasses.replace(first.params, mean=[1.0, 0.0, 0.0, 0.0])
        assert shifted.mean.tolist() == [1.0, 0.0, 0.0, 0.0]
        assert first.params.mean.tolist() == [0.0] * 4
        state = first.product_state()
        assert state.mean.tolist() == [0.0] * 4
        np.testing.assert_array_equal(state.cm.matrix, explicit.product_state().cm.matrix)

    def test_classes_that_hold_arrays_compare_by_value(self):
        # distinct arrays of equal entries: == is a bool, and False where
        # one entry, one parameter or one shape differs
        cm = sts_standard_form(StsParams(0.4, 2.5, 0.9)).to_cm()
        params = dict(eta1=1.2, eta2=0.9, r1=0.1, r2=-0.3, mean=[0, 0, 0, 0])
        shifted = np.array([[0.0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1e-3]])
        pairs = [
            (lambda: CovarianceMatrix(np.eye(4)), lambda: CovarianceMatrix(np.eye(4) * 2),
             lambda: CovarianceMatrix(np.eye(6))),
            (lambda: GaussianState(np.zeros(4), cm.matrix.copy()),
             lambda: GaussianState([0, 0, 0, 1.0], cm.matrix.copy()),
             lambda: GaussianState(np.zeros(4), cm.matrix + shifted)),
            (lambda: ProductStateParams(**params),
             lambda: ProductStateParams(**{**params, "mean": [0, 0, 1, 0]}),
             lambda: ProductStateParams(**{**params, "r2": 0.3})),
            (lambda: closest_product_state(cm.matrix.copy(), [0, 0, 0, 0]),
             lambda: closest_product_state(cm.matrix.copy(), [0, 1, 0, 0]),
             lambda: closest_product_state(tmsv_form(0.9).to_cm().matrix.copy())),
        ]
        for make, *others in pairs:
            first, second = make(), make()
            assert first is not second
            assert (first == second) is True and (first != second) is False
            for other in others:
                assert (first == other()) is False and (first != other()) is True
            assert first != "not a state"

    def test_matrix_is_checked_before_the_mean(self):
        bad_mean = np.zeros(3)
        m = tmsv_form(0.5).to_cm().matrix.copy()
        with pytest.raises(DimensionMismatchError, match="mean"):
            closest_product_state(m, bad_mean)
        m[0, 2] = m[2, 0] = math.nan
        with pytest.raises(InvalidParamsError):
            closest_product_state(m, bad_mean)
        with pytest.raises(DimensionMismatchError, match="two modes"):
            closest_product_state(thermal_state([1.0, 2.0, 3.0]).cm, bad_mean)

    @pytest.mark.parametrize(
        "mean, error",
        [
            ([math.nan, 0.0, 0.0, 0.0], InvalidParamsError),
            ([0.0, 0.0, -math.inf, 0.0], InvalidParamsError),
            ([0.0, 0.0, 0.0], DimensionMismatchError),
        ],
    )
    def test_every_mean_taker_raises_one_error_per_defect(self, mean, error):
        # a non-finite mean is an invalid value, a wrong length a wrong shape
        cm = tmsv_form(0.5).to_cm()
        for call in (correlation_report, closest_product_state):
            with pytest.raises(error, match="mean"):
                call(cm, mean)
        with pytest.raises(error, match="mean"):
            GaussianState(mean, cm)
        # the displacement takers
        for call in (gaussian_overlap_trace, affinity_from_sqrt_cms):
            with pytest.raises(error, match="displacement"):
                call(cm, cm, mean)


class TestStationarity:
    def test_residual_small_on_random_states(self):
        rng = np.random.default_rng(25)
        for _ in range(200):
            cm = random_standard_form(rng).to_cm()
            assert stationarity_residual(cm) <= 1e-9


class TestHellingerDiscord:
    def test_product_state_is_exactly_zero(self):
        assert hellinger_discord(np.diag([1.5, 1.5, 0.7, 0.7])) == 0.0

    def test_symmetric_sts_universality(self):
        for nbar in (0.0, 0.5, 1.0, 5.0, 20.0):
            for r in (0.1, 0.5, 1.0, 2.0):
                cm = sts_state(StsParams(nbar, nbar, r)).cm
                assert hellinger_discord(cm) == pytest.approx(
                    math.tanh(r) ** 2, abs=1e-9
                )

    def test_symmetric_mode_mixed_value(self):
        cm = StandardForm(1.5, 1.5, 1.0, 1.0).to_cm()
        assert hellinger_discord(cm) == pytest.approx(2.0 - math.sqrt(3.0), rel=1e-12)

    def test_local_squeeze_invariance(self):
        rng = np.random.default_rng(26)
        for _ in range(40):
            sf = random_standard_form(rng)
            base = hellinger_discord(sf.to_cm())
            scaled = StandardForm(
                sf.b1, sf.b2, sf.c, sf.d,
                s1=rng.uniform(0.4, 2.5), s2=rng.uniform(0.4, 2.5),
            )
            assert hellinger_discord(scaled.to_cm()) == pytest.approx(base, abs=1e-10)

    def test_zero_iff_uncorrelated(self):
        rng = np.random.default_rng(27)
        for _ in range(20):
            b1, b2 = rng.uniform(0.6, 4.0, 2)
            assert hellinger_discord(StandardForm(b1, b2, 0.0, 0.0).to_cm()) == 0.0
            eps = 1e-4
            perturbed = StandardForm(b1, b2, eps, 0.0)
            assert hellinger_discord(perturbed.to_cm()) > 1e-12

    @pytest.mark.parametrize("r", [1e-2, 1e-4, 1e-6, 1e-8, 1e-10])
    def test_small_discord_keeps_relative_accuracy(self, r):
        # at nbar1 = nbar2 = 1 the discord is tanh^2 r on every route
        with mpmath.workdps(50):
            exact = float(mpmath.tanh(mpmath.mpf(r)) ** 2)
        p = StsParams(1.0, 1.0, r)
        sf = sts_standard_form(p)
        values = {
            "matrix report": correlation_report(sf.to_cm()).hellinger_discord,
            "matrix": hellinger_discord(sf.to_cm()),
            "standard form": correlation_report(sf).hellinger_discord,
            "family": hellinger_discord_sts(p),
        }
        for route, value in values.items():
            assert value == pytest.approx(exact, rel=1e-13, abs=0.0), route


class TestSymmetricFormula:
    def test_uncorrelated(self):
        assert hellinger_discord_symmetric(1.7, 0.0, 0.0) == 0.0

    def test_pure_squeezed_vacuum(self):
        r = 0.94
        sf = tmsv_form(r)
        assert hellinger_discord_symmetric(sf.b1, sf.c, sf.d) == pytest.approx(
            math.tanh(r) ** 2, rel=1e-10
        )

    @pytest.mark.parametrize("r", [1e-2, 1e-4, 1e-6, 1e-8])
    def test_small_squeeze_keeps_relative_accuracy(self, r):
        sf = sts_standard_form(StsParams(1.0, 1.0, r))
        assert hellinger_discord_symmetric(sf.b1, sf.c, sf.d) == pytest.approx(
            math.tanh(r) ** 2, rel=1e-14, abs=0.0
        )

    def test_agrees_with_general_route(self):
        rng = np.random.default_rng(28)
        count = 0
        while count < 120:
            b = rng.uniform(0.55, 5.0)
            c = rng.uniform(0.0, 0.98 * b)
            d = rng.uniform(-c, c)
            sf = StandardForm(b, b, c, d)
            if sf.spectrum()[1] < 0.5 + 1e-6:
                continue
            count += 1
            general = hellinger_discord(sf.to_cm())
            symmetric = hellinger_discord_symmetric(b, c, d)
            assert symmetric == pytest.approx(general, abs=1e-10)

    def test_matched_cross_reduction(self):
        # |d| = c reduces to the two-parameter form in the sqrt entries
        from ghk import square_root_standard_form

        rng = np.random.default_rng(29)
        for _ in range(40):
            b = rng.uniform(0.55, 4.0)
            c = rng.uniform(0.0, 0.9 * math.sqrt(max(b * b - 0.25, 1e-6)))
            for sign in (-1.0, 1.0):
                sf = StandardForm(b, b, c, sign * c)
                if sf.spectrum()[1] < 0.5 + 1e-6:
                    continue
                tsf = square_root_standard_form(sf)
                bb = tsf.b1 * tsf.b2
                root = math.sqrt(bb - tsf.c * tsf.c)
                reduced = (math.sqrt(bb) - root) / (math.sqrt(bb) + root)
                assert hellinger_discord_symmetric(b, c, sign * c) == pytest.approx(
                    reduced, abs=1e-10
                )

    def test_rejects_unphysical(self):
        with pytest.raises(NotPhysicalError):
            hellinger_discord_symmetric(0.6, 0.59, -0.59)


class TestStsFormula:
    def test_zero_squeeze(self):
        assert hellinger_discord_sts(StsParams(1.0, 2.0, 0.0)) == 0.0

    def test_equal_occupancy_value(self):
        assert hellinger_discord_sts(StsParams(3.0, 3.0, 1.0)) == pytest.approx(
            math.tanh(1.0) ** 2, rel=1e-12
        )

    def test_agrees_with_general_route(self):
        rng = np.random.default_rng(30)
        for _ in range(60):
            p = StsParams(rng.uniform(0, 4), rng.uniform(0, 4), rng.uniform(0, 1.6))
            direct = hellinger_discord_sts(p)
            general = hellinger_discord(sts_state(p).cm)
            assert direct == pytest.approx(general, abs=1e-9)

    def test_single_minimal_eigenvalue_form(self):
        # kappa2 = 1/2: discord = (sqrt((nbar+1) sinh^2(2r) + 1) - 1) /
        #                          (sqrt((nbar+1) sinh^2(2r) + 1) + 1)
        for nbar1, r in [(0.5, 0.3), (2.0, 0.9), (7.0, 1.4)]:
            t = math.sqrt((nbar1 + 1.0) * math.sinh(2 * r) ** 2 + 1.0)
            expected = (t - 1.0) / (t + 1.0)
            assert hellinger_discord_sts(StsParams(nbar1, 0.0, r)) == pytest.approx(
                expected, rel=1e-12
            )

    def test_monotone_in_squeeze(self):
        values = [
            hellinger_discord_sts(StsParams(0.0, 20.0, r))
            for r in np.linspace(0.01, 3.0, 40)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] < 1.0


class TestMtsFormula:
    def test_zero_angle(self):
        assert hellinger_discord_mts(MtsParams(2.5, 0.5, 0.0)) == 0.0

    def test_balanced_example(self):
        assert hellinger_discord_mts(MtsParams(2.5, 0.5, math.pi / 2)) == pytest.approx(
            2.0 - math.sqrt(3.0), rel=1e-12
        )

    def test_equal_eigenvalues_always_zero(self):
        for theta in (0.2, 1.0, 2.5):
            assert hellinger_discord_mts(MtsParams(1.7, 1.7, theta)) == 0.0

    def test_agrees_with_general_route(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            k2 = rng.uniform(0.5, 3.0)
            k1 = k2 + rng.uniform(1e-3, 3.0)
            p = MtsParams(k1, k2, rng.uniform(0.0, math.pi))
            direct = hellinger_discord_mts(p)
            general = hellinger_discord(mts_state(p).cm)
            assert direct == pytest.approx(general, abs=1e-9)


STS_GRID_NBAR = (0.0, 1e-6, 1e-3, 0.3, 1.0, 5.0, 20.0, 1e4, 1e8)
STS_GRID_R = (1e-10, 1e-6, 1e-3, 0.1, 0.5, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0)
MTS_GRID_KAPPA2 = (0.5, 0.5 + 1e-6, 0.5 + 1e-3, 0.8, 1.5, 10.0, 1e4)
MTS_GRID_SPLIT = (1e-8, 1e-3, 0.5, 3.0, 100.0, 1e6)
MTS_GRID_THETA = (1e-8, 1e-3, 0.3, math.pi / 2, 2.5, math.pi - 1e-6)


def paper_discord(k1, k2, angle, sts):
    """The paper's (Z - 1)/(sqrt(Z) + 1)^2 in mpmath, Z = X (``sts``, squeeze
    ``angle``) or Y (co-latitude ``angle``): the discord of the 50-digit
    family reference."""
    return family_reference(sts, k1, k2, angle)["hellinger_discord"]


class TestFamilyAccuracy:
    """Both family discords against 50-digit mpmath on their float
    parameters, from near-pure modes to nbar = 1e8 and kappa1 - kappa2 down
    to 1e-8, where the discord falls to 1e-26."""

    def test_squeezed_thermal(self):
        worst = 0.0
        with mpmath.workdps(50):
            for nbar1 in STS_GRID_NBAR:
                for nbar2 in STS_GRID_NBAR:
                    for r in STS_GRID_R:
                        value = hellinger_discord_sts(StsParams(nbar1, nbar2, r))
                        exact = paper_discord(
                            mpmath.mpf(nbar1) + 0.5, mpmath.mpf(nbar2) + 0.5, r, sts=True
                        )
                        assert value >= 0.0, (nbar1, nbar2, r)
                        worst = max(worst, float(abs(value - exact) / exact))
        assert worst <= 1e-14

    def test_mode_mixed_thermal(self):
        worst = 0.0
        with mpmath.workdps(50):
            for kappa2 in MTS_GRID_KAPPA2:
                for split in MTS_GRID_SPLIT:
                    for theta in MTS_GRID_THETA:
                        kappa1 = kappa2 + split
                        value = hellinger_discord_mts(MtsParams(kappa1, kappa2, theta))
                        exact = paper_discord(kappa1, kappa2, theta, sts=False)
                        assert value >= 0.0, (kappa1, kappa2, theta)
                        worst = max(worst, float(abs(value - exact) / exact))
        assert worst <= 1e-14

    @pytest.mark.parametrize("nbar, r", [(1e8, 170.0), (0.0, 180.0)])
    def test_squeezed_thermal_past_the_square_overflow(self, nbar, r):
        # b1 b2 of the square root overflows here: the entries are scaled
        value = hellinger_discord_sts(StsParams(nbar, nbar, r))
        with mpmath.workdps(50):
            k = mpmath.mpf(nbar) + 0.5
            exact = paper_discord(k, k, r, sts=True)
        assert float(abs(value - exact) / exact) <= 1e-14

    def test_mode_mixed_past_the_square_overflow(self):
        kappa1, kappa2, theta = 1e154, 0.6, math.pi / 2
        value = hellinger_discord_mts(MtsParams(kappa1, kappa2, theta))
        with mpmath.workdps(50):
            exact = paper_discord(kappa1, kappa2, theta, sts=False)
        assert float(abs(value - exact) / exact) <= 1e-14

    @pytest.mark.parametrize(
        "params",
        [MtsParams(1e200, 0.5, 1.0), MtsParams(1e300, 1e299, 0.3), StsParams(1e250, 1e250, 0.5)],
    )
    def test_past_the_radicand_overflow(self, params):
        # kappa (kappa + 1) overflows past kappa = 1.3e154: the radical
        # sqrt(kappa^2 - 1/4) of the square root must not
        if isinstance(params, StsParams):
            value = hellinger_discord_sts(params)
            k1, k2, angle, sts = params.nbar1 + 0.5, params.nbar2 + 0.5, params.r, True
        else:
            value = hellinger_discord_mts(params)
            k1, k2, angle, sts = params.kappa1, params.kappa2, params.theta, False
        with mpmath.workdps(50):
            exact = paper_discord(k1, k2, angle, sts=sts)
        assert float(abs(value - exact) / exact) <= 1e-15

    @pytest.mark.parametrize("r", [400.0, 800.0])
    def test_an_overflowing_square_root_form_raises(self, r):
        # cosh(r)^2 overflows at r = 400, cosh(r) itself at r = 800
        with pytest.raises(InvalidParamsError):
            hellinger_discord_sts(StsParams(0.0, 0.0, r))
        with pytest.raises(InvalidParamsError):
            sts_standard_form(StsParams(0.0, 0.0, r))


AUDIT_STS = [
    StsParams(nbar1, nbar2, r)
    for nbar1 in (0.0, 1e-6, 0.3, 1.0, 5.0, 1e4, 1e8)
    for nbar2 in dict.fromkeys((nbar1, 0.0, 1.0, 1e8))
    for r in (1e-10, 1e-5, 0.01, 0.5, 2.0, 5.0, 9.5, 12.0)
]
AUDIT_MTS = [
    MtsParams(kappa2 + split, kappa2, theta)
    for kappa2 in (0.5, 0.5 + 1e-6, 1.0, 1e4)
    for split in (0.0, 1e-6, 1.0, 1e4)
    for theta in (1e-8, 0.3, math.pi / 2, 3.0)
]


def family_case(p):
    """(form, discord function value, reference) of a family state."""
    if isinstance(p, StsParams):
        with mpmath.workdps(50):
            k1, k2 = mpmath.mpf(p.nbar1) + 0.5, mpmath.mpf(p.nbar2) + 0.5
        ref = family_reference(True, k1, k2, p.r)
        return sts_standard_form(p), hellinger_discord_sts(p), ref
    ref = family_reference(False, p.kappa1, p.kappa2, p.theta)
    return mts_standard_form(p), hellinger_discord_mts(p), ref


class TestFamilyReports:
    """The report of a family form reads the family's exact spectrum, gaps
    and square root: no family state is rejected, and every field matches
    the 50-digit reference from the parameters."""

    # relative tolerance per field where the reference is at least 1e-3;
    # the mutual information of weakly correlated states loses a few digits
    # to h(b1) + h(b2) - h(k1) - h(k2) cancelling
    RTOL = {
        "hellinger_discord": 1e-13,
        "pt_spectrum": 1e-12,
        "eof": 1e-12,
        "mutual_information": 2e-12,
        "entropic_discord": 1e-9,
        "classical_correlations": 1e-9,
    }

    @pytest.mark.parametrize("family", ["sts", "mts"])
    def test_fields_against_the_reference(self, family):
        for p in AUDIT_STS if family == "sts" else AUDIT_MTS:
            sf, discord, ref = family_case(p)
            report = correlation_report(sf)
            assert report.symplectic_spectrum == tuple(map(float, ref["symplectic_spectrum"]))
            assert report.hellinger_discord == discord
            assert report.separable == ref["separable"], p
            for name, rtol in self.RTOL.items():
                values, exact = getattr(report, name), ref[name]
                assert (values is None) == (exact is None), (p, name)
                if exact is None:
                    continue
                if name != "pt_spectrum":
                    values, exact = [values], [exact]
                for value, x in zip(values, exact):
                    if x == 0:
                        assert value == 0.0, (p, name)
                    elif abs(x) >= 1e-3:
                        assert abs(value - x) <= rtol * abs(x), (p, name, value)

    def test_a_nearly_pure_y_keeps_its_entropy(self):
        # y - 1/2 = 4.1e-10 at r = 12 and both modes 5e-10 or 1e-10 above 1/2
        # at the others are below phys_tol, but a family's y and spectrum
        # are exact, so neither h(y) = 9.3e-9 nor h(k) is cut to 0
        for p in (StsParams(5.0, 5.0, 12.0), StsParams(5e-10, 5e-10, 1.0),
                  StsParams(1e-10, 1e-10, 1.0)):
            sf, _, ref = family_case(p)
            report = correlation_report(sf)
            for name in ("entropic_discord", "classical_correlations", "mutual_information"):
                value, exact = getattr(report, name), ref[name]
                assert abs(value - exact) <= 1e-13 * abs(exact), (p, name)

    def test_square_root_form_is_the_family_at_kt(self):
        p = StsParams(0.0, 0.0, 12.0)
        tsf = square_root_standard_form(sts_standard_form(p))
        # both modes are pure, so kt = k and the root is the state itself
        assert tsf == sts_standard_form(p)
        assert correlation_report(tsf).hellinger_discord == hellinger_discord_sts(p)
        tsf = square_root_standard_form(mts_standard_form(MtsParams(3.0, 1.0, 0.8)))
        kt = tuple(k + math.sqrt(k * k - 0.25) for k in (3.0, 1.0))
        assert tsf.spectrum() == pytest.approx(kt, rel=1e-15, abs=0.0)

    def test_no_field_is_infinite_or_nan(self):
        # past the audit grid: occupancies to 1e300 and squeezes to 355.5,
        # where cosh(r)^2 overflows; a report is finite or raises
        nbars = (0.0, 1e-6, 1.0, 1e8, 1e100, 1e200, 1e300)
        kappas = (0.5, 0.5 + 1e-9, 1.0, 1e8, 1e100, 1e200, 1e300, 1.7e308)
        cases = [
            (sts_standard_form, StsParams(n1, n2, r))
            for n1 in nbars
            for n2 in nbars
            for r in (0.0, 1e-10, 1.0, 10.0, 170.0, 300.0, 355.3, 355.5)
        ] + [
            (mts_standard_form, MtsParams(k1, k2, theta))
            for k1 in kappas
            for k2 in kappas
            if k1 >= k2
            for theta in (0.0, 1e-8, 1.0, math.pi / 2, math.pi)
        ]
        finite = 0
        for build, p in cases:
            try:
                sf = build(p)
                report = correlation_report(sf)
                tsf = square_root_standard_form(sf)
            except InvalidParamsError:
                continue
            values = [
                report.hellinger_discord,
                report.mutual_information,
                *report.symplectic_spectrum,
                *report.pt_spectrum,
                max_affinity(sf),
                tsf.b1,
                tsf.b2,
                tsf.c,
            ]
            values += [
                x
                for x in (report.entropic_discord, report.classical_correlations, report.eof)
                if x is not None
            ]
            assert all(map(math.isfinite, values)), p
            finite += 1
        assert finite >= 300

    def test_a_given_form_is_finite_or_raises(self):
        # forms spanning the float range, as far as 1e300 between b1 and b2
        sizes = (0.5, 1.0, 1e50, 1e100, 1e154, 1e200, 1e300, 1.7e308)
        finite = 0
        for b1, b2 in itertools.product(sizes, sizes):
            for share in (0.0, 1e-20, 0.5, 0.999):
                c = share * math.sqrt(b1) * math.sqrt(b2)
                for d in (c, -c, 0.0):
                    sf = StandardForm(b1, b2, c, d)
                    for call in (correlation_report, max_affinity, square_root_standard_form):
                        try:
                            out = call(sf)
                        except GhkError:
                            continue
                        if isinstance(out, CorrelationReport):
                            out = [*out.symplectic_spectrum, *out.pt_spectrum, out.eof or 0.0,
                                   out.hellinger_discord, out.mutual_information]
                        elif isinstance(out, StandardForm):
                            out = [out.b1, out.b2, out.c, out.d]
                        assert all(map(math.isfinite, np.atleast_1d(out))), (sf, call)
                        finite += 1
        assert finite >= 500

    @pytest.mark.parametrize("b", [1e14, 1e16, 1e100])
    def test_a_product_is_decided_at_every_scale(self, b):
        # (b, b, b/2, -b/2) is the same correlated state at every scale
        base = correlation_report(StandardForm(1e13, 1e13, 5e12, -5e12))
        report = correlation_report(StandardForm(b, b, b / 2, -b / 2))
        for name in ("hellinger_discord", "mutual_information"):
            value, expected = getattr(report, name), getattr(base, name)
            assert value == pytest.approx(expected, rel=1e-12, abs=0.0), name
        assert hellinger_discord_symmetric(b, b / 2, -b / 2) == pytest.approx(
            base.hellinger_discord, rel=1e-12, abs=0.0
        )


class TestSimonSeparability:
    def test_mode_mixed_always_separable(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            k2 = rng.uniform(0.5, 3.0)
            k1 = k2 + rng.uniform(0.0, 3.0)
            p = MtsParams(k1, k2, rng.uniform(0.0, math.pi))
            assert simon_separable(mts_state(p).cm)

    def test_squeezed_vacuum_entangled(self):
        assert not simon_separable(tmsv_form(0.2).to_cm())

    def test_threshold_consistency(self):
        p0 = StsParams(1.0, 1.0, 0.1)
        r_s = sts_separability_threshold(p0)
        below = sts_state(StsParams(1.0, 1.0, r_s - 1e-3)).cm
        above = sts_state(StsParams(1.0, 1.0, r_s + 1e-3)).cm
        assert simon_separable(below)
        assert not simon_separable(above)

    def test_product_separable(self):
        assert simon_separable(thermal_state([1.0, 2.0]).cm)

    def test_small_pt_eigenvalue_keeps_relative_accuracy(self):
        # the partial transpose of (b, b, c, -c) has spectrum (b + c, |b - c|)
        rng = np.random.default_rng(33)
        for _ in range(300):
            nbar, r = rng.uniform(0.0, 5.0), rng.uniform(0.0, 3.0)
            sf = sts_standard_form(StsParams(nbar, nbar, r))
            exact = abs(mpmath.mpf(sf.b1) - mpmath.mpf(sf.c))
            small = sf.partial_transpose().spectrum()[1]
            assert abs(small - exact) <= 1e-11 * exact
            # the family report reads the exact gap, k e^{-2r}
            exact = (nbar + 0.5) * mpmath.exp(-2 * mpmath.mpf(r))
            value = correlation_report(sf).pt_spectrum[1]
            assert abs(value - exact) <= 1e-12 * exact


class TestEntropicMeasures:
    def test_uncorrelated_zero(self):
        cm = StandardForm(1.3, 1.3, 0.0, 0.0).to_cm()
        assert entropic_discord(cm) == 0.0
        assert classical_correlations(cm) == 0.0
        assert mutual_information(cm) == 0.0

    def test_out_of_family_rejected(self):
        with pytest.raises(OutOfFamilyError):
            entropic_discord(StandardForm(1.5, 1.2, 0.3, -0.3).to_cm())
        with pytest.raises(OutOfFamilyError):
            classical_correlations(StandardForm(1.5, 1.5, 0.6, -0.3).to_cm())

    def test_two_mode_squeezed_vacuum(self):
        r = 0.75
        sf = tmsv_form(r)
        cm = sf.to_cm()
        # pure state: y = 1/2 and both kappas are 1/2
        assert entropic_discord(cm) == pytest.approx(entropic_h(sf.b1), rel=1e-9)
        assert mutual_information(cm) == pytest.approx(2 * entropic_h(sf.b1), rel=1e-9)
        assert classical_correlations(cm) == pytest.approx(
            entropic_h(sf.b1), rel=1e-9
        )

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 3.0])
    def test_pure_tmsv_measures_against_mpmath(self, r):
        # both kappas and y are 1/2, so every measure is h(b), the mutual
        # information twice over; their round-off must not be amplified
        report = correlation_report(sts_standard_form(StsParams(0.0, 0.0, r)))
        with mpmath.workdps(50):
            b = mpmath.cosh(2 * mpmath.mpf(r)) / 2
            h_b = float((b + 0.5) * mpmath.log(b + 0.5) - (b - 0.5) * mpmath.log(b - 0.5))
        measures = (
            report.mutual_information / 2,
            report.entropic_discord,
            report.classical_correlations,
            report.eof,
        )
        for value in measures:
            assert value == pytest.approx(h_b, rel=1e-12)

    def test_fixed_purity_boundary_point(self):
        # b = 2.5 on the b^2 - c^2 = 6.25 family forces c = 0
        cm = StandardForm(2.5, 2.5, 0.0, 0.0).to_cm()
        assert entropic_discord(cm) == 0.0

    def test_classical_correlations_sign_of_d_independent(self):
        rng = np.random.default_rng(33)
        for _ in range(30):
            b = rng.uniform(0.55, 5.0)
            c = rng.uniform(0.0, 0.9 * math.sqrt(max(b * b - 0.25, 1e-6)))
            plus = StandardForm(b, b, c, c)
            minus = StandardForm(b, b, c, -c)
            if min(plus.spectrum()[1], minus.spectrum()[1]) < 0.5 + 1e-6:
                continue
            assert classical_correlations(plus.to_cm()) == pytest.approx(
                classical_correlations(minus.to_cm()), rel=1e-10, abs=1e-12
            )

    def test_decomposition_identity(self):
        rng = np.random.default_rng(34)
        for _ in range(30):
            b = rng.uniform(0.55, 4.0)
            c = rng.uniform(0.0, 0.9 * math.sqrt(max(b * b - 0.25, 1e-6)))
            sf = StandardForm(b, b, c, -c)
            if sf.spectrum()[1] < 0.5 + 1e-6:
                continue
            cm = sf.to_cm()
            assert classical_correlations(cm) == pytest.approx(
                mutual_information(cm) - entropic_discord(cm), abs=1e-10
            )

    def test_mutual_information_general_states(self):
        cm = StandardForm(1.5, 1.5, 1.0, 1.0).to_cm()
        expected = 2 * entropic_h(1.5) - entropic_h(2.5)
        assert mutual_information(cm) == pytest.approx(expected, rel=1e-10)


class TestEntanglementOfFormation:
    def test_boundary(self):
        # b - c = 1/2 sits exactly on the separability threshold
        assert entanglement_of_formation_symmetric(6.5, 6.0) == 0.0

    def test_separable_region_zero(self):
        for b in (2.5, 3.0, 5.0, 6.5):
            c = math.sqrt(b * b - 6.25)
            assert entanglement_of_formation_symmetric(b, c) == 0.0

    def test_entangled_region_positive_and_increasing(self):
        values = []
        for b in np.linspace(6.6, 12.0, 12):
            c = math.sqrt(b * b - 6.25)
            values.append(entanglement_of_formation_symmetric(b, c))
        assert all(v > 0 for v in values)
        assert all(y > x for x, y in zip(values, values[1:]))

    def test_pure_state_equals_marginal_entropy(self):
        for r in (0.4, 1.0, 1.7):
            sf = tmsv_form(r)
            assert entanglement_of_formation_symmetric(sf.b1, sf.c) == pytest.approx(
                entropic_h(sf.b1), rel=1e-10
            )


class TestCorrelationReport:
    def test_product_thermal(self):
        report = correlation_report(thermal_state([1.0, 1.0]).cm)
        assert report.hellinger_discord == 0.0
        assert report.mutual_information == 0.0
        assert report.entropic_discord == 0.0
        assert report.classical_correlations == 0.0
        assert report.eof == 0.0
        assert report.separable

    def test_entangled_symmetric_sts(self):
        b = 7.0
        c = math.sqrt(b * b - 6.25)
        report = correlation_report(StandardForm(b, b, c, -c).to_cm())
        assert not report.separable
        assert report.eof > 0
        assert report.hellinger_discord > 0
        assert report.entropic_discord > 0
        assert report.pt_spectrum[1] < 0.5

    def test_mode_mixed_partner_dominates_separable_sts(self):
        b = 4.0
        c = math.sqrt(b * b - 6.25)
        sts = correlation_report(StandardForm(b, b, c, -c).to_cm())
        mts = correlation_report(StandardForm(b, b, c, c).to_cm())
        assert sts.separable and mts.separable
        assert mts.hellinger_discord > sts.hellinger_discord
        assert mts.entropic_discord > sts.entropic_discord
        assert mts.eof == 0.0

    def test_asymmetric_state_marks_entropic_unavailable(self):
        report = correlation_report(StandardForm(1.5, 1.2, 0.3, -0.2).to_cm())
        assert report.entropic_discord is None
        assert report.classical_correlations is None
        assert report.hellinger_discord > 0
        assert report.mutual_information > 0

    def test_asymmetric_separable_gets_zero_eof(self):
        report = correlation_report(StandardForm(1.5, 1.2, 0.1, -0.05).to_cm())
        assert report.separable
        assert report.eof == 0.0

    def test_asymmetric_entangled_eof_unavailable(self):
        p = StsParams(1.0, 2.0, 1.4)
        assert sts_separability_threshold(p) < 1.4
        report = correlation_report(sts_state(p).cm)
        assert not report.separable
        assert report.eof is None

    def test_spectra_reported(self):
        cm = StandardForm(1.5, 1.5, 1.0, 1.0).to_cm()
        report = correlation_report(cm)
        np.testing.assert_allclose(report.symplectic_spectrum, (2.5, 0.5), rtol=1e-9)
        np.testing.assert_allclose(
            report.pt_spectrum,
            (math.sqrt(1.25), math.sqrt(1.25)),
            rtol=1e-9,
        )


class TestFigureShapes:
    def test_fixed_purity_orderings(self):
        bs = np.linspace(2.51, 6.49, 25)
        prev = {}
        for b in bs:
            c = math.sqrt(b * b - 6.25)
            for name, sign in (("sts", -1.0), ("mts", 1.0)):
                cm = StandardForm(b, b, c, sign * c).to_cm()
                hd = hellinger_discord(cm)
                ent = entropic_discord(cm)
                mi = mutual_information(cm)
                assert mi >= ent - 1e-12
                if name in prev:
                    assert hd > prev[name][0]
                    assert ent > prev[name][1]
                    assert mi > prev[name][2]
                prev[name] = (hd, ent, mi)
            # the mode-mixed partner dominates measure by measure
            sts_cm = StandardForm(b, b, c, -c).to_cm()
            mts_cm = StandardForm(b, b, c, c).to_cm()
            assert hellinger_discord(mts_cm) >= hellinger_discord(sts_cm) - 1e-12
            assert entropic_discord(mts_cm) >= entropic_discord(sts_cm) - 1e-12
            assert mutual_information(mts_cm) >= mutual_information(sts_cm) - 1e-12


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["eta1", "eta2", "r1", "r2", "phi1", "phi2"])
def test_product_state_params_reject_non_finite(field, bad):
    values = {"eta1": 1.0, "eta2": 0.7, "r1": 0.2, "r2": -0.3, "phi1": 0.4, "phi2": 1.1}
    values[field] = bad
    with pytest.raises(InvalidParamsError):
        ProductStateParams(**values)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_mean_is_rejected_when_the_params_are_built(bad):
    mean = [bad, 0.0, 0.0, 0.0]
    with pytest.raises(InvalidParamsError):
        ProductStateParams(1.0, 0.7, 0.2, -0.3, mean=mean)
    with pytest.raises(InvalidParamsError):
        closest_product_state(tmsv_form(0.5).to_cm(), mean)
