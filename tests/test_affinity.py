"""Overlap trace, affinity, Hellinger distance; photon-number cross-checks."""

import math

import numpy as np
import pytest

from ghk import (
    CovarianceMatrix,
    DimensionMismatchError,
    GaussianState,
    InvalidParamsError,
    affinity,
    affinity_from_sqrt_cms,
    fock_affinity_diagonal,
    fock_product_trace_diagonal,
    fock_sqrt_trace_diagonal,
    fock_trace_distance_diagonal,
    gaussian_overlap_trace,
    hellinger_distance,
    random_standard_form,
    random_symplectic,
    square_root_cm,
    tensor,
    thermal_state,
    trace_of_sqrt,
    vacuum_state,
)

RNG = np.random.default_rng(123)


def random_state(rng, displaced=True):
    mean = rng.normal(0.0, 1.0, 4) if displaced else np.zeros(4)
    return GaussianState(mean, random_standard_form(rng).to_cm())


class TestOverlapTrace:
    def test_vacuum_self_overlap(self):
        value = gaussian_overlap_trace(0.5 * np.eye(2), 0.5 * np.eye(2), np.zeros(2))
        assert value == pytest.approx(1.0, rel=1e-14, abs=0.0)

    def test_displacement_factor(self):
        # dv = (2, 0) against V1 + V2 = I: exponent -dv.dv/2 = -2; equals the
        # photon-number value |<0|D|0>|^2 = e^{-|alpha|^2} with |alpha|^2 = 2
        value = gaussian_overlap_trace(0.5 * np.eye(2), 0.5 * np.eye(2), [2.0, 0.0])
        assert value == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_matches_photon_number_sum_for_thermals(self):
        for nb1, nb2 in [(0.0, 1.0), (1.0, 2.0), (2.5, 0.5), (0.3, 4.0)]:
            gauss = gaussian_overlap_trace(
                (nb1 + 0.5) * np.eye(2), (nb2 + 0.5) * np.eye(2), np.zeros(2)
            )
            fock = fock_product_trace_diagonal(nb1, nb2)
            assert gauss == pytest.approx(fock, abs=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            gaussian_overlap_trace(0.5 * np.eye(2), 0.5 * np.eye(4), np.zeros(2))
        with pytest.raises(DimensionMismatchError):
            gaussian_overlap_trace(0.5 * np.eye(2), 0.5 * np.eye(2), np.zeros(4))


class TestTraceOfSqrt:
    def test_pure(self):
        assert trace_of_sqrt(vacuum_state(1)) == pytest.approx(1.0, rel=1e-12)
        assert trace_of_sqrt(vacuum_state(3)) == pytest.approx(1.0, rel=1e-12)

    def test_thermal_reference_value(self):
        assert trace_of_sqrt(thermal_state([1.0])) == pytest.approx(
            1.0 + math.sqrt(2.0), rel=1e-12
        )

    def test_two_mode_multiplicativity(self):
        assert trace_of_sqrt(thermal_state([1.0, 1.0])) == pytest.approx(
            (1.0 + math.sqrt(2.0)) ** 2, rel=1e-12
        )

    def test_matches_photon_number_sum(self):
        for nb in [0.0, 0.5, 1.0, 3.0, 10.0]:
            gauss = trace_of_sqrt(thermal_state([nb]))
            fock = fock_sqrt_trace_diagonal(nb)
            assert gauss == pytest.approx(fock, abs=1e-6)

    def test_exceeds_one_iff_mixed(self):
        assert trace_of_sqrt(thermal_state([0.2])) > 1.0


class TestAffinity:
    def test_identical_states(self):
        state = thermal_state([1.3, 0.4])
        assert affinity(state, state).value == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_vs_thermal(self):
        result = affinity(vacuum_state(1), thermal_state([1.0]))
        assert result.value == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-9)
        assert result.log_value == pytest.approx(-0.5 * math.log(2.0), abs=1e-9)

    def test_displaced_vacuum(self):
        # pure states are projectors, so the affinity is Tr(rho sigma) =
        # |<0|D|0>|^2 = e^{-2} for a position displacement of 2
        displaced = GaussianState([2.0, 0.0], 0.5 * np.eye(2))
        assert affinity(vacuum_state(1), displaced).value == pytest.approx(
            math.exp(-2.0), rel=1e-12
        )

    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            s1, s2 = random_state(rng), random_state(rng)
            assert abs(affinity(s1, s2).value - affinity(s2, s1).value) <= 1e-12

    def test_bounded_and_unity_iff_equal(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            s1, s2 = random_state(rng), random_state(rng)
            value = affinity(s1, s2).value
            assert 0.0 < value <= 1.0
            different = (
                np.max(np.abs(s1.cm.matrix - s2.cm.matrix)) > 1e-9
                or np.max(np.abs(s1.mean - s2.mean)) > 1e-9
            )
            if different:
                assert value < 1.0

    def test_gaussian_unitary_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            s1, s2 = random_state(rng), random_state(rng)
            base = affinity(s1, s2).value
            sym = random_symplectic(2, rng)
            shift = rng.normal(0.0, 1.0, 4)
            moved = [
                GaussianState(
                    sym @ s.mean + shift,
                    CovarianceMatrix(sym @ s.cm.matrix @ sym.T),
                )
                for s in (s1, s2)
            ]
            assert affinity(*moved).value == pytest.approx(base, abs=1e-9)

    def test_multiplicative_over_direct_sums(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            a, c = random_state(rng), random_state(rng)
            b, d = thermal_state([rng.uniform(0, 2)]), thermal_state([rng.uniform(0, 2)])
            left = affinity(tensor(a, b), tensor(c, d)).value
            right = affinity(a, c).value * affinity(b, d).value
            assert left == pytest.approx(right, abs=1e-10)

    def test_commuting_saturation_on_thermals(self):
        # diagonal states commute; affinity equals the classical overlap
        cases = [(0.0, 1.0), (1.0, 2.0), (0.5, 4.0), (3.0, 3.0)]
        for nb1, nb2 in cases:
            gauss = affinity(thermal_state([nb1]), thermal_state([nb2])).value
            fock = fock_affinity_diagonal(nb1, nb2)
            assert gauss == pytest.approx(fock, abs=1e-6)

    def test_trace_distance_sandwich_on_thermals(self):
        for nb1 in [0.0, 0.3, 1.0, 3.0, 10.0]:
            for nb2 in [0.0, 0.3, 1.0, 3.0, 10.0]:
                a = affinity(thermal_state([nb1]), thermal_state([nb2])).value
                t = fock_trace_distance_diagonal(nb1, nb2)
                assert 1.0 - a <= t + 1e-9
                assert t <= math.sqrt(1.0 - a * a) + 1e-9

    def test_from_sqrt_cms_consistent(self):
        rng = np.random.default_rng(9)
        s1, s2 = random_state(rng), random_state(rng)
        direct = affinity(s1, s2)
        via_cms = affinity_from_sqrt_cms(
            square_root_cm(s1.cm), square_root_cm(s2.cm), s1.mean - s2.mean
        )
        assert via_cms.value == pytest.approx(direct.value, rel=1e-14)

    def test_mode_count_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            affinity(vacuum_state(1), vacuum_state(2))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_displacement_that_is_not_finite_is_rejected(bad):
    # as a mean that is not finite is, by GaussianState
    v = vacuum_state(2).cm
    dv = [bad, 0.0, 0.0, 0.0]
    with pytest.raises(InvalidParamsError):
        affinity_from_sqrt_cms(v, v, dv)
    with pytest.raises(InvalidParamsError):
        gaussian_overlap_trace(v, v, dv)


class TestHellingerDistance:
    def test_identical(self):
        state = thermal_state([0.7])
        assert hellinger_distance(state, state) == pytest.approx(0.0, abs=1e-7)

    def test_vacuum_vs_thermal(self):
        value = hellinger_distance(vacuum_state(1), thermal_state([1.0]))
        assert value == pytest.approx(math.sqrt(2.0 - math.sqrt(2.0)), abs=1e-9)

    def test_orthogonal_limit(self):
        previous = 0.0
        for nb in [1.0, 10.0, 100.0, 1000.0]:
            value = hellinger_distance(vacuum_state(1), thermal_state([nb]))
            assert value > previous
            previous = value
        assert previous < math.sqrt(2.0)
        assert previous > math.sqrt(2.0) - 0.05
