"""State families, entropies, purity, separability threshold."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghk import (
    GaussianState,
    InvalidParamsError,
    MtsParams,
    NegativeOccupancyError,
    NotPhysicalError,
    StsParams,
    entropic_h,
    mts_standard_form,
    mts_state,
    purity,
    sts_separability_threshold,
    sts_standard_form,
    sts_state,
    symplectic_eigenvalues,
    tensor,
    thermal_state,
    vacuum_state,
    von_neumann_entropy,
)


class TestThermalState:
    def test_vacuum(self):
        state = thermal_state([0.0])
        np.testing.assert_allclose(state.cm.matrix, 0.5 * np.eye(2))
        np.testing.assert_allclose(state.mean, 0.0)

    def test_two_mode(self):
        state = thermal_state([1.0, 2.0])
        np.testing.assert_allclose(state.cm.matrix, np.diag([1.5, 1.5, 2.5, 2.5]))

    def test_half_occupancy(self):
        state = thermal_state([0.5])
        np.testing.assert_allclose(state.cm.matrix, np.diag([1.0, 1.0]))

    def test_rejects_negative(self):
        with pytest.raises(NegativeOccupancyError):
            thermal_state([-0.1])


class TestStsState:
    def test_zero_squeeze_is_thermal_product(self):
        state = sts_state(StsParams(nbar1=1.0, nbar2=2.0, r=0.0))
        np.testing.assert_allclose(state.cm.matrix, np.diag([1.5, 1.5, 2.5, 2.5]))

    def test_two_mode_squeezed_vacuum_is_pure(self):
        # zero occupancies: b = cosh(2r)/2, c = sinh(2r)/2, b^2 - c^2 = 1/4
        r = 0.9
        sf = sts_standard_form(StsParams(0.0, 0.0, r))
        assert sf.b1 == pytest.approx(0.5 * math.cosh(2 * r), rel=1e-12)
        assert sf.c == pytest.approx(0.5 * math.sinh(2 * r), rel=1e-12)
        assert sf.b1**2 - sf.c**2 == pytest.approx(0.25, rel=1e-12)

    def test_mixed_example_entries_and_spectrum(self):
        p = StsParams(nbar1=1.0, nbar2=2.0, r=1.0)
        sf = sts_standard_form(p)
        ch, sh = math.cosh(1.0), math.sinh(1.0)
        assert sf.b1 == pytest.approx(1.5 * ch * ch + 2.5 * sh * sh, rel=1e-12)
        assert sf.b2 == pytest.approx(2.5 * ch * ch + 1.5 * sh * sh, rel=1e-12)
        assert sf.c == pytest.approx(4.0 * ch * sh, rel=1e-12)
        assert sf.d == -sf.c
        np.testing.assert_allclose(
            symplectic_eigenvalues(sf.to_cm()), [2.5, 1.5], rtol=1e-9
        )

    def test_cross_sign_convention(self):
        sf = sts_standard_form(StsParams(0.5, 0.5, 0.4))
        assert sf.c > 0 and sf.d == -sf.c

    def test_spectrum_closure_from_entries(self):
        # kappa = (sqrt((b1+b2)^2 - 4 c^2) +/- (b1 - b2)) / 2
        for p in [StsParams(1, 2, 1), StsParams(0.3, 4, 0.7), StsParams(2, 2, 1.5)]:
            sf = sts_standard_form(p)
            root = math.sqrt((sf.b1 + sf.b2) ** 2 - 4 * sf.c**2)
            k_first = 0.5 * (root + (sf.b1 - sf.b2))
            k_second = 0.5 * (root - (sf.b1 - sf.b2))
            assert sorted([k_first, k_second]) == pytest.approx(
                sorted([p.nbar1 + 0.5, p.nbar2 + 0.5]), rel=1e-9
            )

    def test_rejects_negative_squeeze(self):
        with pytest.raises(InvalidParamsError):
            StsParams(1.0, 1.0, -0.1)


class TestMtsState:
    def test_identity_beam_splitter(self):
        state = mts_state(MtsParams(kappa1=2.5, kappa2=0.5, theta=0.0))
        np.testing.assert_allclose(state.cm.matrix, np.diag([2.5, 2.5, 0.5, 0.5]))

    def test_balanced_example(self):
        sf = mts_standard_form(MtsParams(2.5, 0.5, math.pi / 2))
        assert (sf.b1, sf.b2, sf.c, sf.d) == pytest.approx((1.5, 1.5, 1.0, 1.0))

    def test_full_reflection_swaps_modes(self):
        sf = mts_standard_form(MtsParams(2.5, 0.5, math.pi))
        assert sf.b1 == pytest.approx(0.5, abs=1e-12)
        assert sf.b2 == pytest.approx(2.5, abs=1e-12)
        assert sf.c == pytest.approx(0.0, abs=1e-12)

    def test_spectrum_preserved(self):
        state = mts_state(MtsParams(3.1, 0.8, 1.1))
        np.testing.assert_allclose(
            symplectic_eigenvalues(state.cm), [3.1, 0.8], rtol=1e-9
        )

    def test_cross_sign_convention(self):
        sf = mts_standard_form(MtsParams(2.0, 1.0, 1.0))
        assert sf.c > 0 and sf.d == sf.c

    def test_spectrum_closure_from_entries(self):
        # kappa = (b1 + b2 +/- sqrt((b1 - b2)^2 + 4 c^2)) / 2
        for p in [MtsParams(2.5, 0.5, 1.0), MtsParams(4.0, 1.2, 2.2)]:
            sf = mts_standard_form(p)
            root = math.sqrt((sf.b1 - sf.b2) ** 2 + 4 * sf.c**2)
            assert 0.5 * (sf.b1 + sf.b2 + root) == pytest.approx(p.kappa1, rel=1e-9)
            assert 0.5 * (sf.b1 + sf.b2 - root) == pytest.approx(p.kappa2, rel=1e-9)

    def test_equal_eigenvalues_give_product(self):
        sf = mts_standard_form(MtsParams(1.5, 1.5, 1.0))
        assert sf.c == 0.0 and sf.d == 0.0

    def test_rejects_swapped_order(self):
        with pytest.raises(InvalidParamsError):
            MtsParams(0.5, 2.5, 1.0)


class TestSeparabilityThreshold:
    def test_vacuum_ancilla(self):
        assert sts_separability_threshold(StsParams(0.0, 3.0, 0.1)) == 0.0

    def test_equal_unit_occupancy(self):
        r_s = sts_separability_threshold(StsParams(1.0, 1.0, 0.1))
        assert math.sinh(r_s) ** 2 == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert r_s == pytest.approx(math.asinh(1.0 / math.sqrt(3.0)), rel=1e-12)

    def test_asymmetric(self):
        r_s = sts_separability_threshold(StsParams(1.0, 2.0, 0.1))
        assert math.sinh(r_s) ** 2 == pytest.approx(0.5, rel=1e-12)


class TestPurity:
    def test_vacuum(self):
        assert purity(vacuum_state(2)) == pytest.approx(1.0, rel=1e-12)

    def test_thermal(self):
        assert purity(thermal_state([1.0])) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_symmetric_fixed_purity_family(self):
        # b^2 - c^2 = 6.25 gives purity 1/25 for both cross-term signs
        b = 4.0
        c = math.sqrt(b * b - 6.25)
        for sign in (-1.0, 1.0):
            from ghk import StandardForm

            state = GaussianState(np.zeros(4), StandardForm(b, b, c, sign * c).to_cm())
            assert purity(state) == pytest.approx(1.0 / 25.0, rel=1e-9)


class TestEntropy:
    def test_pure_states(self):
        assert von_neumann_entropy(vacuum_state(2)) == 0.0
        # two-mode squeezed vacuum: globally pure despite thermal marginals
        assert von_neumann_entropy(sts_state(StsParams(0, 0, 1.2))) == pytest.approx(
            0.0, abs=1e-10
        )

    def test_thermal_value(self):
        assert von_neumann_entropy(thermal_state([1.0])) == pytest.approx(
            2.0 * math.log(2.0), rel=1e-12
        )

    def test_additivity(self):
        total = von_neumann_entropy(thermal_state([1.0, 2.0]))
        assert total == pytest.approx(entropic_h(1.5) + entropic_h(2.5), rel=1e-12)


class TestEntropicFunction:
    def test_boundary(self):
        assert entropic_h(0.5) == 0.0

    def test_reference_value(self):
        assert entropic_h(1.5) == pytest.approx(
            2.0 * math.log(2.0), rel=1e-14, abs=0.0
        )

    def test_rejects_below_half(self):
        with pytest.raises(InvalidParamsError):
            entropic_h(0.4)

    @settings(max_examples=80, deadline=None)
    @given(st.floats(0.5, 50.0), st.floats(1e-6, 1.0))
    def test_monotone(self, x, step):
        assert entropic_h(x + step) > entropic_h(x)

    # Near 1/2 the -(x - 1/2) ln(x - 1/2) term dominates; for large x the
    # two logarithms cancel; 1.5 is where the two branches meet.
    ACCURACY_GRID = (
        [0.5 + 10.0**-k for k in range(12, 0, -1)]
        + [1.5 - 1e-12, 1.5, 1.5 + 1e-12, 2.0, math.pi]
        + [10.0**k for k in range(1, 13)]
        + [0.5 + 2.0**-40, 0.75, 3.3e5, 7.7e9]
    )

    @pytest.mark.parametrize("x", ACCURACY_GRID)
    def test_relative_accuracy_against_mpmath(self, x):
        with mpmath.workdps(50):
            xm = mpmath.mpf(x)
            exact = (xm + 0.5) * mpmath.log(xm + 0.5) - (xm - 0.5) * mpmath.log(xm - 0.5)
            rel = abs((entropic_h(x) - exact) / exact)
        assert rel <= 1e-15


class TestGaussianState:
    def test_rejects_unphysical_cm(self):
        with pytest.raises(NotPhysicalError):
            GaussianState(np.zeros(2), 0.4 * np.eye(2))

    def test_rejects_bad_mean_length(self):
        from ghk import DimensionMismatchError

        with pytest.raises(DimensionMismatchError):
            GaussianState(np.zeros(3), 0.5 * np.eye(4))

    def test_tensor_blocks(self):
        left = thermal_state([1.0])
        right = vacuum_state(1)
        both = tensor(left, right)
        np.testing.assert_allclose(
            both.cm.matrix, np.diag([1.5, 1.5, 0.5, 0.5])
        )
        assert both.n == 2

    def test_displaced_mean_kept(self):
        state = GaussianState([2.0, 0.0], 0.5 * np.eye(2))
        np.testing.assert_allclose(state.mean, [2.0, 0.0])


NON_FINITE = (math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("field", ["nbar1", "nbar2", "r", "phi"])
def test_sts_params_reject_non_finite(field, bad):
    values = {"nbar1": 1.0, "nbar2": 0.5, "r": 0.7, "phi": 0.3}
    values[field] = bad
    with pytest.raises(InvalidParamsError):
        StsParams(**values)


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("field", ["kappa1", "kappa2", "theta", "phi"])
def test_mts_params_reject_non_finite(field, bad):
    values = {"kappa1": 2.5, "kappa2": 0.7, "theta": 1.0, "phi": 0.3}
    values[field] = bad
    with pytest.raises(InvalidParamsError):
        MtsParams(**values)
