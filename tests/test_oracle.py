"""Brute-force product-state search and photon-number oracles."""

import math

import numpy as np
import pytest

from ghk import (
    FockOracleConfig,
    InvalidParamsError,
    MtsParams,
    NotConvergedError,
    OptimizerConfig,
    StandardForm,
    StsParams,
    TruncationInsufficientError,
    fock_affinity_diagonal,
    fock_thermal_spectrum,
    fock_trace_distance_diagonal,
    max_affinity,
    mts_standard_form,
    oracle_max_affinity,
    random_standard_form,
    sts_standard_form,
    verify_phi_zero,
)
from ghk import oracle as oracle_module
from ghk.oracle import _nelder_mead


def tmsv_form(r):
    b = 0.5 * math.cosh(2 * r)
    c = 0.5 * math.sinh(2 * r)
    return StandardForm(b, b, c, -c)


FAST = OptimizerConfig(starts=8)


def scalar_nelder_mead(fn, x0, steps, max_iters, xtol, ftol):
    """Reference: one plain simplex search on python floats."""
    dim = len(x0)
    points = [list(x0)]
    for i in range(dim):
        p = list(x0)
        p[i] += steps[i]
        points.append(p)
    values = [fn(p) for p in points]
    for _ in range(max_iters):
        order = sorted(range(dim + 1), key=values.__getitem__)
        points = [points[i] for i in order]
        values = [values[i] for i in order]
        if values[-1] - values[0] < ftol:
            spread = max(
                max(abs(p[i] - points[0][i]) for p in points) for i in range(dim)
            )
            if spread < xtol:
                break
        centroid = [sum(p[i] for p in points[:-1]) / dim for i in range(dim)]
        worst = points[-1]
        reflected = [2.0 * centroid[i] - worst[i] for i in range(dim)]
        f_r = fn(reflected)
        if values[0] <= f_r < values[-2]:
            points[-1], values[-1] = reflected, f_r
            continue
        if f_r < values[0]:
            expanded = [
                centroid[i] + 2.0 * (reflected[i] - centroid[i]) for i in range(dim)
            ]
            f_e = fn(expanded)
            if f_e < f_r:
                points[-1], values[-1] = expanded, f_e
            else:
                points[-1], values[-1] = reflected, f_r
            continue
        if f_r < values[-1]:
            contracted = [
                centroid[i] + 0.5 * (reflected[i] - centroid[i]) for i in range(dim)
            ]
        else:
            contracted = [
                centroid[i] + 0.5 * (worst[i] - centroid[i]) for i in range(dim)
            ]
        f_c = fn(contracted)
        if f_c < min(f_r, values[-1]):
            points[-1], values[-1] = contracted, f_c
            continue
        best = points[0]
        points = [best] + [
            [best[i] + 0.5 * (p[i] - best[i]) for i in range(dim)] for p in points[1:]
        ]
        values = [values[0]] + [fn(p) for p in points[1:]]
    order = sorted(range(dim + 1), key=values.__getitem__)
    return values[order[0]], points[order[0]]


def rosenbrock(x):
    """Rosenbrock's valley; works on python floats and on numpy columns."""
    a = 1.0 - x[0]
    b = x[1] - x[0] * x[0]
    return a * a + 100.0 * (b * b)


def quartic(x):
    """A polynomial in three variables with a tilted, anisotropic bowl."""
    u = x[0] - 1.0
    w = x[1] + 0.5 * x[0]
    z = x[2] - 2.0
    return u * u * (u * u) + 3.0 * (w * w) + 0.25 * (z * z) + 0.5 * (u * z)


def lockstep(fn):
    """Lift a scalar expression in x[0], x[1], ... to the batched form."""
    return lambda points: fn(points.T)


class TestNelderMead:
    def test_quadratic_bowl(self):
        def bowl(x):
            return (x[0] - 1.0) ** 2 + 3.0 * (x[1] + 2.0) ** 2 + 0.5

        values, points = _nelder_mead(
            lockstep(bowl), [[4.0, 4.0], [-3.0, 1.0]], [0.5, 0.5],
            max_iters=500, xtol=1e-10, ftol=1e-14,
        )
        for value, point in zip(values, points):
            assert value == pytest.approx(0.5, abs=1e-10)
            assert point[0] == pytest.approx(1.0, abs=1e-5)
            assert point[1] == pytest.approx(-2.0, abs=1e-5)

    def test_rosenbrock_progress(self):
        values, _ = _nelder_mead(
            lockstep(rosenbrock), [[-1.0, 1.0]], [0.4, 0.4],
            max_iters=4000, xtol=1e-11, ftol=1e-15,
        )
        assert values[0] < 1e-9

    @pytest.mark.parametrize(
        "fn, dim, max_iters",
        [(rosenbrock, 2, 60), (rosenbrock, 2, 3000), (quartic, 3, 130)],
    )
    def test_lanes_match_scalar_reference(self, fn, dim, max_iters):
        # +, -, * and / round identically on python floats and numpy
        # arrays, so every lane must reproduce the scalar search bit for bit,
        # whether it converges early, late, or hits the iteration cap.
        x0 = np.random.default_rng(5).uniform(-2.0, 2.0, (7, dim))
        steps = [0.3, 0.6, 0.45][:dim]
        values, points = _nelder_mead(
            lockstep(fn), x0, steps, max_iters, xtol=1e-9, ftol=1e-12
        )
        for start, value, point in zip(x0, values, points):
            ref_value, ref_point = scalar_nelder_mead(
                fn, start.tolist(), steps, max_iters, 1e-9, 1e-12
            )
            assert value == ref_value
            assert point.tolist() == ref_point


class TestOracleMaxAffinity:
    def test_product_input(self):
        value, params = oracle_max_affinity(
            np.diag([1.5, 1.5, 0.7, 0.7]), FAST, np.random.default_rng(1)
        )
        assert value == pytest.approx(1.0, abs=1e-9)
        kt1 = 1.5 + math.sqrt(2.0)
        kt2 = 0.7 + math.sqrt(0.7**2 - 0.25)
        got = sorted([params.eta1, params.eta2], reverse=True)
        assert got[0] == pytest.approx(kt1, abs=1e-4)
        assert got[1] == pytest.approx(kt2, abs=1e-4)

    def test_symmetric_mode_mixed(self):
        cm = StandardForm(1.5, 1.5, 1.0, 1.0).to_cm()
        value, params = oracle_max_affinity(cm, FAST, np.random.default_rng(2))
        assert value == pytest.approx(2.0 / (math.sqrt(3.0) + 1.0), abs=1e-7)
        assert abs(params.r1) < 1e-4 and abs(params.r2) < 1e-4

    def test_two_mode_squeezed_vacuum(self):
        cm = tmsv_form(0.8).to_cm()
        value, params = oracle_max_affinity(cm, FAST, np.random.default_rng(3))
        assert value == pytest.approx(1.0 / math.cosh(0.8) ** 2, abs=1e-7)
        assert params.eta1 == pytest.approx(0.5, abs=1e-4)
        assert params.eta2 == pytest.approx(0.5, abs=1e-4)

    def test_never_beats_closed_form_and_recovers_it(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            sf = random_standard_form(rng)
            cm = sf.to_cm()
            closed = max_affinity(cm)
            value, params = oracle_max_affinity(cm, FAST, rng)
            assert value <= closed + 1e-7
            assert value >= closed - 1e-5
            # optimal eta product equals the sqrt-spectrum product
            kt = [k + math.sqrt(k * k - 0.25) for k in sf.spectrum()]
            assert params.eta1 * params.eta2 == pytest.approx(
                kt[0] * kt[1], abs=1e-4, rel=1e-4
            )

    def test_disagreeing_starts_raise(self):
        # one simplex step per start leaves the best two starts far apart
        cm = StandardForm(2.0, 1.5, 1.0, -0.5).to_cm()
        with pytest.raises(NotConvergedError):
            oracle_max_affinity(cm, OptimizerConfig(starts=4, max_iters=1))

    def test_rng_draws_two_etas_then_four_coordinates_per_start(self, monkeypatch):
        seen = []

        def recording(fn, x0, *args):
            seen.append(x0.copy())
            return _nelder_mead(fn, x0, *args)

        monkeypatch.setattr(oracle_module, "_nelder_mead", recording)
        cfg = OptimizerConfig(starts=5, max_iters=20, eta_bounds=(0.6, 4.0))
        cm = StandardForm(2.0, 1.5, 1.0, -0.5).to_cm()
        rng = np.random.default_rng(13)
        try:
            oracle_max_affinity(cm, cfg, rng)
        except NotConvergedError:
            pass  # the draws, not the search, are under test
        twin = np.random.default_rng(13)
        expected = []
        for _ in range(cfg.starts):
            etas = twin.uniform(0.6, 4.0, 2)
            expected.append(
                [math.log(eta - 0.5 + oracle_module._ETA_EPS) for eta in etas]
                + [twin.uniform(*cfg.r_bounds) for _ in range(2)]
                + [twin.uniform(*cfg.phi_bounds) for _ in range(2)]
            )
        assert seen[0].tolist() == expected
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_deterministic_given_rng(self):
        cm = sts_standard_form(StsParams(1.0, 2.0, 0.7)).to_cm()
        a, _ = oracle_max_affinity(cm, FAST, np.random.default_rng(7))
        b, _ = oracle_max_affinity(cm, FAST, np.random.default_rng(7))
        assert a == b


class TestVerifyPhiZero:
    def test_squeezed_thermal(self):
        cm = sts_standard_form(StsParams(0.5, 1.5, 0.9)).to_cm()
        assert verify_phi_zero(cm, FAST, np.random.default_rng(8))

    def test_mode_mixed(self):
        cm = mts_standard_form(MtsParams(2.0, 0.7, 1.1)).to_cm()
        assert verify_phi_zero(cm, FAST, np.random.default_rng(9))

    def test_product_vacuously_true(self):
        assert verify_phi_zero(
            np.diag([1.2, 1.2, 0.8, 0.8]), FAST, np.random.default_rng(10)
        )

    def test_generic_asymmetric_state(self):
        cm = StandardForm(2.0, 1.2, 0.8, -0.3).to_cm()
        assert verify_phi_zero(cm, FAST, np.random.default_rng(11))


class TestFockThermalSpectrum:
    def test_vacuum(self):
        p = fock_thermal_spectrum(0.0)
        assert p[0] == 1.0
        assert np.all(p[1:] == 0.0)

    def test_unit_occupancy_geometric(self):
        p = fock_thermal_spectrum(1.0)
        np.testing.assert_allclose(p[:4], [0.5, 0.25, 0.125, 0.0625], rtol=1e-14)

    def test_tail_certified(self):
        cfg = FockOracleConfig(truncation=400, tail_bound=1e-30)
        p = fock_thermal_spectrum(5.0, cfg)
        tail = (5.0 / 6.0) ** len(p)
        assert tail < 1e-30
        # analytic tail certified; the sum check is limited by float addition
        assert np.sum(p) == pytest.approx(1.0, abs=1e-13)

    def test_truncation_escalates(self):
        cfg = FockOracleConfig(truncation=4, tail_bound=1e-12)
        p = fock_thermal_spectrum(10.0, cfg)
        assert len(p) > 5
        assert np.sum(p) == pytest.approx(1.0, abs=1e-11)

    def test_truncation_insufficient(self):
        cfg = FockOracleConfig(truncation=4, tail_bound=1e-300)
        with pytest.raises(TruncationInsufficientError):
            fock_thermal_spectrum(50.0, cfg)

    def test_rejects_negative(self):
        from ghk import NegativeOccupancyError

        with pytest.raises(NegativeOccupancyError):
            fock_thermal_spectrum(-1.0)


class TestFockAffinity:
    def test_equal_inputs(self):
        assert fock_affinity_diagonal(1.3, 1.3) == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_vs_unit(self):
        assert fock_affinity_diagonal(0.0, 1.0) == pytest.approx(
            1.0 / math.sqrt(2.0), abs=1e-12
        )

    def test_closed_geometric_sum(self):
        # sum_n sqrt(p_n q_n) = sqrt(p_0 q_0) / (1 - sqrt(ratio1 ratio2))
        expected = math.sqrt(0.5 * (1.0 / 3.0)) / (
            1.0 - math.sqrt(0.5 * (2.0 / 3.0))
        )
        assert fock_affinity_diagonal(1.0, 2.0) == pytest.approx(expected, rel=1e-12)


class TestFockTraceDistance:
    def test_equal_inputs(self):
        assert fock_trace_distance_diagonal(2.0, 2.0) == 0.0

    def test_vacuum_vs_unit(self):
        assert fock_trace_distance_diagonal(0.0, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_sandwich(self):
        a = fock_affinity_diagonal(1.0, 2.0)
        t = fock_trace_distance_diagonal(1.0, 2.0)
        assert 1.0 - a <= t <= math.sqrt(1.0 - a * a)


class TestConfigs:
    def test_bad_optimizer_config(self):
        with pytest.raises(InvalidParamsError):
            OptimizerConfig(starts=0)

    def test_bad_fock_config(self):
        with pytest.raises(InvalidParamsError):
            FockOracleConfig(truncation=0)
        with pytest.raises(InvalidParamsError):
            FockOracleConfig(tail_bound=2.0)
