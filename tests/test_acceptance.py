"""Acceptance criteria, one test per criterion at its stated tolerance.

The random two-mode suite (500 seeded standard forms, diagonal strengths
in [1/2, 5], cross terms filtered for physicality) is shared by the
closed-form-vs-brute-force, route-equivalence and stationarity criteria.
Those criteria and the trace-distance sandwich run the checks of
``ghk.checks`` that ``ghk verify`` runs, and assert their tolerances here.
"""

import math
import time

import numpy as np
import pytest

from ghk import (
    CovarianceMatrix,
    GaussianState,
    StandardForm,
    StsParams,
    affinity,
    classical_correlations,
    closest_product_state,
    entanglement_of_formation_symmetric,
    entropic_discord,
    fock_affinity_diagonal,
    fock_sqrt_trace_diagonal,
    hellinger_discord,
    hellinger_discord_sts,
    mutual_information,
    mts_standard_form,
    purity,
    random_standard_form,
    random_symplectic,
    sts_standard_form,
    tensor,
    thermal_state,
    trace_of_sqrt,
    vacuum_state,
)
from ghk import checks
from ghk.states import MtsParams

SUITE_SIZE = 500


@pytest.fixture(scope="module")
def random_suite():
    rng = np.random.default_rng(20240817)
    return [random_standard_form(rng) for _ in range(SUITE_SIZE)]


def test_criterion_1_symmetric_sts_universality():
    started = time.perf_counter()
    worst = 0.0
    for nbar in (0.0, 0.5, 1.0, 5.0, 20.0):
        for r in (0.1, 0.5, 1.0, 2.0):
            value = hellinger_discord_sts(StsParams(nbar, nbar, r))
            worst = max(worst, abs(value - math.tanh(r) ** 2))
    elapsed = time.perf_counter() - started
    assert worst <= 1e-10
    assert elapsed < 1.0
    print(f"PASS criterion 1: symmetric-STS discord = tanh^2(r), "
          f"max |dev| {worst:.2e}, {elapsed:.3f}s")


@pytest.mark.slow
def test_criterion_2_closed_form_vs_brute_force(random_suite):
    started = time.perf_counter()
    below, above = checks.closed_form_vs_oracle(
        random_suite, np.random.default_rng(99)
    )
    worst_below = below.worst  # closed form above oracle (oracle missed)
    worst_above = above.worst  # oracle above closed form (closed form not maximal)
    elapsed = time.perf_counter() - started
    assert worst_below <= 1e-5
    assert worst_above <= 1e-7
    assert elapsed < 300.0
    print(f"PASS criterion 2: oracle within [-1e-5, +1e-7] of closed form on "
          f"{SUITE_SIZE} states (below {worst_below:.2e}, above {worst_above:.2e}, "
          f"{elapsed:.1f}s)")


def test_criterion_3_route_equivalence(random_suite):
    worst_routes = checks.route_equivalence(random_suite).worst
    worst_sqrt = checks.square_root_routes(random_suite).worst
    assert worst_routes <= 1e-8
    assert worst_sqrt <= 1e-8
    print(f"PASS criterion 3: affinity routes rel dev {worst_routes:.2e}; "
          f"square-root forms rel dev {worst_sqrt:.2e}")


def test_criterion_4_stationarity_residual(random_suite):
    worst = checks.stationarity(random_suite).worst
    assert worst <= 1e-9
    print(f"PASS criterion 4: optimality-condition residual max {worst:.2e}")


def test_criterion_5_spectral_cross_checks():
    # trace of the square root, closed form vs photon-number sum
    gauss = trace_of_sqrt(thermal_state([1.0]))
    fock = fock_sqrt_trace_diagonal(1.0)
    assert abs(gauss - (1.0 + math.sqrt(2.0))) <= 1e-9
    assert abs(fock - (1.0 + math.sqrt(2.0))) <= 1e-9
    # vacuum-vs-thermal affinity via both routes
    a_gauss = affinity(vacuum_state(1), thermal_state([1.0])).value
    a_fock = fock_affinity_diagonal(0.0, 1.0)
    assert abs(a_gauss - 1.0 / math.sqrt(2.0)) <= 1e-6
    assert abs(a_fock - 1.0 / math.sqrt(2.0)) <= 1e-6
    # trace-distance sandwich across the thermal grid
    assert checks.trace_distance_sandwich().worst <= 1e-9
    print("PASS criterion 5: spectral cross-checks (trace of sqrt, affinity, "
          "trace-distance sandwich)")


def test_criterion_6_figure_shapes():
    # strongly asymmetric squeezed thermal sweep: strictly increasing in r
    values = [
        hellinger_discord_sts(StsParams(0.0, 20.0, r))
        for r in np.linspace(0.05, 3.0, 60)
    ]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert all(0.0 < v < 1.0 for v in values)

    # fixed purity b^2 - c^2 = 6.25: per-measure ordering between families
    bs = np.linspace(2.51, 6.49, 40)
    prev = {}
    for b in bs:
        c = math.sqrt(b * b - 6.25)
        per_family = {}
        for name, sign in (("sts", -1.0), ("mts", 1.0)):
            cm = StandardForm(b, b, c, sign * c).to_cm()
            measures = (
                hellinger_discord(cm),
                entropic_discord(cm),
                mutual_information(cm),
            )
            assert measures[2] >= measures[1] - 1e-12  # mutual >= entropic
            if name in prev:
                assert all(
                    now > before for now, before in zip(measures, prev[name])
                )
            per_family[name] = measures
            prev[name] = measures
        assert all(
            mts_val >= sts_val - 1e-12
            for mts_val, sts_val in zip(per_family["mts"], per_family["sts"])
        )
        plus = classical_correlations(StandardForm(b, b, c, c).to_cm())
        minus = classical_correlations(StandardForm(b, b, c, -c).to_cm())
        assert plus == pytest.approx(minus, rel=1e-10, abs=1e-12)

    # entanglement threshold at b = 6.5 on the same family; discords smooth
    bs = np.linspace(2.51, 9.0, 66)
    eofs, hds, eds = [], [], []
    for b in bs:
        c = math.sqrt(b * b - 6.25)
        eofs.append(entanglement_of_formation_symmetric(b, c))
        cm = StandardForm(b, b, c, -c).to_cm()
        hds.append(hellinger_discord(cm))
        eds.append(entropic_discord(cm))
    for b, eof in zip(bs, eofs):
        assert (eof == 0.0) if b <= 6.5 else (eof > 0.0)
    entangled = [e for b, e in zip(bs, eofs) if b > 6.5]
    assert all(y > x for x, y in zip(entangled, entangled[1:]))
    for series in (hds, eds):
        assert all(y > x for x, y in zip(series, series[1:]))
        steps = np.diff(series)
        assert np.max(steps) < 10 * np.median(steps)  # no jump at the threshold
    print("PASS criterion 6: figure sweeps (monotone, ordered, threshold at "
          "b = 6.5, discords smooth across it)")


def test_criterion_7_zero_discord_characterization():
    rng = np.random.default_rng(4096)
    for _ in range(40):
        b1, b2 = rng.uniform(0.55, 5.0, 2)
        assert hellinger_discord(StandardForm(b1, b2, 0.0, 0.0).to_cm()) <= 1e-12
        scale = rng.uniform(0.5, 2.0)
        scaled = StandardForm(b1, b2, 0.0, 0.0, s1=scale, s2=1.0 / scale)
        assert hellinger_discord(scaled.to_cm()) <= 1e-12
        eps = 10.0 ** rng.uniform(-4.0, -2.0)
        for c_eps, d_eps in ((eps, 0.0), (eps, eps / 2), (eps, -eps)):
            perturbed = StandardForm(b1, b2, c_eps, d_eps)
            assert hellinger_discord(perturbed.to_cm()) > 1e-12
    print("PASS criterion 7: discord vanishes exactly iff c = d = 0")


def test_criterion_8_affinity_property_suite():
    rng = np.random.default_rng(777)

    def random_state():
        return GaussianState(
            rng.normal(0.0, 1.0, 4), random_standard_form(rng).to_cm()
        )

    for _ in range(200):
        s1, s2 = random_state(), random_state()
        a12 = affinity(s1, s2).value
        # symmetry
        assert abs(a12 - affinity(s2, s1).value) <= 1e-12
        # unit bound, equality only at equality
        assert 0.0 < a12 <= 1.0
        assert affinity(s1, s1).value == pytest.approx(1.0, abs=1e-12)
        if (
            np.max(np.abs(s1.cm.matrix - s2.cm.matrix)) > 1e-9
            or np.max(np.abs(s1.mean - s2.mean)) > 1e-9
        ):
            assert a12 < 1.0
        # invariance under a shared Gaussian unitary
        sym = random_symplectic(2, rng)
        shift = rng.normal(0.0, 1.0, 4)
        moved = [
            GaussianState(
                sym @ s.mean + shift, CovarianceMatrix(sym @ s.cm.matrix @ sym.T)
            )
            for s in (s1, s2)
        ]
        assert abs(affinity(*moved).value - a12) <= 1e-9
        # multiplicativity over direct sums
        t1 = thermal_state([rng.uniform(0.0, 2.0)])
        t2 = thermal_state([rng.uniform(0.0, 2.0)])
        lhs = affinity(tensor(s1, t1), tensor(s2, t2)).value
        rhs = a12 * affinity(t1, t2).value
        assert abs(lhs - rhs) <= 1e-10
    print("PASS criterion 8: affinity symmetry, bound, invariance, "
          "multiplicativity over 200 trials")


def test_criterion_9_closest_product_verification():
    rng = np.random.default_rng(31415)
    # purity of the returned (square-root-parameterized) product state
    for _ in range(60):
        sf = random_standard_form(rng)
        closest = closest_product_state(sf.to_cm())
        kt1, kt2 = (k + math.sqrt(k * k - 0.25) for k in sf.spectrum())
        assert purity(closest.params.state()) == pytest.approx(
            1.0 / (4.0 * kt1 * kt2), abs=1e-9
        )
    # matched cross-correlations at unit scale: thermal closest product
    matched = [
        sts_standard_form(StsParams(rng.uniform(0, 3), rng.uniform(0, 3), rng.uniform(0, 1.2)))
        for _ in range(10)
    ] + [
        mts_standard_form(
            MtsParams(0.5 + abs(k1 - k2), 0.5, rng.uniform(0.1, 3.0))
        )
        for k1, k2 in rng.uniform(0.5, 3.0, (10, 2))
    ]
    for sf in matched:
        closest = closest_product_state(sf.to_cm())
        assert closest.params.r1 == pytest.approx(0.0, abs=1e-9)
        assert closest.params.r2 == pytest.approx(0.0, abs=1e-9)
    print("PASS criterion 9: closest-product purity matches the square-root "
          "state; |d| = c optima carry no squeezing")
