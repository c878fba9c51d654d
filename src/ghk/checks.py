"""Second routes to the closed forms, and the checks built on them.

No reported measure goes through this module. ``ghk verify`` prints the
records of ``suites``; the acceptance tests call the same checks.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .affinity import affinity, gaussian_overlap_trace, trace_of_sqrt
from .discord import _is_uncorrelated, _optimum, max_affinity
from .errors import ConsistencyError, DimensionMismatchError, NotPhysicalError
from .oracle import (
    OptimizerConfig,
    fock_affinity_diagonal,
    fock_product_trace_diagonal,
    fock_sqrt_trace_diagonal,
    fock_trace_distance_diagonal,
    oracle_max_affinity,
)
from .sampling import random_standard_form, random_symplectic
from .states import GaussianState, thermal_state
from .symplectic import (
    StandardForm,
    SymplecticInvariants,
    as_covariance,
    det2,
    det4,
    invariants_from_spectrum,
    is_physical,
    square_root_cm,
    square_root_standard_form,
    standard_form,
    symplectic_eigenvalues,
)

# Relative tolerance demanded from the two determinant routes to the
# invariant D. A breach raises ConsistencyError: it indicates a numerically
# corrupt input rather than a user error.
DET_IDENTITY_RTOL = 1e-9

# Mean occupancies of the thermal states the photon-number checks pair up.
THERMAL_GRID = (0.0, 0.3, 1.0, 3.0, 10.0)


def max_affinity_via_invariants(V) -> float:
    """Cross-check route for ``max_affinity`` written in the input frame.

    Uses only the input standard form, the symplectic spectrum and the
    K/M invariants. Degenerates to 0/0 when both modes are pure (K = 0);
    that case takes the pure-state limit 1/(sqrt(b1 b2) + 1/2), which is
    1/cosh^2 r for the two-mode squeezed vacuum.
    """
    sf = standard_form(V)
    if _is_uncorrelated(sf):
        return 1.0
    inv = invariants_from_spectrum(sf.spectrum())
    if inv.K <= 0.0:
        return 1.0 / (math.sqrt(sf.b1 * sf.b2) + 0.5)
    bb = sf.b1 * sf.b2
    det_v = sf.cm_determinant()
    b_plus = bb * inv.K**2 + 0.25 * (sf.b1 * sf.c + sf.b2 * sf.d) ** 2
    b_minus = bb * inv.K**2 + 0.25 * (sf.b2 * sf.c + sf.b1 * sf.d) ** 2
    gc = math.sqrt(max(bb - sf.c * sf.c, 0.0))
    gd = math.sqrt(max(bb - sf.d * sf.d, 0.0))
    q = (gc + gd) ** 2 * (
        bb * (math.sqrt(inv.M1) + math.sqrt(inv.M2)) ** 2
        - 0.25 * (sf.b1 - sf.b2) ** 2
    ) - (math.sqrt(b_plus) - math.sqrt(b_minus)) ** 2
    root4 = det_v**0.25
    den = (
        inv.K**2 * math.sqrt(det_v)
        + inv.K * root4 * math.sqrt(max(q, 0.0))
        + math.sqrt(b_plus * b_minus)
    )
    return min(2.0 * inv.K * root4 / math.sqrt(den), 1.0)


def stationarity_residual(V) -> float:
    """Largest residual of the four optimality conditions at the optimum.

    The maximizer must annihilate the four products
    (bt1 st1 +/- u1)(bt2 st2 -/+ u2) - ct^2 st1 st2 and their momentum-side
    partners with dt; evaluating them is an independent certificate that the
    closed-form point is stationary.
    """
    tsf = square_root_standard_form(standard_form(V))
    eta1, eta2, e2r1, e2r2 = _optimum(tsf)
    u1, u2 = eta1 * e2r1, eta2 * e2r2
    v1, v2 = eta1 / e2r1, eta2 / e2r2
    c2 = tsf.c * tsf.c * tsf.s1 * tsf.s2
    d2 = tsf.d * tsf.d / (tsf.s1 * tsf.s2)
    residuals = (
        (tsf.b1 * tsf.s1 + u1) * (tsf.b2 * tsf.s2 - u2) - c2,
        (tsf.b1 * tsf.s1 - u1) * (tsf.b2 * tsf.s2 + u2) - c2,
        (tsf.b1 / tsf.s1 + v1) * (tsf.b2 / tsf.s2 - v2) - d2,
        (tsf.b1 / tsf.s1 - v1) * (tsf.b2 / tsf.s2 + v2) - d2,
    )
    return max(abs(r) for r in residuals)


def invariants(V) -> SymplecticInvariants:
    """Invariants of a physical two-mode CM, with a determinant cross-check.

    D is computed both as M1 M2 and as
    det V - (det A + det B + 2 det C)/4 + 1/16 from the matrix blocks; the
    two routes must agree to DET_IDENTITY_RTOL.
    """
    cov = as_covariance(V)
    if cov.n != 2:
        raise DimensionMismatchError("invariants are defined for two modes")
    if not is_physical(cov):
        raise NotPhysicalError("covariance matrix is not a physical state")
    inv = invariants_from_spectrum(symplectic_eigenvalues(cov))
    m = cov.matrix
    delta = det2(m[:2, :2]) + det2(m[2:, 2:]) + 2.0 * det2(m[:2, 2:])
    d_direct = det4(m) - 0.25 * delta + 0.0625
    if abs(d_direct - inv.D) > DET_IDENTITY_RTOL * max(1.0, abs(inv.D)):
        raise ConsistencyError(
            f"determinant routes to D disagree: {d_direct!r} vs {inv.D!r}"
        )
    return inv


def _fold_half_pi(phi: float) -> float:
    """Fold a squeeze angle into (-pi/2, pi/2] (the (r, phi) ambiguity)."""
    x = math.fmod(phi, math.pi)
    if x > math.pi / 2.0:
        x -= math.pi
    elif x <= -math.pi / 2.0:
        x += math.pi
    return x


def verify_phi_zero(
    V, cfg: OptimizerConfig | None = None, rng: np.random.Generator | None = None
) -> bool:
    """Check that the brute-force optimum needs no squeeze rotation.

    True when both optimal angles fold to within 1e-3 of zero. Angles are
    meaningless where the optimal squeezing vanishes, so |r| < 1e-4 counts
    as zero.
    """
    _, params = oracle_max_affinity(V, cfg, rng)
    for r, phi in ((params.r1, params.phi1), (params.r2, params.phi2)):
        if abs(r) < 1e-4:
            continue
        if abs(_fold_half_pi(phi)) > 1e-3:
            return False
    return True


class Record(NamedTuple):
    """The outcome of one check; it passes when ``worst <= tol``."""

    name: str
    worst: float
    tol: float
    detail: str


def _record(name: str, tol: float, deviations) -> Record:
    """The largest of (deviation, input) pairs; a NaN counts as the largest."""
    worst, detail = 0.0, ""
    for dev, where in deviations:
        if dev > worst or math.isnan(dev):
            worst, detail = dev, where
    return Record(name, worst, tol, detail)


def _sf_repr(sf: StandardForm) -> str:
    return f"standard form b1={sf.b1!r} b2={sf.b2!r} c={sf.c!r} d={sf.d!r}"


def closed_form_vs_oracle(forms, rng: np.random.Generator) -> tuple[Record, Record]:
    """How far the closed form lies above, then below, one oracle run per form."""
    gaps = []
    for sf in forms:
        cov = sf.to_cm()
        value, _ = oracle_max_affinity(cov, rng=rng)
        gaps.append((max_affinity(cov) - value, _sf_repr(sf)))
    return (
        _record("closed form below oracle", 1e-5, gaps),
        _record("oracle above closed form", 1e-7, [(-g, at) for g, at in gaps]),
    )


def route_equivalence(forms) -> Record:
    devs = []
    for sf in forms:
        cov = sf.to_cm()
        closed = max_affinity(cov)
        gap = abs(max_affinity_via_invariants(cov) - closed) / closed
        devs.append((gap, _sf_repr(sf)))
    return _record("max-affinity route equivalence", 1e-8, devs)


def square_root_routes(forms) -> Record:
    devs = []
    for sf in forms:
        via_matrix = square_root_cm(sf.to_cm()).matrix
        via_form = square_root_standard_form(sf).to_cm().matrix
        err = np.max(np.abs(via_matrix - via_form)) / np.max(np.abs(via_matrix))
        devs.append((err, _sf_repr(sf)))
    return _record("square-root form vs decomposition", 1e-8, devs)


def stationarity(forms) -> Record:
    devs = [(stationarity_residual(sf.to_cm()), _sf_repr(sf)) for sf in forms]
    return _record("stationarity residual", 1e-9, devs)


def photon_number() -> Record:
    """Tr sqrt(rho), the affinity and Tr(rho1 rho2) on ``THERMAL_GRID``."""
    devs = []
    for nb1 in THERMAL_GRID:
        one = thermal_state([nb1])
        diff = abs(trace_of_sqrt(one) - fock_sqrt_trace_diagonal(nb1))
        devs.append((diff, f"tr-sqrt nbar={nb1}"))
        for nb2 in THERMAL_GRID:
            other = thermal_state([nb2])
            a_g = affinity(one, other).value
            a_f = fock_affinity_diagonal(nb1, nb2)
            devs.append((abs(a_g - a_f), f"affinity nbar=({nb1},{nb2})"))
            o_g = gaussian_overlap_trace(one.cm, other.cm, np.zeros(2))
            o_f = fock_product_trace_diagonal(nb1, nb2)
            devs.append((abs(o_g - o_f), f"overlap nbar=({nb1},{nb2})"))
    return _record("photon-number vs Gaussian", 1e-6, devs)


def trace_distance_sandwich() -> Record:
    """1 - A <= T <= sqrt(1 - A^2) on ``THERMAL_GRID``, both from Fock sums."""
    devs = []
    for nb1 in THERMAL_GRID:
        for nb2 in THERMAL_GRID:
            a = fock_affinity_diagonal(nb1, nb2)
            t = fock_trace_distance_diagonal(nb1, nb2)
            pair = f"nbar=({nb1},{nb2})"
            devs.append(((1.0 - a) - t, pair))
            devs.append((t - math.sqrt(max(1.0 - a * a, 0.0)), pair))
    return _record("trace-distance sandwich", 1e-9, devs)


def affinity_invariance(rng: np.random.Generator, pairs: int) -> Record:
    """Symmetry, and invariance under one shared symplectic and displacement."""
    devs = []
    for _ in range(pairs):
        s1 = GaussianState(rng.normal(0, 1, 4), random_standard_form(rng).to_cm())
        s2 = GaussianState(rng.normal(0, 1, 4), random_standard_form(rng).to_cm())
        a12 = affinity(s1, s2).value
        devs.append((abs(a12 - affinity(s2, s1).value), "symmetry"))
        sym = random_symplectic(2, rng)
        shift = rng.normal(0, 1, 4)
        moved = [
            GaussianState(sym @ s.mean + shift, sym @ s.cm.matrix @ sym.T)
            for s in (s1, s2)
        ]
        devs.append((abs(affinity(*moved).value - a12), "unitary invariance"))
    return _record("affinity invariance properties", 1e-9, devs)


def suites(seed: int, trials: int):
    """Yield the records of ``ghk verify`` in order, all drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    forms = [random_standard_form(rng) for _ in range(trials)]
    yield from closed_form_vs_oracle(forms, rng)
    yield route_equivalence(forms)
    yield square_root_routes(forms)
    yield stationarity(forms)
    yield photon_number()
    yield trace_distance_sandwich()
    yield affinity_invariance(rng, min(trials, 40))
