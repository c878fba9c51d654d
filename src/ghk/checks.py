"""Second routes to the closed forms, and the checks built on them.

No reported measure goes through this module. ``ghk verify`` prints the
records of ``suites``; the acceptance tests call the same checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .affinity import affinity, gaussian_overlap_trace, trace_of_sqrt
from .discord import (
    _optimum,
    hellinger_discord_mts,
    hellinger_discord_sts,
    hellinger_discord_symmetric,
    max_affinity,
)
from .errors import ConsistencyError, DimensionMismatchError, NotPhysicalError
from .forms import _form_record, _is_uncorrelated, _k_and_l, _radical
from .oracle import (
    det2,
    det4,
    fock_affinity_diagonal,
    fock_product_trace_diagonal,
    fock_sqrt_trace_diagonal,
    fock_trace_distance_diagonal,
    oracle_max_affinity,
)
from .sampling import random_standard_form, random_symplectic
from .states import GaussianState, MtsParams, StsParams, thermal_state
from .symplectic import (
    StandardForm,
    as_covariance,
    is_physical,
    square_root_cm,
    square_root_standard_form,
    standard_form,
    symplectic_eigenvalues,
)
from .tolerances import active_profile

# Relative tolerance demanded from the two determinant routes to the
# invariant D. A breach raises ConsistencyError: it indicates a numerically
# corrupt input rather than a user error.
DET_IDENTITY_RTOL = 1e-9

# Mean occupancies of the thermal states the photon-number checks pair up.
THERMAL_GRID = (0.0, 0.3, 1.0, 3.0, 10.0)


@dataclass(frozen=True)
class SymplecticInvariants:
    """Spectrum-derived invariants of a physical two-mode state.

    M1, M2, N1, N2 are the pairwise products (kappa_i +/- 1/2); K is the
    mixed-radical invariant entering the square-root standard form; L is
    4 sqrt(det V det Vt); D = det(V + i J / 2) = M1 M2 = N1 N2.
    """

    K: float
    L: float
    M1: float
    M2: float
    N1: float
    N2: float
    D: float


def invariants_from_spectrum(kappas) -> SymplecticInvariants:
    """Evaluate the invariants directly from a two-mode spectrum.

    Within phys_tol of a pure mode the factor (kappa - 1/2) is taken as
    exactly zero, matching the pure-mode limit used for the square-root
    spectrum; the factorization of K through the M and N products then
    holds identically at the boundary. No measure reads these invariants:
    the cross-check routes below evaluate the paper's formulas from them.
    """
    k1, k2 = float(kappas[0]), float(kappas[1])
    tol = active_profile().phys_tol
    k, l = _k_and_l(k1, k2, _radical(k1 - 0.5, tol), _radical(k2 - 0.5, tol))
    gap1 = 0.0 if k1 - 0.5 < tol else k1 - 0.5
    gap2 = 0.0 if k2 - 0.5 < tol else k2 - 0.5
    m1 = gap1 * (k2 + 0.5)
    m2 = (k1 + 0.5) * gap2
    return SymplecticInvariants(
        K=k,
        L=l,
        M1=m1,
        M2=m2,
        N1=(k1 + 0.5) * (k2 + 0.5),
        N2=gap1 * gap2,
        D=m1 * m2,
    )


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


def hellinger_discord_pt(b: float, c: float, d: float) -> float:
    """Cross-check route for the discord of a symmetric state (b1 = b2 = b).

    The paper's formula in the spectrum k_pt of the partial transpose:
    1 - 4 (det V)^(1/4) / [k1_pt + k2_pt + 2 (det V)^(1/4)(sqrt(N1) - sqrt(N2))].
    Covers both signs of d. The difference cancels for a small discord, so
    it checks the closed form only where the discord is not small.
    """
    sf = StandardForm(b, b, c, d)
    if _is_uncorrelated(sf):
        return 0.0
    inv = invariants_from_spectrum(sf.spectrum())
    k1_pt = math.sqrt(max((b + c) * (b - d), 0.0))
    k2_pt = math.sqrt(max((b - c) * (b + d), 0.0))
    root4 = sf.cm_determinant() ** 0.25
    den = k1_pt + k2_pt + 2.0 * root4 * (math.sqrt(inv.N1) - math.sqrt(inv.N2))
    return 1.0 - 4.0 * root4 / den


def hellinger_discord_x(p: StsParams) -> float:
    """Cross-check route for the discord of a squeezed thermal state.

    The paper's formula 1 - 2/(sqrt(X) + 1) with
    X = 1 + 2 (k1 k2 + 1/4 - sqrt(D)) sinh^2(2r), evaluated as
    (X - 1)/(sqrt(X) + 1)^2 with X - 1 formed directly. k1 k2 + 1/4 - sqrt(D)
    cancels at large occupancies, so it checks the closed form only where
    they are moderate.
    """
    k1, k2 = p.nbar1 + 0.5, p.nbar2 + 0.5
    inv = invariants_from_spectrum((max(k1, k2), min(k1, k2)))
    x_minus_1 = 2.0 * (k1 * k2 + 0.25 - math.sqrt(inv.D)) * math.sinh(2.0 * p.r) ** 2
    return x_minus_1 / (math.sqrt(1.0 + x_minus_1) + 1.0) ** 2


def hellinger_discord_y(p: MtsParams) -> float:
    """Cross-check route for the discord of a mode-mixed thermal state.

    The paper's formula 1 - 2/(sqrt(Y) + 1) with
    Y = 1 + 2 (k1 k2 - 1/4 - sqrt(D)) sin^2(theta), evaluated like
    ``hellinger_discord_x``. k1 k2 - 1/4 - sqrt(D) cancels when k1 is close
    to k2 or both are large, so it checks the closed form only away from
    there.
    """
    inv = invariants_from_spectrum((p.kappa1, p.kappa2))
    y_minus_1 = (
        2.0
        * (p.kappa1 * p.kappa2 - 0.25 - math.sqrt(inv.D))
        * math.sin(p.theta) ** 2
    )
    return y_minus_1 / (math.sqrt(1.0 + y_minus_1) + 1.0) ** 2


def stationarity_residual(V) -> float:
    """Largest residual of the four optimality conditions at the optimum.

    The maximizer must annihilate the four products
    (bt1 st1 +/- u1)(bt2 st2 -/+ u2) - ct^2 st1 st2 and their momentum-side
    partners with dt; evaluating them is an independent certificate that the
    closed-form point is stationary.
    """
    tsf = square_root_standard_form(standard_form(V))
    root = (tsf.b1, tsf.b2, tsf.c, tsf.d, tsf.s1, tsf.s2), _form_record(tsf)
    eta1, eta2, e2r1, e2r2 = _optimum(root)
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


def verify_phi_zero(V, rng: np.random.Generator | None = None) -> bool:
    """Check that the brute-force optimum needs no squeeze rotation.

    True when both optimal angles fold to within 1e-3 of zero. Angles are
    meaningless where the optimal squeezing vanishes, so |r| < 1e-4 counts
    as zero.
    """
    _, params = oracle_max_affinity(V, rng)
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


def symmetric_pt_formula() -> Record:
    """The closed form against the partial-transpose formula, relative, on
    symmetric forms (b, b, c, d) with c = f (b - 1/2) and d = e c, all
    physical."""
    devs = []
    for b in (0.6, 1.0, 2.5, 6.0):
        for f in (0.2, 0.5, 0.9):
            for e in (-1.0, -0.5, 0.0, 0.5, 1.0):
                c = f * (b - 0.5)
                closed = hellinger_discord_symmetric(b, c, e * c)
                pt = hellinger_discord_pt(b, c, e * c)
                devs.append((abs(pt - closed) / closed, f"b={b} c={c!r} d={e * c!r}"))
    return _record("symmetric discord vs PT formula", 1e-10, devs)


def family_xy_formulas() -> Record:
    """The family discords against the paper's X and Y formulas, relative,
    where the formulas are well-conditioned: occupancies up to 20 with
    r in [0.05, 3], and kappa2 <= 3 with theta in [0.1, pi - 0.1]."""
    devs = []
    for nbar1 in (0.0, 0.3, 1.0, 5.0, 20.0):
        for nbar2 in (0.0, 0.3, 1.0, 5.0, 20.0):
            for r in np.linspace(0.05, 3.0, 7).tolist():
                p = StsParams(nbar1, nbar2, r)
                closed = hellinger_discord_sts(p)
                dev = abs(hellinger_discord_x(p) - closed) / closed
                devs.append((dev, f"sts nbar1={nbar1} nbar2={nbar2} r={r!r}"))
    for kappa2 in (0.5, 0.8, 1.5, 3.0):
        for split in (0.1, 0.5, 3.0, 10.0):
            for theta in np.linspace(0.1, math.pi - 0.1, 7).tolist():
                p = MtsParams(kappa2 + split, kappa2, theta)
                closed = hellinger_discord_mts(p)
                dev = abs(hellinger_discord_y(p) - closed) / closed
                devs.append(
                    (dev, f"mts kappa1={p.kappa1!r} kappa2={kappa2} theta={theta!r}")
                )
    return _record("family discords vs X/Y formulas", 1e-10, devs)


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
    yield symmetric_pt_formula()
    yield family_xy_formulas()
    yield photon_number()
    yield trace_distance_sandwich()
    yield affinity_invariance(rng, min(trials, 40))
