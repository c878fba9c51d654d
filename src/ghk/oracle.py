"""Independent verification oracles.

Two kinds of brute force, deliberately ignorant of the closed forms they
check:

  * a multi-start simplex search maximizing the affinity over product
    Gaussian states, parameterized through the square-root state of the
    candidate product (so each objective evaluation is a plain Gaussian
    integral, no spectral decomposition in the hot loop);
  * truncated photon-number sums for diagonal (thermal) states, with the
    geometric tail certified below a configured bound before any
    comparison is accepted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discord import ProductStateParams
from .errors import (
    InvalidParamsError,
    NegativeOccupancyError,
    NotConvergedError,
    NotPhysicalError,
    TruncationInsufficientError,
)
from .symplectic import (
    as_covariance,
    det2,
    det4,
    is_physical,
    square_root_cm,
    symplectic_eigenvalues,
)

_ETA_EPS = 1e-12  # offset in the log transform keeping eta above 1/2
_MAX_FOCK_CUTOFF = 2**14


@dataclass(frozen=True)
class OptimizerConfig:
    """Multi-start simplex search settings.

    The search runs over (eta1, eta2, r1, r2, phi1, phi2) of the candidate
    product state's square root; eta is optimized through
    log(eta - 1/2 + eps) so the simplex can never propose an unphysical
    value. eta_bounds defaults to [1/2, 10 max(kt1, kt2)] of the input
    state, which contains the closed-form optimum for every family in
    scope.
    """

    starts: int = 32
    max_iters: int = 1000
    xtol: float = 1e-8
    ftol: float = 1e-10
    eta_bounds: tuple[float, float] | None = None
    r_bounds: tuple[float, float] = (-5.0, 5.0)
    phi_bounds: tuple[float, float] = (-math.pi, math.pi)

    def __post_init__(self) -> None:
        if self.starts < 1 or self.max_iters < 1:
            raise InvalidParamsError("starts and max_iters must be >= 1")
        if self.xtol <= 0 or self.ftol <= 0:
            raise InvalidParamsError("tolerances must be positive")


@dataclass(frozen=True)
class FockOracleConfig:
    """Photon-number truncation settings for the diagonal-state oracle."""

    truncation: int = 400
    tail_bound: float = 1e-12

    def __post_init__(self) -> None:
        if self.truncation < 1:
            raise InvalidParamsError("truncation must be >= 1")
        if not 0.0 < self.tail_bound < 1.0:
            raise InvalidParamsError("tail bound must lie in (0, 1)")


def _make_negative_affinity(vt_in: np.ndarray):
    """Batched objective computing -affinity(input, product(x)) row by row.

    Each row x = (t1, t2, r1, r2, phi1, phi2) has eta_j = 1/2 - eps +
    exp(t_j), the square-root-state eigenvalues of the candidate product.
    The candidate's square-root CM follows directly from the
    parameterization, so a batch costs a few dozen array operations;
    values in [-1, 0] on valid input, large positive as an out-of-range
    penalty. Maps an (n, 6) array to an (n,) array.

    Adding the product changes only the diagonal 2x2 blocks A and D of
    the input; with C the constant cross block,
    det [[A, C], [C^T, D]] = det A det D + det(C)^2 - tr(adj A C adj D C^T),
    and the last term is a bilinear form a^T K d in the entries
    a = (a00, a01, a11), d = (d00, d01, d11), with K fixed by C.
    """
    quarter_root = det4(vt_in) ** 0.25
    # rows (x00, x01, x11) of the two diagonal blocks, modes as columns
    diag_in = np.array([
        [vt_in[0, 0], vt_in[2, 2]],
        [vt_in[0, 1], vt_in[2, 3]],
        [vt_in[1, 1], vt_in[3, 3]],
    ])[:, :, None]
    cross = vt_in[:2, 2:]
    det_cross_sq = det2(cross) ** 2
    # adj of a symmetric 2x2 [[u, v], [v, w]] is [[w, -v], [-v, u]]
    adj_basis = np.array([
        [[0.0, 0.0], [0.0, 1.0]],
        [[0.0, -1.0], [-1.0, 0.0]],
        [[1.0, 0.0], [0.0, 0.0]],
    ])
    k = np.einsum("iab,bc,jcd,ad->ij", adj_basis, cross, adj_basis, cross)

    def negative_affinity(x: np.ndarray) -> np.ndarray:
        xt = np.ascontiguousarray(x.T)
        # one row per mode in each of t, r, phi
        t, r, phi = xt[:2], xt[2:4], xt[4:]
        out_of_range = (t > 60.0) | (np.abs(r) > 20.0)
        if np.count_nonzero(out_of_range):
            penalized = out_of_range.any(axis=0)
            t1, t2, r1, r2 = np.abs(xt[:4, penalized])
            value = np.empty(len(x))
            value[penalized] = 2.0 + t1 + t2 + r1 + r2
            value[~penalized] = negative_affinity(x[~penalized])
            return value
        eta = (0.5 - _ETA_EPS) + np.exp(t)
        two_r = 2.0 * r
        ch, sh = np.cosh(two_r), np.sinh(two_r)
        c_sh = np.cos(phi) * sh
        # entries (x00, x01, x11) of both diagonal blocks of Vt_in + product
        blocks = np.empty((3,) + eta.shape)
        np.add(ch, c_sh, out=blocks[0])
        np.multiply(np.sin(phi), sh, out=blocks[1])
        np.subtract(ch, c_sh, out=blocks[2])
        blocks *= eta
        blocks += diag_in
        b00, b01, b11 = blocks
        dets = b00 * b11 - b01 * b01
        bilinear = (blocks[:, 0] * (k @ blocks[:, 1])).sum(axis=0)
        det_sum = dets[0] * dets[1] + det_cross_sq - bilinear
        # det of the product's sqrt CM is (eta1 eta2)^2
        scale = -4.0 * quarter_root * np.sqrt(eta[0] * eta[1])
        if np.count_nonzero(det_sum <= 0.0):
            positive = det_sum > 0.0
            safe = np.where(positive, det_sum, 1.0)
            return np.where(positive, scale / np.sqrt(safe), 2.0)
        return scale / np.sqrt(det_sum)

    return negative_affinity


def _nelder_mead(fn, x0, steps, max_iters, xtol, ftol):
    """Minimize fn from every row of x0 by simplex searches run in lockstep.

    fn maps an (n, dim) array of points to their (n,) values. Each start
    runs the plain simplex method on its own simplex: stable sort by value,
    reflection/expansion/contraction/shrink with the standard coefficients,
    and a stop once both the f-spread and the coordinate spread of the
    simplex fall below the tolerances, after which that simplex is frozen.
    The reflection, expansion and both contraction points follow from the
    centroid and the worst vertex, so each iteration evaluates all four for
    every running simplex in one call of fn; shrinks are evaluated only
    where they happen.

    Returns (fbest, xbest) of shapes (starts,) and (starts, dim).
    """
    x0 = np.asarray(x0, dtype=float)
    starts, dim = x0.shape
    points = np.repeat(x0[:, None, :], dim + 1, axis=1)
    diag = np.arange(dim)
    points[:, diag + 1, diag] += np.asarray(steps, dtype=float)
    values = fn(points.reshape(-1, dim)).reshape(starts, dim + 1)
    # p, v hold the running simplices; frozen ones are written back
    lanes = rows = np.arange(starts)
    p, v = points, values
    for _ in range(max_iters):
        order = np.argsort(v, axis=1, kind="stable")
        p, v = p[rows[:, None], order], v[rows[:, None], order]
        flat = v[:, -1] - v[:, 0] < ftol
        if np.count_nonzero(flat):
            done = flat & (np.abs(p - p[:, :1]).max(axis=(1, 2)) < xtol)
            points[lanes[done]], values[lanes[done]] = p[done], v[done]
            go = ~done
            lanes, p, v = lanes[go], p[go], v[go]
            if not lanes.size:
                break
            rows = rows[: len(lanes)]
        centroid = p[:, :-1].sum(axis=1) / dim
        worst = p[:, -1]
        # the replacement candidates; choosing the worst vertex means shrink
        candidates = np.empty((5,) + worst.shape)
        reflected = np.subtract(2.0 * centroid, worst, out=candidates[0])
        step = reflected - centroid
        np.add(centroid, 2.0 * step, out=candidates[1])
        np.add(centroid, 0.5 * step, out=candidates[2])
        np.add(centroid, 0.5 * (worst - centroid), out=candidates[3])
        candidates[4] = worst
        f_cand = np.concatenate((fn(candidates[:4].reshape(-1, dim)), v[:, -1]))
        f_r, f_e, f_o, f_i, f_w = f_cand.reshape(5, -1)
        outside = f_r < f_w
        f_c = np.where(outside, f_o, f_i)
        choice = np.where(
            f_r < v[:, 0],
            np.where(f_e < f_r, 1, 0),
            np.where(
                f_r < v[:, -2],
                0,
                np.where(f_c < np.minimum(f_r, f_w), np.where(outside, 2, 3), 4),
            ),
        )
        p[:, -1] = candidates[choice, rows]
        v[:, -1] = f_cand.reshape(5, -1)[choice, rows]
        shrink = choice == 4
        if np.count_nonzero(shrink):
            best = p[shrink, :1]
            shrunk = best + 0.5 * (p[shrink, 1:] - best)
            p[shrink, 1:] = shrunk
            v[shrink, 1:] = fn(shrunk.reshape(-1, dim)).reshape(-1, dim)
    else:  # iteration cap: write back the simplices still running
        points[lanes], values[lanes] = p, v
    best = np.argmin(values, axis=1)
    lanes = np.arange(starts)
    return values[lanes, best], points[lanes, best]


def oracle_max_affinity(
    V, cfg: OptimizerConfig | None = None, rng: np.random.Generator | None = None
) -> tuple[float, ProductStateParams]:
    """Brute-force maximal product-state affinity of a zero-mean state.

    Runs ``cfg.starts`` simplex searches from random points in the search
    box, in lockstep, and keeps the best. The two best starts must agree
    to 10 ftol, otherwise NotConverged is raised. Returns the best value
    and the optimal parameters in the same square-root parameterization
    used by ``closest_product_state``.
    """
    cfg = cfg or OptimizerConfig()
    rng = rng or np.random.default_rng(0)
    cov = as_covariance(V)
    if not is_physical(cov):
        raise NotPhysicalError("covariance matrix is not a physical state")
    vt_in = square_root_cm(cov).matrix
    if cfg.eta_bounds is None:
        kt_max = float(np.max(symplectic_eigenvalues(vt_in)))
        eta_lo, eta_hi = 0.5, 10.0 * kt_max
    else:
        eta_lo, eta_hi = cfg.eta_bounds
    objective = _make_negative_affinity(vt_in)
    steps = [0.7, 0.7, 0.25, 0.25, 0.5, 0.5]
    x0 = np.empty((cfg.starts, 6))
    for row in x0:
        etas = rng.uniform(max(eta_lo, 0.5), eta_hi, 2)
        row[:] = (
            math.log(etas[0] - 0.5 + _ETA_EPS),
            math.log(etas[1] - 0.5 + _ETA_EPS),
            rng.uniform(*cfg.r_bounds),
            rng.uniform(*cfg.r_bounds),
            rng.uniform(*cfg.phi_bounds),
            rng.uniform(*cfg.phi_bounds),
        )
    f_best, x_best = _nelder_mead(
        objective, x0, steps, cfg.max_iters, cfg.xtol, cfg.ftol
    )
    order = np.argsort(f_best, kind="stable")
    if len(order) > 1 and f_best[order[1]] - f_best[order[0]] > 10.0 * cfg.ftol:
        raise NotConvergedError(
            "best two starts disagree: "
            f"{-f_best[order[0]]:.12g} vs {-f_best[order[1]]:.12g}"
        )
    f_opt, x_opt = float(f_best[order[0]]), x_best[order[0]].tolist()
    params = ProductStateParams(
        eta1=0.5 - _ETA_EPS + math.exp(x_opt[0]),
        eta2=0.5 - _ETA_EPS + math.exp(x_opt[1]),
        r1=x_opt[2],
        r2=x_opt[3],
        phi1=x_opt[4],
        phi2=x_opt[5],
    )
    return -f_opt, params


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


def _certified_cutoff(nbar: float, cfg: FockOracleConfig) -> int:
    """Smallest admissible cutoff with geometric tail below the bound."""
    if nbar < 0:
        raise NegativeOccupancyError("mean occupancy must be >= 0")
    if nbar == 0:
        return cfg.truncation
    log_ratio = math.log(nbar / (nbar + 1.0))
    cutoff = cfg.truncation
    while (cutoff + 1) * log_ratio > math.log(cfg.tail_bound):
        cutoff *= 2
        if cutoff > _MAX_FOCK_CUTOFF:
            raise TruncationInsufficientError(
                f"tail bound {cfg.tail_bound} not reachable below cutoff "
                f"{_MAX_FOCK_CUTOFF} for nbar = {nbar}"
            )
    return cutoff


def fock_thermal_spectrum(nbar: float, cfg: FockOracleConfig | None = None) -> np.ndarray:
    """Photon-number probabilities p_n = nbar^n / (nbar + 1)^(n+1), n <= N.

    N starts at cfg.truncation and doubles until the (exactly known)
    geometric tail drops below cfg.tail_bound.
    """
    cfg = cfg or FockOracleConfig()
    cutoff = _certified_cutoff(nbar, cfg)
    n = np.arange(cutoff + 1)
    ratio = nbar / (nbar + 1.0)
    return (1.0 / (nbar + 1.0)) * ratio**n


def _paired_spectra(nbar1, nbar2, cfg) -> tuple[np.ndarray, np.ndarray]:
    cutoff = max(_certified_cutoff(nbar1, cfg), _certified_cutoff(nbar2, cfg))
    n = np.arange(cutoff + 1)
    p = (1.0 / (nbar1 + 1.0)) * (nbar1 / (nbar1 + 1.0)) ** n
    q = (1.0 / (nbar2 + 1.0)) * (nbar2 / (nbar2 + 1.0)) ** n
    return p, q


def fock_affinity_diagonal(
    nbar1: float, nbar2: float, cfg: FockOracleConfig | None = None
) -> float:
    """Affinity of two thermal states from the spectral sum sum sqrt(p q).

    The truncation error is bounded by sqrt(tail_p tail_q) (Cauchy-Schwarz)
    and both factors are certified below the tail bound.
    """
    cfg = cfg or FockOracleConfig()
    p, q = _paired_spectra(nbar1, nbar2, cfg)
    return float(np.sum(np.sqrt(p * q)))


def fock_trace_distance_diagonal(
    nbar1: float, nbar2: float, cfg: FockOracleConfig | None = None
) -> float:
    """Trace distance of two thermal states: sum |p_n - q_n| / 2."""
    cfg = cfg or FockOracleConfig()
    p, q = _paired_spectra(nbar1, nbar2, cfg)
    return float(0.5 * np.sum(np.abs(p - q)))


def fock_sqrt_trace_diagonal(nbar: float, cfg: FockOracleConfig | None = None) -> float:
    """Tr sqrt(rho) of a thermal state from the spectral sum sum sqrt(p_n)."""
    cfg = cfg or FockOracleConfig()
    # sqrt weakens the geometric decay: certify with the squared tail bound
    strict = FockOracleConfig(cfg.truncation, cfg.tail_bound**2)
    p = fock_thermal_spectrum(nbar, strict)
    return float(np.sum(np.sqrt(p)))


def fock_product_trace_diagonal(
    nbar1: float, nbar2: float, cfg: FockOracleConfig | None = None
) -> float:
    """Tr(rho1 rho2) of two thermal states from the spectral sum sum p q."""
    cfg = cfg or FockOracleConfig()
    p, q = _paired_spectra(nbar1, nbar2, cfg)
    return float(np.sum(p * q))
