"""Independent verification oracles.

Two kinds of brute force, deliberately ignorant of the closed forms they
check:

  * a multi-start search maximizing the affinity over product Gaussian
    states, parameterized through the square-root state of the candidate
    product, so that each objective evaluation is a plain Gaussian
    integral with no spectral decomposition. It runs in two phases, both
    batched over the starts: a short simplex phase that brings each start
    into its basin, then a Newton polish on the analytic gradient and
    Hessian of the log of that integral, which stops on stationarity. The
    simplex phase pauses at fixed checkpoints; at each, copies of the best
    vertices are polished, and the search ends at the first checkpoint
    where the two best polished starts agree;
  * truncated photon-number sums for diagonal (thermal) states, with the
    geometric tail certified below a fixed bound before any comparison
    is accepted.
"""

from __future__ import annotations

import math

import numpy as np

from .discord import ProductStateParams
from .errors import (
    NegativeOccupancyError,
    NotConvergedError,
    TruncationInsufficientError,
)
from .symplectic import _williamson_root, as_covariance, symplectic_eigenvalues

_ETA_EPS = 1e-12  # offset in the log transform keeping eta above 1/2
# The search: 32 starts per state, each drawn from the box
# eta in [1/2, 10 max(kt1, kt2)] (which contains the closed-form optimum of
# every family in scope) x r in [-5, 5] x phi in [-pi, pi]. The starts run
# simplex iterations, which only have to bring them into their basins, in
# runs of _SIMPLEX_CHECKPOINT up to _SIMPLEX_ITERS. After each run a copy of
# every start's best vertex takes at most 30 Newton steps; the polish stops
# a start once its step is below _XTOL in every coordinate of its chart or
# raises the log of the affinity by less than _FTOL. The search ends at the
# first checkpoint where the two best polished starts agree to 10 _FTOL, and
# raises if they still disagree after _SIMPLEX_ITERS iterations.
_STARTS = 32
_R_BOUNDS = (-5.0, 5.0)
_PHI_BOUNDS = (-math.pi, math.pi)
_SIMPLEX_CHECKPOINT = 20
_SIMPLEX_ITERS = 60
_NEWTON_ITERS = 30
_XTOL = 1e-8
_FTOL = 1e-10
# Photon-number sums start at _FOCK_TERMS terms and double, up to
# _MAX_FOCK_CUTOFF, until the geometric tail is below _FOCK_TAIL.
_FOCK_TERMS = 400
_FOCK_TAIL = 1e-12
_MAX_FOCK_CUTOFF = 2**14


def det2(m) -> float:
    """Determinant of a 2x2 matrix by the explicit cofactor formula."""
    return float(m[0][0] * m[1][1] - m[0][1] * m[1][0])


def _det3(m) -> float:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def det4(m) -> float:
    """Determinant of a 4x4 matrix by cofactor expansion (no LU pivoting).

    Used instead of a factorization so that repeated runs and platforms
    produce bit-identical values on the small matrices of this package.
    """
    m = np.asarray(m, dtype=float)
    rows = m.tolist()
    total = 0.0
    sign = 1.0
    for col in range(4):
        minor = [[rows[r][cc] for cc in range(4) if cc != col] for r in (1, 2, 3)]
        total += sign * rows[0][col] * _det3(minor)
        sign = -sign
    return float(total)


def _make_negative_affinity(vt_in: np.ndarray, quarter_root: float):
    """Batched -affinity(input, product(x)), row by row, given det4(vt_in) ** 0.25.

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


def _simplex_iteration(fn, p, v, rows):
    """One lockstep iteration of every simplex: returns the new (p, v).

    Stable sort by value, then reflection/expansion/contraction/shrink with
    the standard coefficients. The reflection, expansion and both
    contraction points follow from the centroid and the worst vertex, so
    the iteration evaluates all four for every simplex in one call of fn;
    shrinks are evaluated only where they happen.
    """
    dim = p.shape[2]
    order = np.argsort(v, axis=1, kind="stable")
    p, v = p[rows[:, None], order], v[rows[:, None], order]
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
    return p, v


def _simplex_checkpoints(fn, x0, steps, checkpoints):
    """Minimize fn from every row of x0 by simplex searches run in lockstep,
    yielding the best vertices at each checkpoint.

    fn maps an (n, dim) array of points to their (n,) values. Each start
    runs the plain simplex method on its own simplex (``_simplex_iteration``),
    built from x0 with one step per coordinate. ``checkpoints`` are
    ascending iteration counts: once the searches have run that many
    iterations in total, the generator yields (fbest, xbest) of shapes
    (starts,) and (starts, dim), fresh arrays, and resumes the same
    simplices when asked for the next checkpoint. A search resumed at
    checkpoints is the uninterrupted search, bit for bit.
    """
    x0 = np.asarray(x0, dtype=float)
    starts, dim = x0.shape
    p = np.repeat(x0[:, None, :], dim + 1, axis=1)
    diag = np.arange(dim)
    p[:, diag + 1, diag] += np.asarray(steps, dtype=float)
    v = fn(p.reshape(-1, dim)).reshape(starts, dim + 1)
    rows = np.arange(starts)
    done = 0
    for checkpoint in checkpoints:
        for _ in range(checkpoint - done):
            p, v = _simplex_iteration(fn, p, v, rows)
        done = checkpoint
        best = np.argmin(v, axis=1)
        yield v[rows, best], p[rows, best]


def _nelder_mead(fn, x0, steps, max_iters):
    """(fbest, xbest) of ``_simplex_checkpoints`` after max_iters iterations."""
    return next(_simplex_checkpoints(fn, x0, steps, [max_iters]))


def _make_log_affinity_terms(vt_in: np.ndarray):
    """Batched g = log(affinity / (4 det(Vt_in)^(1/4))) with its derivatives.

    Each row x = (t1, t2, u1, u2, v1, v2) is a point of the smooth chart:
    eta_j = 1/2 - eps + exp(t_j) and u + i v = sinh(2 r) e^{i phi}, so that
    mode j of the candidate's square root is the block
    P_j = eta_j [[w_j + u_j, v_j], [v_j, w_j - u_j]], w = sqrt(1 + u^2 + v^2),
    with no phi degeneracy at r = 0. Then
    g = (log eta1 + log eta2)/2 - log det M / 2 with M = Vt_in + P, and
    d log det M = tr(M^-1 dM) gives the gradient; the Hessian is
    tr(M^-1 d2M) - tr(M^-1 dM M^-1 dM). The second derivatives of each
    block are multiples of its first derivatives or of the identity, so
    tr(M^-1 d2M) follows from the first-derivative traces and tr(M^-1)_jj.

    ``terms(x)`` maps an (n, 6) array to g (n,), the gradient (n, 6) and
    the Hessian (n, 6, 6). A row that overflows, as on a diverging Newton
    step, reads NaN.
    """
    eta0 = 0.5 - _ETA_EPS
    mode = np.arange(2)
    rows, cols = 2 * mode, 2 * mode + 1  # the (x, p) entries of each mode
    tu, tv = mode + 2, mode + 4  # the u and v columns of x

    @np.errstate(all="ignore")
    def terms(x: np.ndarray):
        n = len(x)
        t, u, v = x[:, :2], x[:, 2:4], x[:, 4:]
        et = np.exp(t)
        eta = eta0 + et
        w = np.sqrt(1.0 + u * u + v * v)
        m = np.repeat(vt_in[None], n, axis=0)
        m[:, rows, rows] += eta * (w + u)
        m[:, rows, cols] += eta * v
        m[:, cols, rows] += eta * v
        m[:, cols, cols] += eta * (w - u)
        g = 0.5 * (np.log(eta).sum(axis=1) - np.linalg.slogdet(m)[1])
        # dM along t_j, u_j, v_j: one 2x2 block each, in the layout of x
        dm = np.zeros((n, 6, 4, 4))
        for kind, (d00, d01, d11) in enumerate((
            (et * (w + u), et * v, et * (w - u)),
            (eta * (u / w + 1.0), 0.0, eta * (u / w - 1.0)),
            (eta * v / w, eta, eta * v / w),
        )):
            k = 2 * kind + mode
            dm[:, k, rows, rows] = d00
            dm[:, k, rows, cols] = dm[:, k, cols, rows] = d01
            dm[:, k, cols, cols] = d11
        inv = np.linalg.inv(m)
        y = inv[:, None] @ dm
        tr = np.einsum("nijj->ni", y)
        # tr(M^-1 d2M): d2/dt2 and d2/dt d(u, v) repeat the first-derivative
        # blocks scaled by 1 and exp(t)/eta; d2/d(u, v)2 is eta d2w times I
        ratio = et / eta
        second = np.zeros((n, 6, 6))
        second[:, mode, mode] = tr[:, mode]
        second[:, mode, tu] = second[:, tu, mode] = ratio * tr[:, tu]
        second[:, mode, tv] = second[:, tv, mode] = ratio * tr[:, tv]
        scale = eta * (inv[:, rows, rows] + inv[:, cols, cols]) / (w * w * w)
        second[:, tu, tu] = scale * (1.0 + v * v)
        second[:, tu, tv] = second[:, tv, tu] = -scale * u * v
        second[:, tv, tv] = scale * (1.0 + u * u)
        hess = 0.5 * (np.einsum("nipq,nkqp->nik", y, y) - second)
        hess[:, mode, mode] += 0.5 * ratio * eta0 / eta
        grad = -0.5 * tr
        grad[:, :2] += 0.5 * ratio
        return g, grad, hess

    return terms


def _newton_polish(terms, x, max_iters: int, xtol: float, ftol: float):
    """Maximize g from every row of x by Newton steps run in lockstep.

    ``terms`` is a function made by ``_make_log_affinity_terms``. A lane
    takes the step -H^-1 grad only where g does not decrease, and stops once
    a step is rejected, once every coordinate of its step is below xtol, or
    once an accepted step raises g by less than ftol. The last rule ends
    lanes whose optimum lies on the eta = 1/2 boundary: there t runs to
    -infinity and each step gains only a fixed fraction of what is left.
    Returns (g, x, iterations run).
    """
    x = x.copy()
    g, grad, hess = terms(x)
    best_g, best_x = g.copy(), x.copy()
    lanes = np.arange(len(x))
    iterations = 0
    while lanes.size and iterations < max_iters:
        iterations += 1
        step = np.linalg.solve(hess, -grad[..., None])[..., 0]
        trial = x + step
        g_trial, grad_trial, hess_trial = terms(trial)
        gain = g_trial - g
        accept = gain >= 0.0  # False for NaN, as on a diverging step
        x[accept], g[accept] = trial[accept], g_trial[accept]
        grad[accept], hess[accept] = grad_trial[accept], hess_trial[accept]
        done = ~accept | (np.abs(step).max(axis=1) < xtol) | (gain < ftol)
        best_x[lanes[done]], best_g[lanes[done]] = x[done], g[done]
        go = ~done
        lanes, x, g, grad, hess = lanes[go], x[go], g[go], grad[go], hess[go]
    best_x[lanes], best_g[lanes] = x, g
    return best_g, best_x, iterations


def oracle_max_affinity(
    V, rng: np.random.Generator | None = None
) -> tuple[float, ProductStateParams]:
    """Brute-force maximal product-state affinity of a zero-mean state.

    The search runs over (eta1, eta2, r1, r2, phi1, phi2) of the candidate
    product state's square root; eta is optimized through
    t = log(eta - 1/2 + eps), so no phase can propose an unphysical value.
    Draws all 32 starts from the search box first, then runs 32 simplex
    searches from them in lockstep, 20 iterations at a time. After each
    run it polishes a copy of the best vertex of every simplex by Newton
    steps on the analytic derivatives of the Gaussian integral and keeps
    the best start once the two best polished starts agree to 1e-9;
    otherwise the same simplices resume. If they still disagree after 60
    iterations, NotConvergedError is raised. Since the simplices resume
    where they stopped, a state that runs all 60 iterations gets the value
    of one uninterrupted 60-iteration search, bit for bit.
    Returns the best value and the optimal parameters in the same
    square-root parameterization used by ``closest_product_state``, with
    r >= 0 and phi in (-pi, pi]. The oracle roots V by Williamson
    (``symplectic._williamson_root``), not by the routes it certifies, which
    rejects an unphysical input: NotPhysicalError below 1/2,
    NotPositiveDefiniteError where the matrix is not positive definite.
    """
    rng = rng or np.random.default_rng(0)
    vt_in = _williamson_root(as_covariance(V)).matrix
    eta_hi = 10.0 * float(np.max(symplectic_eigenvalues(vt_in)))
    steps = [0.7, 0.7, 0.25, 0.25, 0.5, 0.5]
    # one draw, row by row: (eta1, eta2, r1, r2, phi1, phi2) per start; the
    # etas' logs by math.log, which np.log does not match in every last bit
    low, high = zip(
        (0.5, eta_hi), (0.5, eta_hi), _R_BOUNDS, _R_BOUNDS, _PHI_BOUNDS, _PHI_BOUNDS
    )
    x0 = rng.uniform(low, high, (_STARTS, 6))
    etas = (x0[:, :2] - 0.5 + _ETA_EPS).ravel().tolist()
    x0[:, :2] = np.reshape(list(map(math.log, etas)), (_STARTS, 2))
    checkpoints = [
        *range(_SIMPLEX_CHECKPOINT, _SIMPLEX_ITERS, _SIMPLEX_CHECKPOINT),
        _SIMPLEX_ITERS,
    ]
    quarter_root = det4(vt_in) ** 0.25
    search = _simplex_checkpoints(
        _make_negative_affinity(vt_in, quarter_root), x0, steps, checkpoints
    )
    terms = _make_log_affinity_terms(vt_in)
    scale = 4.0 * quarter_root
    for _, x in search:
        # each best vertex into the smooth chart (t, sinh 2r cos phi, sinh 2r sin phi)
        sinh = np.sinh(2.0 * x[:, 2:4])
        x[:, 2:4], x[:, 4:] = sinh * np.cos(x[:, 4:]), sinh * np.sin(x[:, 4:])
        g, x, _ = _newton_polish(terms, x, _NEWTON_ITERS, _XTOL, _FTOL)
        values = scale * np.exp(g)
        order = np.argsort(-values, kind="stable")
        if values[order[0]] - values[order[1]] <= 10.0 * _FTOL:
            break
    else:
        raise NotConvergedError(
            "best two starts disagree: "
            f"{values[order[0]]:.12g} vs {values[order[1]]:.12g}"
        )
    t1, t2, u1, u2, v1, v2 = x[order[0]].tolist()
    params = ProductStateParams(
        eta1=0.5 - _ETA_EPS + math.exp(t1),
        eta2=0.5 - _ETA_EPS + math.exp(t2),
        r1=0.5 * math.asinh(math.hypot(u1, v1)),
        r2=0.5 * math.asinh(math.hypot(u2, v2)),
        phi1=math.atan2(v1, u1),
        phi2=math.atan2(v2, u2),
    )
    return float(values[order[0]]), params


def _certified_cutoff(nbar: float, tail: float) -> int:
    """Smallest admissible cutoff with geometric tail below ``tail``."""
    if nbar < 0:
        raise NegativeOccupancyError("mean occupancy must be >= 0")
    if nbar == 0:
        return _FOCK_TERMS
    log_ratio = math.log(nbar / (nbar + 1.0))
    cutoff = _FOCK_TERMS
    while (cutoff + 1) * log_ratio > math.log(tail):
        cutoff *= 2
        if cutoff > _MAX_FOCK_CUTOFF:
            raise TruncationInsufficientError(
                f"tail bound {tail} not reachable below cutoff "
                f"{_MAX_FOCK_CUTOFF} for nbar = {nbar}"
            )
    return cutoff


def _geometric_spectrum(nbar: float, cutoff: int) -> np.ndarray:
    """p_n = nbar^n / (nbar + 1)^(n+1) for n <= cutoff."""
    n = np.arange(cutoff + 1)
    return (1.0 / (nbar + 1.0)) * (nbar / (nbar + 1.0)) ** n


def fock_thermal_spectrum(nbar: float) -> np.ndarray:
    """Photon-number probabilities p_n = nbar^n / (nbar + 1)^(n+1), n <= N.

    N starts at 400 and doubles until the (exactly known) geometric tail
    drops below 1e-12.
    """
    return _geometric_spectrum(nbar, _certified_cutoff(nbar, _FOCK_TAIL))


def _paired_spectra(nbar1: float, nbar2: float) -> tuple[np.ndarray, np.ndarray]:
    cutoff = max(
        _certified_cutoff(nbar1, _FOCK_TAIL), _certified_cutoff(nbar2, _FOCK_TAIL)
    )
    return _geometric_spectrum(nbar1, cutoff), _geometric_spectrum(nbar2, cutoff)


def fock_affinity_diagonal(nbar1: float, nbar2: float) -> float:
    """Affinity of two thermal states from the spectral sum sum sqrt(p q).

    The truncation error is bounded by sqrt(tail_p tail_q) (Cauchy-Schwarz)
    and both factors are certified below the tail bound.
    """
    p, q = _paired_spectra(nbar1, nbar2)
    return float(np.sum(np.sqrt(p * q)))


def fock_trace_distance_diagonal(nbar1: float, nbar2: float) -> float:
    """Trace distance of two thermal states: sum |p_n - q_n| / 2."""
    p, q = _paired_spectra(nbar1, nbar2)
    return float(0.5 * np.sum(np.abs(p - q)))


def fock_sqrt_trace_diagonal(nbar: float) -> float:
    """Tr sqrt(rho) of a thermal state from the spectral sum sum sqrt(p_n)."""
    # sqrt weakens the geometric decay: certify with the squared tail bound
    p = _geometric_spectrum(nbar, _certified_cutoff(nbar, _FOCK_TAIL**2))
    return float(np.sum(np.sqrt(p)))


def fock_product_trace_diagonal(nbar1: float, nbar2: float) -> float:
    """Tr(rho1 rho2) of two thermal states from the spectral sum sum p q."""
    p, q = _paired_spectra(nbar1, nbar2)
    return float(np.sum(p * q))
