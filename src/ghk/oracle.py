"""Independent verification oracles.

Two kinds of brute force, deliberately ignorant of the closed forms they
check:

  * a multi-start search maximizing the affinity over product Gaussian
    states, parameterized through the square-root state of the candidate
    product, so that each objective evaluation is a plain Gaussian
    integral with no spectral decomposition. It runs in two phases, both
    batched over the starts: a short simplex phase that brings each start
    into its basin, then a Newton polish on the analytic gradient and
    Hessian of the log of that integral, taken in the entries of the
    candidate's blocks and computed only for the starts that go on, which
    stops on stationarity. The simplex phase pauses at fixed checkpoints;
    at each, copies of the best vertices are polished, and the search ends
    at the first checkpoint where the two best polished starts agree;
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
# every family in scope) x r in [-5, 5] x phi in [-pi, pi]. Each start's
# simplex has one vertex _SIMPLEX_STEPS away from it along each coordinate
# (t1, t2, r1, r2, phi1, phi2): in r and phi 7.5% and 24% of the box's
# width, wide enough that the simplex spans a basin from its first
# iteration instead of spending its first iterations growing. The starts
# run simplex iterations, which only have to bring them into their basins,
# in runs of _SIMPLEX_CHECKPOINT up to _SIMPLEX_ITERS. After each run a copy
# of every start's best vertex takes at most 30 Newton steps; the polish
# stops a start once its step is below _XTOL in every coordinate of its
# chart or raises the log of the affinity by less than _FTOL. The search
# ends at the first checkpoint where the two best polished starts agree to
# 10 _FTOL, and raises if they still disagree after _SIMPLEX_ITERS
# iterations. Smaller steps, or an earlier first checkpoint, cost a second
# polish more often than they save simplex iterations.
_STARTS = 32
_R_BOUNDS = (-5.0, 5.0)
_PHI_BOUNDS = (-math.pi, math.pi)
_SIMPLEX_STEPS = (2.1, 2.1, 0.75, 0.75, 1.5, 1.5)
_SIMPLEX_CHECKPOINT = 15
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
    """Batched -affinity(input, product(x)), row by row, given det(vt_in) ** 0.25.

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


# The six entries e of M's two diagonal 2x2 blocks, in the layout of the
# chart: index 2 kind + mode, kinds (x00, x01, x11). Entry I sits at
# (p_I, q_I) of M, and at (q_I, p_I) too off the diagonal (m_I = 2).
_ENTRY_P = np.array([0, 2, 0, 2, 1, 3])
_ENTRY_Q = np.array([0, 2, 1, 3, 1, 3])
_ENTRY_M = np.array([1.0, 1.0, 2.0, 2.0, 1.0, 1.0])
_ENTRY_AT = 4 * _ENTRY_P + _ENTRY_Q  # flat index of (p_I, q_I)
# -d2 log det M / de_I de_J = (m_I m_J / 2)(Z[p_I, p_J] Z[q_I, q_J] +
# Z[p_I, q_J] Z[q_I, p_J]) with Z = M^-1: the four factors' flat indices
_PAIR_AT = np.array([
    4 * _ENTRY_P[:, None] + _ENTRY_P,
    4 * _ENTRY_Q[:, None] + _ENTRY_Q,
    4 * _ENTRY_P[:, None] + _ENTRY_Q,
    4 * _ENTRY_Q[:, None] + _ENTRY_P,
])
_PAIR_WEIGHT = 0.5 * np.outer(_ENTRY_M, _ENTRY_M)


def _placement(size: int, cells) -> np.ndarray:
    """0/1 matrix whose product with a row of values puts value k at
    cells[k] (flat indices, one or several per value) of a row of size
    ``size``: one exact term per cell, so the values are placed bit for bit."""
    place = np.zeros((len(cells), size))
    for k, at in enumerate(cells):
        place[k, at] = 1.0
    return place


# M, flat, is e @ _ENTRY_PLACE + Vt_in
_ENTRY_PLACE = _placement(
    16, [[4 * p + q, 4 * q + p] for p, q in zip(_ENTRY_P, _ENTRY_Q)]
)
# de/dx, flat (6, 6), from its 16 entries that are not identically zero:
# those along t, u and v in turn, each in kind-then-mode order (d x01 / du
# = 0 is left out)
_CHART_PLACE = _placement(36, [
    6 * (2 * kind + mode) + 2 * along + mode
    for along, kinds in enumerate(((0, 1, 2), (0, 2), (0, 1, 2)))
    for kind in kinds
    for mode in range(2)
])
# the symmetric (6, 6) Hessian from its entries (x_a, x_b) of one mode, a <=
# b in (t, u, v), ordered (tt, tu, tv, uu, uv, vv) and then by mode
_CURVATURE_PLACE = _placement(36, [
    [6 * (2 * a + mode) + 2 * b + mode, 6 * (2 * b + mode) + 2 * a + mode]
    for a, b in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
    for mode in range(2)
])


def _make_log_affinity_terms(vt_in: np.ndarray):
    """Batched g = log(affinity / (4 det(Vt_in)^(1/4))) with its derivatives.

    Each row x = (t1, t2, u1, u2, v1, v2) is a point of the smooth chart:
    eta_j = 1/2 - eps + exp(t_j) and u + i v = sinh(2 r) e^{i phi}, so that
    mode j of the candidate's square root is the block
    P_j = eta_j [[w_j + u_j, v_j], [v_j, w_j - u_j]], w = sqrt(1 + u^2 + v^2),
    with no phi degeneracy at r = 0. Then
    g = (log eta1 + log eta2)/2 - log det M / 2 with M = Vt_in + P.

    log det M is differentiated in the six entries e of P's blocks, in the
    layout of x (``_ENTRY_P``, ``_ENTRY_Q``): with Z = M^-1, symmetrized, its
    gradient is m_I Z[p_I, q_I] and its Hessian -Q (``_PAIR_AT``). With the
    chart's Jacobian J = de/dx, the gradient of g takes
    tr(M^-1 dM) = grad_e J and its Hessian tr(M^-1 dM M^-1 dM) = J^T Q J
    and tr(M^-1 d2M). The second derivatives of each block are multiples
    of its first derivatives or of the identity, so tr(M^-1 d2M) follows
    from the first-derivative traces and Z's diagonal.

    ``terms(x)`` maps an (n, 6) array to g (n,), the gradient (n, 6) and
    the Hessian (n, 6, 6). ``terms.value(x)`` returns g alone with a state,
    a tuple of arrays with one row per row of x (M among them), from which
    ``terms.derivatives(state)`` returns the gradient and Hessian; indexing
    every array of a state selects its rows. A row that overflows, as on a
    diverging Newton step, reads NaN.
    """
    eta0 = 0.5 - _ETA_EPS
    vt_flat = vt_in.ravel()
    diag = np.array([[0, 10], [5, 15]])  # Z[2j, 2j] and Z[2j+1, 2j+1], flat

    @np.errstate(all="ignore")
    def value(x: np.ndarray):
        t, u, v = x[:, :2], x[:, 2:4], x[:, 4:]
        et = np.exp(t)
        eta = eta0 + et
        w = np.sqrt(1.0 + u * u + v * v)
        entries = np.concatenate((eta * (w + u), eta * v, eta * (w - u)), axis=1)
        m = (entries @ _ENTRY_PLACE + vt_flat).reshape(-1, 4, 4)
        g = 0.5 * (np.log(eta).sum(axis=1) - np.linalg.slogdet(m)[1])
        return g, (x, et, eta, w, m)

    @np.errstate(all="ignore")
    def derivatives(state):
        x, et, eta, w, m = state
        u, v = x[:, 2:4], x[:, 4:]
        z = np.linalg.inv(m)
        z = (0.5 * (z + z.transpose(0, 2, 1))).reshape(-1, 16)
        pairs = z[:, _PAIR_AT]
        q = _PAIR_WEIGHT * (pairs[:, 0] * pairs[:, 1] + pairs[:, 2] * pairs[:, 3])
        uw, vw = u / w, eta * v / w
        jac = np.concatenate(
            (et * (w + u), et * v, et * (w - u),
             eta * (uw + 1.0), eta * (uw - 1.0),
             vw, eta, vw),
            axis=1,
        ) @ _CHART_PLACE
        jac = jac.reshape(-1, 6, 6)
        tr = ((_ENTRY_M * z[:, _ENTRY_AT])[:, None] @ jac)[:, 0]
        # tr(M^-1 d2M): d2/dt2 and d2/dt d(u, v) repeat the first-derivative
        # blocks scaled by 1 and exp(t)/eta; d2/d(u, v)2 is eta d2w times I.
        # On the (t, t) diagonal it takes d2 log eta / dt2 = ratio eta0 / eta
        # with the opposite sign, as g = (log eta - log det M) / 2.
        ratio = et / eta
        scale = eta * z[:, diag].sum(axis=1) / (w * w * w)
        second = np.concatenate(
            (tr[:, :2] - ratio * eta0 / eta, ratio * tr[:, 2:4], ratio * tr[:, 4:],
             scale * (1.0 + v * v), -scale * u * v, scale * (1.0 + u * u)),
            axis=1,
        ) @ _CURVATURE_PLACE
        hess = 0.5 * (jac.transpose(0, 2, 1) @ q @ jac - second.reshape(-1, 6, 6))
        grad = -0.5 * tr
        grad[:, :2] += 0.5 * ratio
        return grad, hess

    def terms(x: np.ndarray):
        g, state = value(x)
        return (g, *derivatives(state))

    terms.value, terms.derivatives = value, derivatives
    return terms


def _newton_steps(grad: np.ndarray, hess: np.ndarray) -> np.ndarray:
    """The Newton step -H^-1 grad of every lane; NaN, a step that is then
    rejected, on a lane whose Hessian is singular."""
    rhs = -grad[..., None]
    try:
        return np.linalg.solve(hess, rhs)[..., 0]
    except np.linalg.LinAlgError:
        steps = np.full(grad.shape, np.nan)
        for lane in range(len(grad)):
            try:
                steps[lane] = np.linalg.solve(
                    hess[lane : lane + 1], rhs[lane : lane + 1]
                )[0, :, 0]
            except np.linalg.LinAlgError:
                pass
        return steps


def _newton_polish(terms, x, max_iters: int, xtol: float, ftol: float):
    """Maximize g from every row of x by Newton steps run in lockstep.

    ``terms`` is made by ``_make_log_affinity_terms``; the polish reads only
    its ``value`` and ``derivatives``. A lane takes the step -H^-1 grad
    only where g does not decrease, and stops once a step is rejected, once
    every coordinate of its step is below xtol, or once an accepted step
    raises g by less than ftol. The last rule ends lanes whose optimum lies
    on the eta = 1/2 boundary: there t runs to -infinity and each step
    gains only a fixed fraction of what is left. A lane whose Hessian is
    singular, as where exp(t) underflows to 0 on that boundary, stops where
    it is, as on a rejected step. A trial point costs only g: the gradient and Hessian
    are computed for the lanes that go on, so the last trial of every lane
    costs none. Returns (g, x, iterations run).
    """
    x = x.copy()
    g, state = terms.value(x)
    best_g, best_x = g.copy(), x.copy()
    lanes = np.arange(len(x))
    iterations = 0
    while lanes.size and iterations < max_iters:
        iterations += 1
        step = _newton_steps(*terms.derivatives(state))
        trial = x + step
        g_trial, state = terms.value(trial)
        gain = g_trial - g
        accept = gain >= 0.0  # False for NaN, as on a diverging or NaN step
        x[accept], g[accept] = trial[accept], g_trial[accept]
        done = ~accept | (np.abs(step).max(axis=1) < xtol) | (gain < ftol)
        best_x[lanes[done]], best_g[lanes[done]] = x[done], g[done]
        # every lane that goes on took its step: its state is the trial's
        go = ~done
        lanes, x, g = lanes[go], x[go], g[go]
        state = tuple(a[go] for a in state)
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
    searches from them in lockstep, 15 iterations at a time. After each
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
    kt1, kt2 = symplectic_eigenvalues(vt_in).tolist()
    eta_hi = 10.0 * kt1
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
    # det(Vt)^(1/4) = sqrt(kt1 kt2): the cofactor expansion det4 can cancel
    # to the wrong sign on an ill-conditioned root
    quarter_root = math.sqrt(kt1 * kt2)
    search = _simplex_checkpoints(
        _make_negative_affinity(vt_in, quarter_root), x0, _SIMPLEX_STEPS, checkpoints
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
