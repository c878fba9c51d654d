"""Brute-force product-state search and photon-number oracles."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from ghk import (
    MtsParams,
    NotConvergedError,
    NotPhysicalError,
    NotPositiveDefiniteError,
    StandardForm,
    StsParams,
    TruncationInsufficientError,
    fock_affinity_diagonal,
    fock_thermal_spectrum,
    fock_trace_distance_diagonal,
    is_physical,
    max_affinity,
    mts_standard_form,
    oracle_max_affinity,
    random_standard_form,
    square_root_cm,
    sts_standard_form,
    symplectic_eigenvalues,
    verify_phi_zero,
)
import ghk.symplectic
from ghk import oracle as oracle_module
from ghk.errors import GhkError
from ghk.oracle import _nelder_mead, _newton_polish, _simplex_checkpoints
from ghk.symplectic import _williamson_root, as_covariance
from test_report import framed_tmsv_grid, near_boundary_matrices


def tmsv_form(r):
    b = 0.5 * math.cosh(2 * r)
    c = 0.5 * math.sinh(2 * r)
    return StandardForm(b, b, c, -c)


def scalar_nelder_mead(fn, x0, steps, max_iters):
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
            lockstep(bowl), [[4.0, 4.0], [-3.0, 1.0]], [0.5, 0.5], max_iters=500
        )
        for value, point in zip(values, points):
            assert value == pytest.approx(0.5, abs=1e-10)
            assert point[0] == pytest.approx(1.0, abs=1e-5)
            assert point[1] == pytest.approx(-2.0, abs=1e-5)

    def test_rosenbrock_progress(self):
        values, _ = _nelder_mead(
            lockstep(rosenbrock), [[-1.0, 1.0]], [0.4, 0.4], max_iters=4000
        )
        assert values[0] < 1e-9

    @pytest.mark.parametrize(
        "fn, dim, max_iters, every",
        [
            pytest.param(rosenbrock, 2, 60, None, id="rosenbrock-2-60"),
            pytest.param(rosenbrock, 2, 3000, None, id="rosenbrock-2-3000"),
            pytest.param(quartic, 3, 130, None, id="quartic-3-130"),
            pytest.param(rosenbrock, 2, 60, 20, id="rosenbrock-2-60-every-20"),
        ],
    )
    def test_lanes_match_scalar_reference(self, fn, dim, max_iters, every):
        # +, -, * and / round identically on python floats and numpy
        # arrays, so every lane must reproduce the scalar search bit for bit,
        # after a short budget and long after its simplex has collapsed. A
        # search paused every `every` iterations must match the scalar search
        # of each checkpoint's budget, and at the last the uninterrupted one.
        x0 = np.random.default_rng(5).uniform(-2.0, 2.0, (7, dim))
        steps = [0.3, 0.6, 0.45][:dim]
        uninterrupted = _nelder_mead(lockstep(fn), x0, steps, max_iters)
        if every is None:
            runs = [(max_iters, uninterrupted)]
        else:
            budgets = range(every, max_iters + 1, every)
            runs = list(
                zip(budgets, _simplex_checkpoints(lockstep(fn), x0, steps, budgets))
            )
            assert [budget for budget, _ in runs] == [20, 40, 60]
            for last, whole in zip(runs[-1][1], uninterrupted):
                assert last.tolist() == whole.tolist()
        for budget, (values, points) in runs:
            for start, value, point in zip(x0, values, points):
                ref_value, ref_point = scalar_nelder_mead(
                    fn, start.tolist(), steps, budget
                )
                assert value == ref_value
                assert point.tolist() == ref_point


class TestOracleMaxAffinity:
    def test_product_input(self):
        value, params = oracle_max_affinity(
            np.diag([1.5, 1.5, 0.7, 0.7]), np.random.default_rng(1)
        )
        assert value == pytest.approx(1.0, abs=1e-9)
        kt1 = 1.5 + math.sqrt(2.0)
        kt2 = 0.7 + math.sqrt(0.7**2 - 0.25)
        got = sorted([params.eta1, params.eta2], reverse=True)
        assert got[0] == pytest.approx(kt1, abs=1e-4)
        assert got[1] == pytest.approx(kt2, abs=1e-4)

    def test_symmetric_mode_mixed(self):
        cm = StandardForm(1.5, 1.5, 1.0, 1.0).to_cm()
        value, params = oracle_max_affinity(cm, np.random.default_rng(2))
        assert value == pytest.approx(2.0 / (math.sqrt(3.0) + 1.0), abs=1e-7)
        assert abs(params.r1) < 1e-4 and abs(params.r2) < 1e-4

    def test_two_mode_squeezed_vacuum(self):
        cm = tmsv_form(0.8).to_cm()
        value, params = oracle_max_affinity(cm, np.random.default_rng(3))
        assert value == pytest.approx(1.0 / math.cosh(0.8) ** 2, abs=1e-7)
        assert params.eta1 == pytest.approx(0.5, abs=1e-4)
        assert params.eta2 == pytest.approx(0.5, abs=1e-4)

    def test_never_beats_closed_form_and_recovers_it(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            sf = random_standard_form(rng)
            cm = sf.to_cm()
            closed = max_affinity(cm)
            value, params = oracle_max_affinity(cm, rng)
            assert value <= closed + 1e-7
            assert value >= closed - 1e-5
            # optimal eta product equals the sqrt-spectrum product
            kt = [k + math.sqrt(k * k - 0.25) for k in sf.spectrum()]
            assert params.eta1 * params.eta2 == pytest.approx(
                kt[0] * kt[1], abs=1e-4, rel=1e-4
            )

    def test_unphysical_input_is_rejected_by_the_williamson_route(self):
        # square_root_cm decides, not the closed-form physicality check
        with pytest.raises(NotPhysicalError):
            oracle_max_affinity(0.4 * np.eye(4))
        with pytest.raises(NotPositiveDefiniteError):
            oracle_max_affinity(np.diag([1.0, 1.0, 1.0, -1.0]))

    def test_reads_no_two_mode_route_of_square_root_cm(self, monkeypatch):
        # the oracle certifies square_root_cm, so it takes its root from
        # Williamson: its values do not move when the two-mode route fails
        rng = np.random.default_rng(20240817)  # criterion 2's forms
        cms = [random_standard_form(rng).to_cm() for _ in range(3)]
        expected = [oracle_max_affinity(cm, np.random.default_rng(99)) for cm in cms]

        def refuse(cov):
            raise AssertionError("the oracle read the two-mode square root")

        monkeypatch.setattr(ghk.symplectic, "_two_mode_root", refuse)
        fields = ("eta1", "eta2", "r1", "r2", "phi1", "phi2")
        for cm, (value, params) in zip(cms, expected):
            again, again_params = oracle_max_affinity(cm, np.random.default_rng(99))
            assert again == value
            for name in fields:
                assert getattr(again_params, name) == getattr(params, name)
        with pytest.raises(AssertionError, match="two-mode square root"):
            square_root_cm(cms[0])

    def test_disagreeing_starts_raise(self, monkeypatch):
        # one simplex step and no polish leave the best two starts far apart
        monkeypatch.setattr(oracle_module, "_SIMPLEX_ITERS", 1)
        monkeypatch.setattr(oracle_module, "_NEWTON_ITERS", 0)
        cm = StandardForm(2.0, 1.5, 1.0, -0.5).to_cm()
        with pytest.raises(NotConvergedError, match="best two starts disagree"):
            oracle_max_affinity(cm)

    def test_rng_draws_two_etas_then_four_coordinates_per_start(self, monkeypatch):
        seen = []

        def recording(fn, x0, *args):
            seen.append(x0.copy())
            return _simplex_checkpoints(fn, x0, *args)

        monkeypatch.setattr(oracle_module, "_simplex_checkpoints", recording)
        cm = StandardForm(2.0, 1.5, 1.0, -0.5).to_cm()
        rng = np.random.default_rng(13)
        oracle_max_affinity(cm, rng)
        # the box: eta in [1/2, 10 max(kt)], r in [-5, 5], phi in [-pi, pi],
        # kt of the oracle's own Williamson root
        vt = ghk.symplectic._williamson_root(cm).matrix
        eta_hi = 10.0 * max(symplectic_eigenvalues(vt))
        twin = np.random.default_rng(13)
        expected = []
        for _ in range(32):
            etas = twin.uniform(0.5, eta_hi, 2)
            expected.append(
                [math.log(eta - 0.5 + oracle_module._ETA_EPS) for eta in etas]
                + [twin.uniform(-5.0, 5.0) for _ in range(2)]
                + [twin.uniform(-math.pi, math.pi) for _ in range(2)]
            )
        assert seen[0].tolist() == expected
        assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize(
        "cm, seed, exit_checkpoint",
        [
            pytest.param(
                sts_standard_form(StsParams(0.5, 1.5, 0.9)).to_cm(), 8, 1, id="sts"
            ),
            pytest.param(
                mts_standard_form(MtsParams(2.0, 0.7, 1.1)).to_cm(), 19, 2, id="mts"
            ),
        ],
    )
    def test_exit_checkpoint(self, monkeypatch, cm, seed, exit_checkpoint):
        # one polish per checkpoint reached; the search ends at the first
        # where the two best polished starts agree
        searches, polished = [], []
        search, polish = oracle_module._simplex_checkpoints, oracle_module._newton_polish

        def recording_search(*args):
            searches.append(args)
            return search(*args)

        def recording_polish(terms, x, *args):
            polished.append(x.copy())
            return polish(terms, x, *args)

        monkeypatch.setattr(oracle_module, "_simplex_checkpoints", recording_search)
        monkeypatch.setattr(oracle_module, "_newton_polish", recording_polish)
        value, params = oracle_max_affinity(cm, np.random.default_rng(seed))
        assert len(polished) == exit_checkpoint
        # one checkpoint at the cap: the simplex runs 60 iterations before
        # the only polish, as one uninterrupted search does
        monkeypatch.setattr(oracle_module, "_SIMPLEX_CHECKPOINT", 60)
        polished.clear()
        whole_value, whole_params = oracle_max_affinity(cm, np.random.default_rng(seed))
        assert len(polished) == 1
        fn, x0, steps, checkpoints = searches[-1]
        assert list(checkpoints) == [60]
        _, x = _nelder_mead(fn, x0, steps, 60)
        sinh = np.sinh(2.0 * x[:, 2:4])
        chart = np.hstack([x[:, :2], sinh * np.cos(x[:, 4:]), sinh * np.sin(x[:, 4:])])
        assert polished[0].tolist() == chart.tolist()
        assert value == pytest.approx(whole_value, abs=1e-12)
        assert whole_value == pytest.approx(max_affinity(cm), abs=1e-12)
        # the angles are arbitrary where r vanishes, as for these states
        optimum = [params.eta1, params.eta2, params.r1, params.r2]
        assert optimum == pytest.approx(
            [whole_params.eta1, whole_params.eta2, whole_params.r1, whole_params.r2],
            abs=1e-6,
        )

    def test_most_states_exit_at_the_first_checkpoint(self, monkeypatch):
        # criterion 2's first 100 states with its generators: simplex steps
        # sized to the search box let nearly every state stop after one polish
        polishes = []
        polish = oracle_module._newton_polish

        def recording_polish(*args):
            polishes[-1] += 1
            return polish(*args)

        monkeypatch.setattr(oracle_module, "_newton_polish", recording_polish)
        forms, rng = np.random.default_rng(20240817), np.random.default_rng(99)
        for _ in range(100):
            polishes.append(0)
            oracle_max_affinity(random_standard_form(forms).to_cm(), rng)
        assert polishes.count(1) >= 94

    def test_deterministic_given_rng(self):
        cm = sts_standard_form(StsParams(1.0, 2.0, 0.7)).to_cm()
        a, _ = oracle_max_affinity(cm, np.random.default_rng(7))
        b, _ = oracle_max_affinity(cm, np.random.default_rng(7))
        assert a == b


def random_lanes(rng, n):
    """Points (t1, t2, u1, u2, v1, v2) of the polish's smooth chart."""
    return np.column_stack(
        [rng.uniform(-3.0, 1.5, (n, 2)), rng.uniform(-1.5, 1.5, (n, 4))]
    )


def tensor_terms(vt_in, x):
    """Reference: g, gradient and Hessian of the polish's objective from the
    (n, 6, 4, 4) tensor of derivative blocks dM, with tr(M^-1 dM) and
    tr(M^-1 dM M^-1 dM) taken matrix by matrix."""
    eta0 = 0.5 - oracle_module._ETA_EPS
    mode = np.arange(2)
    rows, cols = 2 * mode, 2 * mode + 1
    tu, tv = mode + 2, mode + 4
    with np.errstate(all="ignore"):
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


def reference_polish(terms, x, max_iters, xtol, ftol):
    """Reference: the Newton polish evaluating g, gradient and Hessian at
    every trial point of every lane."""
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
        accept = gain >= 0.0
        x[accept], g[accept] = trial[accept], g_trial[accept]
        grad[accept], hess[accept] = grad_trial[accept], hess_trial[accept]
        done = ~accept | (np.abs(step).max(axis=1) < xtol) | (gain < ftol)
        best_x[lanes[done]], best_g[lanes[done]] = x[done], g[done]
        go = ~done
        lanes, x, g = lanes[go], x[go], g[go]
        grad, hess = grad[go], hess[go]
    best_x[lanes], best_g[lanes] = x, g
    return best_g, best_x, iterations


def pool_roots():
    """Williamson roots, ill-conditioned, of the accepted pool matrices
    that the oracle can root."""
    roots = []
    for m in near_boundary_matrices() + framed_tmsv_grid():
        if is_physical(m):
            try:
                roots.append(_williamson_root(as_covariance(m)).matrix)
            except GhkError:
                continue
    return roots


def quartic_terms(singular_at):
    """Stub terms: g = -sum(d^2 + d^4) with d = x - 0.3, whose Hessian has a
    zero first row and column on the lanes with x[0] == singular_at."""

    def value(x):
        d = x - 0.3
        return -(d * d + d**4).sum(axis=1), (x,)

    def derivatives(state):
        (x,) = state
        d = x - 0.3
        hess = np.zeros(x.shape + (6,))
        hess[:, range(6), range(6)] = -2.0 - 12.0 * d * d
        hess[x[:, 0] == singular_at, 0, 0] = 0.0
        return -2.0 * d - 4.0 * d**3, hess

    return SimpleNamespace(value=value, derivatives=derivatives)


class TestNewtonPolish:
    def test_derivatives_match_central_differences(self):
        rng = np.random.default_rng(21)
        for _ in range(6):
            sf = random_standard_form(rng)
            terms = oracle_module._make_log_affinity_terms(
                square_root_cm(sf.to_cm()).matrix
            )
            x = random_lanes(rng, 5)
            _, grad, hess = terms(x)

            def g(shift):
                return terms(x + shift)[0]

            h, hh = 1e-5, 2e-4
            eye = np.eye(6)
            fd_grad = np.empty_like(grad)
            fd_hess = np.empty_like(hess)
            for i, ei in enumerate(eye):
                fd_grad[:, i] = (g(h * ei) - g(-h * ei)) / (2 * h)
                for j, ej in enumerate(eye):
                    fd_hess[:, i, j] = (
                        g(hh * (ei + ej)) - g(hh * (ei - ej))
                        - g(hh * (ej - ei)) + g(-hh * (ei + ej))
                    ) / (4 * hh * hh)
            for fd, exact in ((fd_grad, grad), (fd_hess, hess)):
                error = np.abs(fd - exact).reshape(len(x), -1).max(axis=1)
                scale = np.abs(exact).reshape(len(x), -1).max(axis=1)
                assert np.all(error <= 1e-6 * scale)

    def test_entry_derivatives_match_the_tensor_reference(self):
        rng = np.random.default_rng(23)
        roots = [
            square_root_cm(random_standard_form(rng).to_cm()).matrix
            for _ in range(20)
        ]
        for vt in roots + pool_roots():
            x = random_lanes(rng, 8)
            g, grad, hess = oracle_module._make_log_affinity_terms(vt)(x)
            ref_g, ref_grad, ref_hess = tensor_terms(vt, x)
            assert g.tolist() == ref_g.tolist()
            for new, ref in ((grad, ref_grad), (hess, ref_hess)):
                error = np.abs(new - ref).reshape(len(x), -1).max(axis=1)
                scale = np.abs(ref).reshape(len(x), -1).max(axis=1)
                assert np.all(error <= 1e-12 * scale)

    def test_polish_matches_a_loop_on_full_terms(self, monkeypatch):
        # derivatives only for the lanes that go on change no lane's path
        polished = []

        def checked(terms, x, *args):
            out = _newton_polish(terms, x, *args)
            ref = reference_polish(terms, x, *args)
            assert out[0].tolist() == ref[0].tolist()
            assert out[1].tolist() == ref[1].tolist()
            assert out[2] == ref[2]
            polished.append(out[2])
            return out

        monkeypatch.setattr(oracle_module, "_newton_polish", checked)
        forms, rng = np.random.default_rng(20240817), np.random.default_rng(99)
        for _ in range(20):
            oracle_max_affinity(random_standard_form(forms).to_cm(), rng)
        assert len(polished) >= 20 and max(polished) > 3
        polished.clear()
        rng = np.random.default_rng(1)
        for m in framed_tmsv_grid()[::25]:
            try:
                oracle_max_affinity(m, rng)
            except GhkError:
                continue
        assert polished

    def test_a_singular_hessian_ends_its_lane_where_it_is(self):
        terms = quartic_terms(singular_at=7.0)
        x = np.array([
            [1.0, -0.5, 2.0, 0.0, 0.7, -1.2],
            [7.0, 1.0, 1.0, 1.0, 1.0, 1.0],
            [-1.0, 0.9, 0.1, 1.5, -0.4, 0.3],
        ])
        g, best, iterations = _newton_polish(terms, x, 30, 1e-8, 1e-10)
        assert best[1].tolist() == x[1].tolist()
        assert g[1] == terms.value(x[1:2])[0][0]
        others = [0, 2]
        g_others, best_others, iterations_others = _newton_polish(
            terms, x[others], 30, 1e-8, 1e-10
        )
        assert g[others].tolist() == g_others.tolist()
        assert best[others].tolist() == best_others.tolist()
        assert iterations == iterations_others > 1

    def test_boundary_optimum_stops_before_the_cap(self, monkeypatch):
        # the pure state's optimum has eta = 1/2, where t runs to -infinity
        runs = []
        polish = oracle_module._newton_polish

        def recording(*args):
            out = polish(*args)
            runs.append(out[2])
            return out

        monkeypatch.setattr(oracle_module, "_newton_polish", recording)
        cm = tmsv_form(1.3).to_cm()
        value, params = oracle_max_affinity(cm, np.random.default_rng(6))
        assert runs[0] < oracle_module._NEWTON_ITERS
        assert value == pytest.approx(1.0 / math.cosh(1.3) ** 2, abs=1e-9)
        assert params.eta1 == pytest.approx(0.5, abs=1e-4)
        assert params.eta2 == pytest.approx(0.5, abs=1e-4)


class TestVerifyPhiZero:
    def test_squeezed_thermal(self):
        cm = sts_standard_form(StsParams(0.5, 1.5, 0.9)).to_cm()
        assert verify_phi_zero(cm, np.random.default_rng(8))

    def test_mode_mixed(self):
        cm = mts_standard_form(MtsParams(2.0, 0.7, 1.1)).to_cm()
        assert verify_phi_zero(cm, np.random.default_rng(9))

    def test_product_vacuously_true(self):
        assert verify_phi_zero(
            np.diag([1.2, 1.2, 0.8, 0.8]), np.random.default_rng(10)
        )

    def test_generic_asymmetric_state(self):
        cm = StandardForm(2.0, 1.2, 0.8, -0.3).to_cm()
        assert verify_phi_zero(cm, np.random.default_rng(11))


class TestFockThermalSpectrum:
    def test_vacuum(self):
        p = fock_thermal_spectrum(0.0)
        assert p[0] == 1.0
        assert np.all(p[1:] == 0.0)

    def test_unit_occupancy_geometric(self):
        p = fock_thermal_spectrum(1.0)
        np.testing.assert_allclose(p[:4], [0.5, 0.25, 0.125, 0.0625], rtol=1e-14)

    def test_tail_certified(self):
        p = fock_thermal_spectrum(5.0)
        assert len(p) == 401
        tail = (5.0 / 6.0) ** len(p)
        assert tail < 1e-12
        # analytic tail certified; the sum check is limited by float addition
        assert np.sum(p) == pytest.approx(1.0, abs=1e-13)

    def test_truncation_escalates(self):
        # (ratio)^401 is above 1e-12 at nbar = 50; 1 601 terms take it below
        p = fock_thermal_spectrum(50.0)
        assert len(p) == 1601
        assert (50.0 / 51.0) ** len(p) < 1e-12
        assert np.sum(p) == pytest.approx(1.0, abs=1e-11)

    def test_truncation_insufficient(self):
        # the tail at nbar = 1 000 needs more than 2^14 terms
        with pytest.raises(TruncationInsufficientError):
            fock_thermal_spectrum(1000.0)

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

