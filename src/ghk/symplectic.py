"""Symplectic linear algebra over quadrature covariance matrices.

Conventions used throughout the package:
  * quadrature ordering (q1, p1, ..., qn, pn);
  * dimensionless second moments with vacuum variance 1/2, so a state is
    physical exactly when every symplectic eigenvalue is >= 1/2
    (Robertson-Schroedinger uncertainty bound);
  * the "square-root" covariance matrix is the CM of the normalized square
    root of the density operator, obtained by the spectral substitution
    kappa -> kappa + sqrt(kappa^2 - 1/4) in the Williamson normal form.

``StandardForm``, its spectrum and the square-root standard form are float
closed forms of ``ghk.forms``; this module re-exports them and adds the
matrix routes: validation, spectra, Williamson and the reduction to
standard form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import sub

import numpy as np

from .errors import (
    ConsistencyError,
    DegenerateBlocksError,
    DimensionMismatchError,
    InvalidParamsError,
    NonSymmetricError,
    NotPhysicalError,
    NotPositiveDefiniteError,
)
from .forms import (
    StandardForm,
    SymplecticInvariants,
    _checked_form,
    _invariants,
    _radical,
    _sqrt_form,
)
from .tolerances import active_profile

# Relative tolerance demanded from the internal square-root consistency
# identity V = (Vt - J Vt^-1 J / 4) / 2. Breaches raise ConsistencyError:
# they indicate a numerically corrupt input rather than a user error.
SQRT_IDENTITY_RTOL = 1e-8

# The eigenvalues of J V come in +/- pairs; their magnitudes must match to
# this relative tolerance before deduplication.
PAIR_MATCH_RTOL = 1e-7


def symplectic_form(n: int) -> np.ndarray:
    """Return the 2n x 2n matrix J of the symplectic form.

    Block diagonal with [[0, 1], [-1, 0]] per mode; satisfies J @ J = -I
    and J.T = -J.
    """
    if n < 1:
        raise DimensionMismatchError("mode count must be positive")
    j = np.zeros((2 * n, 2 * n))
    for k in range(n):
        j[2 * k, 2 * k + 1] = 1.0
        j[2 * k + 1, 2 * k] = -1.0
    return j


# The two-mode J, shared by every two-mode call.
_J2 = symplectic_form(2)
_J2.flags.writeable = False


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


@dataclass(frozen=True)
class CovarianceMatrix:
    """A 2n x 2n real symmetric matrix of quadrature second moments.

    The constructor validates shape, finiteness and symmetry (within the
    active profile's tolerance), then stores the symmetrized, read-only
    array. Positive definiteness and physicality are checked by the
    operations that need them, so that deliberately unphysical matrices can
    still be represented and interrogated.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        matrix = _symmetrised(self.matrix, active_profile().sym_atol)
        object.__setattr__(self, "matrix", matrix)

    @property
    def n(self) -> int:
        """Number of modes."""
        return self.matrix.shape[0] // 2


def _symmetrised(value, sym_atol: float) -> np.ndarray:
    """The validated, symmetrised matrix of ``value``.

    Checks shape, then finiteness and asymmetry (against ``sym_atol``) on
    the entries taken once as Python floats. Returns the read-only array
    (V + V^T) / 2.
    """
    m = np.asarray(value, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2 or not m.size:
        raise DimensionMismatchError(
            f"covariance matrix must be 2n x 2n, got shape {m.shape}"
        )
    entries = m.ravel().tolist()
    if not all(map(math.isfinite, entries)):
        raise InvalidParamsError("covariance matrix entries must be finite")
    asym = max(map(abs, map(sub, entries, m.T.ravel().tolist())))
    if asym > sym_atol:
        raise NonSymmetricError(
            f"covariance matrix asymmetry {asym:.3e} exceeds tolerance"
        )
    matrix = m + m.T
    matrix *= 0.5
    matrix.flags.writeable = False
    return matrix


def as_covariance(value) -> CovarianceMatrix:
    """Coerce an array-like or CovarianceMatrix to CovarianceMatrix."""
    if isinstance(value, CovarianceMatrix):
        return value
    return CovarianceMatrix(np.asarray(value, dtype=float))


def _cholesky_or_raise(matrix: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError(
            "covariance matrix is not positive definite"
        ) from None


def _spectrum(matrix: np.ndarray) -> list[float]:
    """Symplectic eigenvalues (descending) of a validated covariance matrix.

    Raises NotPositiveDefiniteError from the Cholesky check, and
    ConsistencyError when the +/- partners among the eigenvalues of J V do
    not match in magnitude to PAIR_MATCH_RTOL.
    """
    _cholesky_or_raise(matrix)
    n = matrix.shape[0] // 2
    j = _J2 if n == 2 else symplectic_form(n)
    mags = sorted(map(abs, np.linalg.eigvals(j @ matrix).tolist()))
    kappas = []
    for lo, hi in zip(mags[0::2], mags[1::2]):
        if not abs(lo - hi) <= PAIR_MATCH_RTOL * hi:
            raise ConsistencyError("eigenvalues of J V do not pair up by magnitude")
        kappas.append(0.5 * (lo + hi))
    kappas.reverse()
    return kappas


def symplectic_eigenvalues(V) -> np.ndarray:
    """Symplectic spectrum of a positive-definite covariance matrix.

    The eigenvalues of J V are purely imaginary pairs +/- i kappa_j; the
    kappa_j are returned sorted in descending order. The +/- partners must
    match in magnitude to PAIR_MATCH_RTOL; a mismatch means the input was
    numerically corrupt.
    """
    return np.array(_spectrum(as_covariance(V).matrix))


def _is_physical(matrix: np.ndarray, tol: float) -> bool:
    try:
        kappas = _spectrum(matrix)
    except NotPositiveDefiniteError:
        return False
    return kappas[-1] >= 0.5 - tol


def is_physical(V) -> bool:
    """True iff every symplectic eigenvalue is >= 1/2 (within tolerance)."""
    return _is_physical(as_covariance(V).matrix, active_profile().phys_tol)


def williamson(V) -> tuple[np.ndarray, np.ndarray]:
    """Williamson normal form V = S diag(kappa_j I_2) S^T with S symplectic.

    The symplectic factor is recovered by the Cholesky-plus-orthogonal
    construction: with V = L L^T, the Hermitian matrix i L^T J L has
    eigenvalues +/- kappa_j. For an eigenvector a + i b of +kappa_j, the
    vectors sqrt(2) (b, a) are orthonormal and span the real 2x2 block
    [[0, kappa_j], [-kappa_j, 0]] of L^T J L; eigenvectors of one
    eigenvalue are also orthogonal to each other's conjugates, so this
    holds for degenerate spectra too. Collecting the blocks in Q gives
    S = L Q D^{-1/2}.

    Returns:
        (kappas, S): spectrum sorted descending, modes of S reordered to
        match.
    """
    cov = as_covariance(V)
    n = cov.n
    low = _cholesky_or_raise(cov.matrix)
    skew = low.T @ symplectic_form(n) @ low
    eigvals, eigvecs = np.linalg.eigh(1j * skew)
    # eigh sorts ascending: the last n eigenvalues are the positive kappas
    kappas = eigvals[n:][::-1].copy()
    modes = eigvecs[:, n:][:, ::-1]
    q = np.empty((2 * n, 2 * n))
    q[:, 0::2] = modes.imag
    q[:, 1::2] = modes.real
    s = (low @ (np.sqrt(2.0) * q)) / np.sqrt(np.repeat(kappas, 2))[None, :]
    return kappas, s


def square_root_cm(V) -> CovarianceMatrix:
    """Covariance matrix of the normalized square root of the state.

    Performs a Williamson decomposition and reassembles with the spectrum
    kappa_tilde = kappa + sqrt(kappa^2 - 1/4). The result is validated
    against the identity V = (Vt - J Vt^-1 J / 4) / 2.
    """
    cov = as_covariance(V)
    tol = active_profile().phys_tol
    kappas, s = williamson(cov)
    if kappas[-1] < 0.5 - tol:
        raise NotPhysicalError(
            f"minimal symplectic eigenvalue {kappas[-1]:.6g} is below 1/2"
        )
    kt = [k + _radical(k, tol) for k in kappas.tolist()]
    vt = (s * np.repeat(kt, 2)[None, :]) @ s.T
    out = CovarianceMatrix(0.5 * (vt + vt.T))
    _check_sqrt_identity(cov.matrix, out.matrix)
    return out


def _check_sqrt_identity(v: np.ndarray, vt: np.ndarray) -> None:
    n = v.shape[0] // 2
    j = _J2 if n == 2 else symplectic_form(n)
    recovered = 0.5 * (vt - 0.25 * j @ np.linalg.inv(vt) @ j)
    err = np.max(np.abs(recovered - v)) / max(np.max(np.abs(v)), 1.0)
    if err > SQRT_IDENTITY_RTOL:
        raise ConsistencyError(
            f"square-root CM failed its defining identity (rel err {err:.3e})"
        )


def _unit_root(x00: float, x01: float, x11: float) -> tuple[float, float, float, float]:
    """(b, n00, n01, n11) for a positive-definite block X = [[x00, x01], [x01, x11]].

    b = sqrt(det X), and N = (X + b I) / sqrt(b (tr X + 2 b)) is the
    symmetric square root of X / b: det N = 1, so N is symplectic and
    N diag(b, b) N^T = X. Its inverse is its adjugate.
    """
    b = math.sqrt(x00 * x11 - x01 * x01)
    root = math.sqrt(b * (x00 + x11 + 2.0 * b))
    return b, (x00 + b) / root, x01 / root, (x11 + b) / root


def _reduce(V) -> tuple[StandardForm, tuple[float, ...]]:
    """The one reduction of a two-mode CM to standard form, with every guard.

    Reads the tolerance profile once, validates ``V`` as the
    ``CovarianceMatrix`` constructor does (a ``CovarianceMatrix`` is taken
    as it is), runs the Cholesky and J V pair checks, reduces the entries
    taken once as Python floats, and runs the discriminant guard on the
    same floats. Returns the form and the parts
    (n00, n01, n11, o00, o01, o11, e, f, g, h) of its local frame; see
    ``reduce_to_standard_form``.
    """
    profile = active_profile()
    if isinstance(V, CovarianceMatrix):
        matrix = V.matrix
    else:
        matrix = _symmetrised(V, profile.sym_atol)
    if matrix.shape[0] != 4:
        raise DimensionMismatchError("standard form is defined for two modes")
    if not _is_physical(matrix, profile.phys_tol):
        raise NotPhysicalError("covariance matrix is not a physical state")
    a00, a01, c00, c01, _, a11, c10, c11, _, _, b00, b01, _, _, _, b11 = (
        matrix.ravel().tolist()
    )
    b1, n00, n01, n11 = _unit_root(a00, a01, a11)
    b2, o00, o01, o11 = _unit_root(b00, b01, b11)
    # M = adj(N1) C adj(N2)
    t00 = n11 * c00 - n01 * c10
    t01 = n11 * c01 - n01 * c11
    t10 = n00 * c10 - n01 * c00
    t11 = n00 * c11 - n01 * c01
    m00 = t00 * o11 - t01 * o01
    m01 = t01 * o00 - t00 * o01
    m10 = t10 * o11 - t11 * o01
    m11 = t11 * o00 - t10 * o01
    e, f = 0.5 * (m00 + m11), 0.5 * (m00 - m11)
    g, h = 0.5 * (m10 + m01), 0.5 * (m10 - m01)
    q, r = math.hypot(e, h), math.hypot(f, g)
    sf = _checked_form(profile.phys_tol, b1, b2, q + r, q - r)
    # Discriminant guard: c^2 and d^2 solve x^2 - s x + det(C)^2 = 0 with
    # s = (b1^2 b2^2 + det(C)^2 - det V) / (b1 b2), and
    # det V = det A det B + det(C)^2 - tr(adj A C adj B C^T).
    p = c00 * c11 - c01 * c10
    w00 = a11 * (c00 * b11 - c01 * b01) - a01 * (c10 * b11 - c11 * b01)
    w01 = a11 * (c01 * b00 - c00 * b01) - a01 * (c11 * b00 - c10 * b01)
    w10 = a00 * (c10 * b11 - c11 * b01) - a01 * (c00 * b11 - c01 * b01)
    w11 = a00 * (c11 * b00 - c10 * b01) - a01 * (c01 * b00 - c00 * b01)
    det_v = (
        (a00 * a11 - a01 * a01) * (b00 * b11 - b01 * b01)
        + p * p
        - (c00 * w00 + c01 * w01 + c10 * w10 + c11 * w11)
    )
    beta = sf.b1 * sf.b2
    s = (beta * beta + p * p - det_v) / beta
    if s * s - 4.0 * p * p < -1e-9 * max(1.0, s * s):
        raise DegenerateBlocksError(
            "no real cross-correlation parameters reproduce the invariants"
        )
    return sf, (n00, n01, n11, o00, o01, o11, e, f, g, h)


def standard_form(V) -> StandardForm:
    """Reduce a physical two-mode CM to its standard-form parameters.

    b1 and b2 are the square roots of the diagonal-block determinants; c
    and d solve c d = det(C) and (b1 b2 - c^2)(b1 b2 - d^2) = det(V) with
    the convention c >= |d| and sign(d) = sign(det C). The solution is
    extracted through a proper-rotation SVD of the cross block, which
    stays exact at the double root c = |d| where the equivalent quadratic
    in (c^2, d^2) loses half the working precision; the quadratic's
    discriminant is still evaluated, from block determinants, as a
    corrupt-input guard. The scale factors are not recovered (they are
    unobservable in every correlation measure) and are emitted as 1.

    This is the reduction of ``reduce_to_standard_form``, with the same
    guards and one read of the tolerance profile, without building the
    frame.
    """
    return _reduce(V)[0]


def _framed_reduction(V) -> tuple[StandardForm, list[list[float]]]:
    """``reduce_to_standard_form`` with the rows of S as Python floats."""
    sf, (n00, n01, n11, o00, o01, o11, e, f, g, h) = _reduce(V)
    a1, a2 = math.atan2(g, f), math.atan2(h, e)
    phi, theta = 0.5 * (a2 + a1), 0.5 * (a2 - a1)
    cp, sp = math.cos(phi), math.sin(phi)
    ct, st = math.cos(theta), math.sin(theta)
    # S = N1 R(phi) (+) N2 R(theta)^T
    return sf, [
        [n00 * cp + n01 * sp, n01 * cp - n00 * sp, 0.0, 0.0],
        [n01 * cp + n11 * sp, n11 * cp - n01 * sp, 0.0, 0.0],
        [0.0, 0.0, o00 * ct - o01 * st, o00 * st + o01 * ct],
        [0.0, 0.0, o01 * ct - o11 * st, o01 * st + o11 * ct],
    ]


def reduce_to_standard_form(V) -> tuple[StandardForm, np.ndarray]:
    """Bring a two-mode CM to standard form by tracked local symplectics.

    Returns (sf, S) with sf the unscaled standard form (s1 = s2 = 1) and S
    a block-diagonal local symplectic such that
    V = S @ sf.to_cm().matrix @ S.T. Unlike ``standard_form`` this keeps
    the frame information, which is needed to map product-state solutions
    back into the caller's frame.

    Each diagonal block X_j = N_j b_j N_j^T is brought to b_j I by its
    det-1 square root N_j. The normalized cross block
    M = adj(N_1) C adj(N_2) then has the proper-rotation SVD
    M = R(phi) diag(c, d) R(theta), in closed form: with
    e, f, g, h = (m00 + m11, m00 - m11, m10 + m01, m10 - m01) / 2,
    c = hypot(e, h) + hypot(f, g), d = hypot(e, h) - hypot(f, g) (so
    c >= |d| and sign(d) = sign(det C)), and phi +/- theta = atan2(h, e)
    +/- atan2(g, f). A cross block with c = -d exactly, such as
    diag(c, -c), keeps d = -c to the last bit. The arithmetic runs on
    Python floats taken once from the validated input, under one read of
    the tolerance profile, and only S is built as an array. The guards
    are those of ``standard_form``: validation, the Cholesky and J V pair
    checks, and the discriminant guard.
    """
    sf, rows = _framed_reduction(V)
    return sf, np.array(rows)


def invariants_from_spectrum(kappas) -> SymplecticInvariants:
    """Evaluate the invariants directly from a two-mode spectrum.

    Within phys_tol of a pure mode the factor (kappa - 1/2) is taken as
    exactly zero, matching the pure-mode limit used for the square-root
    spectrum; the factorization of K through the M and N products then
    holds identically at the boundary.
    """
    return _invariants(float(kappas[0]), float(kappas[1]), active_profile().phys_tol)


def square_root_standard_form(sf: StandardForm) -> StandardForm:
    """Standard form of the square-root state, in closed form.

    Elementwise transform of (b1, b2, c, d, s1, s2) built from the
    invariants K and L; must agree with the Williamson route
    ``square_root_cm`` on the rebuilt matrix. When both modes are pure the
    prefactor 1/(4 kappa1 kappa2 K) degenerates and the analytic limit is
    the state itself (the square root of a pure state is the state).
    """
    return _sqrt_form(sf, active_profile().phys_tol, sf.spectrum())
