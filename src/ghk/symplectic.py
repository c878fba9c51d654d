"""Symplectic linear algebra over quadrature covariance matrices.

Conventions used throughout the package:
  * quadrature ordering (q1, p1, ..., qn, pn);
  * dimensionless second moments with vacuum variance 1/2, so a state is
    physical exactly when every symplectic eigenvalue is >= 1/2
    (Robertson-Schroedinger uncertainty bound);
  * the "square-root" covariance matrix is the CM of the normalized square
    root of the density operator, obtained by the spectral substitution
    kappa -> kappa + sqrt(kappa^2 - 1/4) in the Williamson normal form.
"""

from __future__ import annotations

from dataclasses import dataclass

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
from .tolerances import active_profile

# Relative tolerance demanded from the internal square-root consistency
# identity V = (Vt - J Vt^-1 J / 4) / 2 and from the two determinant routes
# to the invariant D. Breaches raise ConsistencyError: they indicate a
# numerically corrupt input rather than a user error.
SQRT_IDENTITY_RTOL = 1e-8
DET_IDENTITY_RTOL = 1e-9

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
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2 or not m.size:
            raise DimensionMismatchError(
                f"covariance matrix must be 2n x 2n, got shape {m.shape}"
            )
        if not np.all(np.isfinite(m)):
            raise InvalidParamsError("covariance matrix entries must be finite")
        asym = float(np.max(np.abs(m - m.T)))
        if asym > active_profile().sym_atol:
            raise NonSymmetricError(
                f"covariance matrix asymmetry {asym:.3e} exceeds tolerance"
            )
        m = 0.5 * (m + m.T)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        """Number of modes."""
        return self.matrix.shape[0] // 2


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


def symplectic_eigenvalues(V) -> np.ndarray:
    """Symplectic spectrum of a positive-definite covariance matrix.

    The eigenvalues of J V are purely imaginary pairs +/- i kappa_j; the
    kappa_j are returned sorted in descending order. The +/- partners must
    match in magnitude to PAIR_MATCH_RTOL; a mismatch means the input was
    numerically corrupt.
    """
    cov = as_covariance(V)
    _cholesky_or_raise(cov.matrix)
    eigs = np.linalg.eigvals(symplectic_form(cov.n) @ cov.matrix)
    mags = np.sort(np.abs(eigs))
    lo, hi = mags[0::2], mags[1::2]
    if not np.all(np.abs(lo - hi) <= PAIR_MATCH_RTOL * np.abs(hi)):
        raise ConsistencyError("eigenvalues of J V do not pair up by magnitude")
    return (0.5 * (lo + hi))[::-1].copy()


def is_physical(V) -> bool:
    """True iff every symplectic eigenvalue is >= 1/2 (within tolerance)."""
    cov = as_covariance(V)
    try:
        kappas = symplectic_eigenvalues(cov)
    except NotPositiveDefiniteError:
        return False
    return bool(kappas[-1] >= 0.5 - active_profile().phys_tol)


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


def _sqrt_radicals(kappas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return (sqrt(kappa^2 - 1/4), kappa_tilde) with the pure-mode limit.

    Within phys_tol of a pure mode the radical is set to zero and
    kappa_tilde to kappa: the exact limit for genuinely pure modes, and the
    only stable choice since d(sqrt(kappa^2 - 1/4))/d kappa diverges at 1/2.
    """
    tol = active_profile().phys_tol
    rad = np.where(
        kappas - 0.5 < tol, 0.0, np.sqrt(np.maximum(kappas * kappas - 0.25, 0.0))
    )
    return rad, kappas + rad


def square_root_cm(V) -> CovarianceMatrix:
    """Covariance matrix of the normalized square root of the state.

    Performs a Williamson decomposition and reassembles with the spectrum
    kappa_tilde = kappa + sqrt(kappa^2 - 1/4). The result is validated
    against the identity V = (Vt - J Vt^-1 J / 4) / 2.
    """
    cov = as_covariance(V)
    kappas, s = williamson(cov)
    if kappas[-1] < 0.5 - active_profile().phys_tol:
        raise NotPhysicalError(
            f"minimal symplectic eigenvalue {kappas[-1]:.6g} is below 1/2"
        )
    _, kt = _sqrt_radicals(kappas)
    vt = (s * np.repeat(kt, 2)[None, :]) @ s.T
    out = CovarianceMatrix(0.5 * (vt + vt.T))
    _check_sqrt_identity(cov.matrix, out.matrix)
    return out


def _check_sqrt_identity(v: np.ndarray, vt: np.ndarray) -> None:
    n = v.shape[0] // 2
    j = symplectic_form(n)
    recovered = 0.5 * (vt - 0.25 * j @ np.linalg.inv(vt) @ j)
    err = np.max(np.abs(recovered - v)) / max(np.max(np.abs(v)), 1.0)
    if err > SQRT_IDENTITY_RTOL:
        raise ConsistencyError(
            f"square-root CM failed its defining identity (rel err {err:.3e})"
        )


@dataclass(frozen=True)
class StandardForm:
    """Scaled two-mode standard-form parameters (b1, b2, c, d, s1, s2).

    b1, b2 are the diagonal-block strengths (>= 1/2 for physical states),
    c and d the cross-correlations of the position-like and momentum-like
    quadratures (convention c >= |d|), s1, s2 local squeeze scale factors
    (> 0). The corresponding matrix has blocks diag(b_j s_j, b_j / s_j) on
    the diagonal and diag(c sqrt(s1 s2), d / sqrt(s1 s2)) off it.
    """

    b1: float
    b2: float
    c: float
    d: float
    s1: float = 1.0
    s2: float = 1.0

    def __post_init__(self) -> None:
        vals = [float(getattr(self, f)) for f in ("b1", "b2", "c", "d", "s1", "s2")]
        if not all(np.isfinite(vals)):
            raise InvalidParamsError("standard-form parameters must be finite")
        for name, value in zip(("b1", "b2", "c", "d", "s1", "s2"), vals):
            object.__setattr__(self, name, value)
        tol = active_profile().phys_tol
        if self.b1 < 0.5 - tol or self.b2 < 0.5 - tol:
            raise NotPhysicalError("diagonal strengths b1, b2 must be >= 1/2")
        if self.s1 <= 0 or self.s2 <= 0:
            raise InvalidParamsError("scale factors must be positive")
        if self.c < abs(self.d) - 1e-12 * max(1.0, abs(self.d)):
            raise InvalidParamsError("standard form requires c >= |d|")

    def to_cm(self) -> CovarianceMatrix:
        """Rebuild the 4x4 covariance matrix."""
        root = np.sqrt(self.s1 * self.s2)
        m = np.zeros((4, 4))
        m[0, 0] = self.b1 * self.s1
        m[1, 1] = self.b1 / self.s1
        m[2, 2] = self.b2 * self.s2
        m[3, 3] = self.b2 / self.s2
        m[0, 2] = m[2, 0] = self.c * root
        m[1, 3] = m[3, 1] = self.d / root
        return CovarianceMatrix(m)

    def cm_determinant(self) -> float:
        """det V = (b1 b2 - c^2)(b1 b2 - d^2); independent of the scales."""
        bb = self.b1 * self.b2
        return (bb - self.c * self.c) * (bb - self.d * self.d)

    def spectrum(self) -> tuple[float, float]:
        """Symplectic eigenvalues (descending) from the closed quadratic."""
        delta = self.b1 * self.b1 + self.b2 * self.b2 + 2.0 * self.c * self.d
        det_v = self.cm_determinant()
        disc = np.sqrt(max(delta * delta - 4.0 * det_v, 0.0))
        k1 = np.sqrt(max((delta + disc) / 2.0, 0.0))
        k2 = np.sqrt(max((delta - disc) / 2.0, 0.0))
        return float(k1), float(k2)

    def partial_transpose(self) -> "StandardForm":
        """Standard form of the partial transpose (d -> -d)."""
        return StandardForm(self.b1, self.b2, self.c, -self.d, self.s1, self.s2)


def standard_form(V) -> StandardForm:
    """Reduce a physical two-mode CM to its standard-form parameters.

    b1 and b2 are the square roots of the diagonal-block determinants; c
    and d solve c d = det(C) and (b1 b2 - c^2)(b1 b2 - d^2) = det(V) with
    the convention c >= |d| and sign(d) = sign(det C). The solution is
    extracted through a proper-rotation SVD of the cross block, which
    stays exact at the double root c = |d| where the equivalent quadratic
    in (c^2, d^2) loses half the working precision; the quadratic's
    discriminant is still evaluated, from cofactor determinants, as a
    corrupt-input guard. The scale factors are not recovered (they are
    unobservable in every correlation measure) and are emitted as 1.
    """
    cov = as_covariance(V)
    sf, _ = reduce_to_standard_form(cov)
    m = cov.matrix
    p = det2(m[:2, 2:])
    q = det4(m)
    beta = sf.b1 * sf.b2
    s = (beta * beta + p * p - q) / beta
    if s * s - 4.0 * p * p < -1e-9 * max(1.0, s * s):
        raise DegenerateBlocksError(
            "no real cross-correlation parameters reproduce the invariants"
        )
    return sf


def _sqrtm2(block: np.ndarray) -> np.ndarray:
    """Symmetric square root of a 2x2 positive-definite matrix."""
    root_det = np.sqrt(det2(block))
    trace = block[0, 0] + block[1, 1]
    return (block + root_det * np.eye(2)) / np.sqrt(trace + 2.0 * root_det)


def _inv2(m: np.ndarray) -> np.ndarray:
    """Inverse of a 2x2 matrix as its adjugate over its determinant."""
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]]) / det2(m)


def _proper_svd2(m: np.ndarray) -> tuple[np.ndarray, float, float, np.ndarray]:
    """SVD m = u diag(c, d) vt with proper rotations u, vt and c >= |d|."""
    u, sig, vt = np.linalg.svd(m)
    du = det2(u)
    dv = det2(vt)
    u = u.copy()
    vt = vt.copy()
    u[:, 1] *= du
    vt[1, :] *= dv
    return u, float(sig[0]), float(sig[1] * du * dv), vt


def reduce_to_standard_form(V) -> tuple[StandardForm, np.ndarray]:
    """Bring a two-mode CM to standard form by tracked local symplectics.

    Returns (sf, S) with sf the unscaled standard form (s1 = s2 = 1) and S
    a block-diagonal local symplectic such that
    V = S @ sf.to_cm().matrix @ S.T. Unlike ``standard_form`` this keeps
    the frame information, which is needed to map product-state solutions
    back into the caller's frame.
    """
    cov = as_covariance(V)
    if cov.n != 2:
        raise DimensionMismatchError("standard form is defined for two modes")
    if not is_physical(cov):
        raise NotPhysicalError("covariance matrix is not a physical state")
    m = cov.matrix
    blocks = [m[:2, :2], m[2:, 2:]]
    bs, mats = [], []
    for blk in blocks:
        b = np.sqrt(det2(blk))
        bs.append(float(b))
        mats.append(_sqrtm2(blk) / np.sqrt(b))  # det-1, hence symplectic
    inv1, inv2 = _inv2(mats[0]), _inv2(mats[1])
    cross = inv1 @ m[:2, 2:] @ inv2.T
    u, c, d, vt = _proper_svd2(cross)
    sf = StandardForm(bs[0], bs[1], c, d, 1.0, 1.0)
    s_loc = np.zeros((4, 4))
    s_loc[:2, :2] = mats[0] @ u
    s_loc[2:, 2:] = mats[1] @ vt.T
    return sf, s_loc


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
    holds identically at the boundary.
    """
    k1, k2 = float(kappas[0]), float(kappas[1])
    rad, kt = _sqrt_radicals(np.array([k1, k2]))
    tol = active_profile().phys_tol
    gap1 = 0.0 if k1 - 0.5 < tol else k1 - 0.5
    gap2 = 0.0 if k2 - 0.5 < tol else k2 - 0.5
    m1 = gap1 * (k2 + 0.5)
    m2 = (k1 + 0.5) * gap2
    n1 = (k1 + 0.5) * (k2 + 0.5)
    n2 = gap1 * gap2
    k_inv = k1 * rad[1] + k2 * rad[0]
    l_inv = 4.0 * k1 * k2 * kt[0] * kt[1]
    return SymplecticInvariants(
        K=float(k_inv), L=float(l_inv), M1=m1, M2=m2, N1=n1, N2=n2, D=m1 * m2
    )


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


def square_root_standard_form(sf: StandardForm) -> StandardForm:
    """Standard form of the square-root state, in closed form.

    Elementwise transform of (b1, b2, c, d, s1, s2) built from the
    invariants K and L; must agree with the Williamson route
    ``square_root_cm`` on the rebuilt matrix. When both modes are pure the
    prefactor 1/(4 kappa1 kappa2 K) degenerates and the analytic limit is
    the state itself (the square root of a pure state is the state).
    """
    k1, k2 = sf.spectrum()
    tol = active_profile().phys_tol
    if k2 < 0.5 - tol:
        raise NotPhysicalError(
            f"minimal symplectic eigenvalue {k2:.6g} is below 1/2"
        )
    if k1 - 0.5 < tol and k2 - 0.5 < tol:
        return sf
    inv = invariants_from_spectrum((k1, k2))
    pref = 4.0 * k1 * k2 * inv.K
    bb = sf.b1 * sf.b2
    gc = bb - sf.c * sf.c
    gd = bb - sf.d * sf.d
    x1 = (sf.b1 * inv.L - sf.b2 * gc) / pref
    x2 = (sf.b2 * inv.L - sf.b1 * gc) / pref
    y1 = (sf.b1 * inv.L - sf.b2 * gd) / pref
    y2 = (sf.b2 * inv.L - sf.b1 * gd) / pref
    zc = (sf.c * inv.L + sf.d * gc) / pref
    zd = (sf.d * inv.L + sf.c * gd) / pref
    bt1 = np.sqrt(x1 * y1)
    bt2 = np.sqrt(x2 * y2)
    st1 = sf.s1 * np.sqrt(x1 / y1)
    st2 = sf.s2 * np.sqrt(x2 / y2)
    ct = zc * (y1 * y2 / (x1 * x2)) ** 0.25
    dt = zd * (x1 * x2 / (y1 * y2)) ** 0.25
    return StandardForm(
        float(bt1), float(bt2), float(ct), float(dt), float(st1), float(st2)
    )
