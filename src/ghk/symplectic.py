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
matrix routes: validation, spectra, square roots, Williamson and the
reduction to standard form. A two-mode matrix takes its spectrum and square
root from the exact invariants of its one decision, with no LAPACK call.

The two-mode reduction (``_reduce``) runs on Python floats and loads no
numpy: a 4x4 matrix given as nested sequences, an array or a
``CovarianceMatrix`` is validated and symmetrised on its 16 entries,
decided physical once, and reduced to a form that carries what every
measure reads. So do importing this module, ``standard_form`` and
``square_root_standard_form``; numpy is imported by the functions that
build or read arrays (``CovarianceMatrix``, the n-mode spectra,
Williamson, the square-root matrix and the frame of
``reduce_to_standard_form``), and by the validation of input that is not 4
rows of 4 real numbers, which keeps numpy's reading of it and its errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from operator import itemgetter, mul, sub

from .errors import (
    ConsistencyError,
    DimensionMismatchError,
    InvalidParamsError,
    NonSymmetricError,
    NotPhysicalError,
    NotPositiveDefiniteError,
)
from .forms import (
    _FORM_FIELDS,
    StandardForm,
    _checked_form,
    _float_record,
    _radical,
    _form_record,
    _sqrt_form,
)
from .tolerances import ToleranceProfile, active_profile

# Relative tolerance demanded from the internal square-root consistency
# identity V = (Vt - J Vt^-1 J / 4) / 2. Breaches raise ConsistencyError:
# they indicate a numerically corrupt input rather than a user error.
SQRT_IDENTITY_RTOL = 1e-8


def symplectic_form(n: int) -> np.ndarray:
    """Return the 2n x 2n matrix J of the symplectic form.

    Block diagonal with [[0, 1], [-1, 0]] per mode; satisfies J @ J = -I
    and J.T = -J.
    """
    import numpy as np

    if n < 1:
        raise DimensionMismatchError("mode count must be positive")
    j = np.zeros((2 * n, 2 * n))
    for k in range(n):
        j[2 * k, 2 * k + 1] = 1.0
        j[2 * k + 1, 2 * k] = -1.0
    return j


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

    Checks shape, then the entries taken as Python floats
    (``_symmetrised_entries``). Returns the read-only array (V + V^T) * 0.5.
    """
    import numpy as np

    m = np.asarray(value, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2 or not m.size:
        raise DimensionMismatchError(
            f"covariance matrix must be 2n x 2n, got shape {m.shape}"
        )
    entries = _symmetrised_entries(m.ravel().tolist(), m.shape[0], sym_atol)
    matrix = np.array(entries).reshape(m.shape)
    matrix.flags.writeable = False
    return matrix


def _symmetrised_entries(entries: list[float], size: int, sym_atol: float) -> list[float]:
    """The row-major entries (v_ij + v_ji) * 0.5 of the ``size`` x ``size``
    matrix V with these row-major entries, bit for bit numpy's
    (V + V^T) * 0.5. Raises unless every entry is finite, no asymmetry
    exceeds ``sym_atol`` and no symmetrised entry overflows, checked in
    this order."""
    if not all(map(math.isfinite, entries)):
        raise InvalidParamsError("covariance matrix entries must be finite")
    transposed = _transposed(size)(entries)
    asym = max(map(abs, map(sub, entries, transposed)))
    if asym > sym_atol:
        raise NonSymmetricError(
            f"covariance matrix asymmetry {asym:.3e} exceeds tolerance"
        )
    symmetrised = [(x + y) * 0.5 for x, y in zip(entries, transposed)]
    if not all(map(math.isfinite, symmetrised)):
        raise InvalidParamsError("covariance matrix entries overflow when symmetrised")
    return symmetrised


@cache
def _transposed(size: int) -> itemgetter:
    """Getter of the row-major entries of the transpose of a ``size`` x
    ``size`` matrix, as a tuple."""
    return itemgetter(*(j * size + i for i in range(size) for j in range(size)))


# The Python types of the entries that the float route reads: float() gives
# each the float that numpy's conversion to dtype float gives. Any other
# entry (a string, a numpy scalar, an object) is left to numpy.
_REALS = frozenset({float, int, bool})


def _real_rows(value) -> list[float] | None:
    """The 16 row-major entries of ``value`` as Python floats when it is 4
    rows of 4 entries of the ``_REALS`` types, else None. An array, or
    anything else with ``tolist``, is read through ``tolist``."""
    rows = value.tolist() if hasattr(value, "tolist") else value
    if not (isinstance(rows, (list, tuple)) and len(rows) == 4):
        return None
    entries = []
    for row in rows:
        if not (isinstance(row, (list, tuple)) and len(row) == 4):
            return None
        entries += row
    if not _REALS.issuperset(map(type, entries)):
        return None
    try:
        return list(map(float, entries))
    except OverflowError:  # an int past the float range
        return None


def _finite_vector(value, length: int, name: str) -> list[float]:
    """The entries of the vector ``value``, flattened, as ``length`` finite
    Python floats: the one check of a mean or a displacement, named ``name``.

    Raises DimensionMismatchError for another count of entries, then
    InvalidParamsError for an entry that is not finite. A flat sequence of
    entries of the ``_REALS`` types, or an array whose ``tolist`` is one, is
    read in floats; anything else is read as numpy reads it.
    """
    values = value.tolist() if hasattr(value, "tolist") else value
    if isinstance(values, (list, tuple)) and _REALS.issuperset(map(type, values)):
        values = list(map(float, values))
    else:
        import numpy as np

        values = np.asarray(value, dtype=float).reshape(-1).tolist()
    if len(values) != length:
        raise DimensionMismatchError(
            f"{name} must have {length} entries, got {len(values)}"
        )
    if not all(map(math.isfinite, values)):
        raise InvalidParamsError(f"{name} vector must be finite")
    return values


def _two_mode_entries(V, sym_atol: float) -> list[float]:
    """The 16 row-major entries of the two-mode covariance matrix ``V`` as
    Python floats, validated and symmetrised as by the ``CovarianceMatrix``
    constructor; a ``CovarianceMatrix`` is taken as it is.

    4 rows of 4 real numbers (``_real_rows``) are checked and symmetrised on
    their floats (``_symmetrised_entries``). Any other input goes to
    ``_symmetrised``, which reads it with numpy and raises its errors; a
    valid matrix of another size is not a two-mode matrix.
    """
    if isinstance(V, CovarianceMatrix):
        matrix = V.matrix
    else:
        entries = _real_rows(V)
        if entries is not None:
            return _symmetrised_entries(entries, 4, sym_atol)
        matrix = _symmetrised(V, sym_atol)
    if matrix.shape[0] != 4:
        raise DimensionMismatchError("standard form is defined for two modes")
    return matrix.ravel().tolist()


def as_covariance(value) -> CovarianceMatrix:
    """Coerce an array-like or CovarianceMatrix to CovarianceMatrix."""
    if isinstance(value, CovarianceMatrix):
        return value
    return CovarianceMatrix(value)


# Physicality of a 4x4 matrix is decided on its ten distinct entries
# (a00, a01, a11, b00, b01, b11, c00, c01, c10, c11), V = [[A, C], [C^T, B]],
# which _TWO_MODE_ENTRIES picks from its row-major entries:
# V is positive definite iff its leading minors a00, det A, the 3x3 minor and
# det V are positive (Sylvester), and then kappa2 >= t iff
# t^4 - Delta t^2 + det V >= 0 and 2 t^2 <= Delta, with
# Delta = det A + det B + 2 det C: kappa1^2 and kappa2^2 are the roots of
# x^2 - Delta x + det V (Serafini, Illuminati and De Siena, J. Phys. B 37,
# L21, 2004). Floats decide where their rounding bounds prove acceptance;
# every other matrix is decided exactly on integers (the derivation is in
# CHANGES.md). Each float expansion has at most 9 roundings along any path,
# so it is within gamma_9 of the same expansion in absolute values (Higham,
# Accuracy and Stability of Numerical Algorithms, Sec. 3.1);
# _EXPANSION_ROUNDING also covers the rounding of the bounds themselves,
# and _KAPPA_ULPS the rounding of the kappa2 bound. With every nonzero
# |entry| at least _FLOAT_FLOOR, each product of the expansions in absolute
# values is 0 or a normal float, so a product of a float expansion that
# underflows is off by at most u times its counterpart there; an overflow
# gives inf or NaN, which no test below accepts. The reduction takes b1 and
# b2 from the square roots of the float det A and det B, so the certificate
# also demands det A > _DET_MARGIN |A| and det B > _DET_MARGIN |B| (|X| the
# expansion in absolute values): each is then within 2^-32 of its exact
# value, relative. The reduced form fills its record from its floats, so
# the certificate also demands det V > _DET_MARGIN S, S = det A det B -
# det(C)^2 + det V = b1 b2 (gc + gd): no gap, Delta or discriminant factor
# of the reduced form then cancels by more than about 2^17. Every other
# matrix takes b_j and its record from the exact decision.
_TWO_MODE_ENTRIES = itemgetter(0, 1, 5, 10, 11, 15, 2, 3, 6, 7)
_UNIT_ROUNDOFF = 2.0**-53
_EXPANSION_ROUNDING = 32 * _UNIT_ROUNDOFF
_DET_MARGIN = 2.0**32 * _EXPANSION_ROUNDING
_KAPPA_ULPS = 16 * _UNIT_ROUNDOFF
_FLOAT_FLOOR = 2.0**-200


def _determinants(a00, a01, a11, b00, b01, b11, c00, c01, c10, c11):
    """(det A, det B, det C, the leading 3x3 minor, det V) of the two-mode
    matrix with these entries, by one expansion, exact on Python ints.

    det V = det A det B + det(C)^2 - tr(adj(A) C adj(B) C^T), and the 3x3
    minor is b00 det A - u^T adj(A) u for u = (c00, c10), both through
    X = adj(A) C.
    """
    det_a = a00 * a11 - a01 * a01
    det_b = b00 * b11 - b01 * b01
    det_c = c00 * c11 - c01 * c10
    x00, x01 = a11 * c00 - a01 * c10, a11 * c01 - a01 * c11
    x10, x11 = a00 * c10 - a01 * c00, a00 * c11 - a01 * c01
    minor = b00 * det_a - (c00 * x00 + c10 * x10)
    det_v = det_a * det_b + det_c * det_c - (
        c00 * (x00 * b11 - x01 * b01)
        + c01 * (x01 * b00 - x00 * b01)
        + c10 * (x10 * b11 - x11 * b01)
        + c11 * (x11 * b00 - x10 * b01)
    )
    return det_a, det_b, det_c, minor, det_v


def _absolute_determinants(a00, a01, a11, b00, b01, b11, c00, c01, c10, c11):
    """``_determinants`` with every subtraction turned into an addition: on
    the absolute values of the entries, the expansions that bound the
    rounding of each float determinant (32u times each, above)."""
    abs_a, abs_b = a00 * a11 + a01 * a01, b00 * b11 + b01 * b01
    abs_c = c00 * c11 + c01 * c10
    x00, x01 = a11 * c00 + a01 * c10, a11 * c01 + a01 * c11
    x10, x11 = a00 * c10 + a01 * c00, a00 * c11 + a01 * c01
    abs_minor = b00 * abs_a + (c00 * x00 + c10 * x10)
    abs_v = abs_a * abs_b + abs_c * abs_c + (
        c00 * (x00 * b11 + x01 * b01)
        + c01 * (x01 * b00 + x00 * b01)
        + c10 * (x10 * b11 + x11 * b01)
        + c11 * (x11 * b00 + x10 * b01)
    )
    return abs_a, abs_b, abs_c, abs_minor, abs_v


def _certified_physical(entries: tuple[float, ...], dets: tuple, tol: float) -> bool:
    """True when floats prove that the two-mode matrix of ``entries`` is
    positive definite with kappa2 >= 1/2 - ``tol``, that its float det A
    and det B are within 2^-32 of their exact values and that det V
    exceeds 2^-16 S (above); ``dets`` is ``_determinants(*entries)``.

    Subtracting 32u times the expansion in absolute values from each
    determinant gives lower bounds on the leading minors and on det V, and
    adding it an upper bound on Delta. kappa2^2 =
    2 det V / (Delta + sqrt(Delta^2 - 4 det V)) rises with det V and falls
    with Delta, which gives a lower bound on kappa2. det A and det B must
    exceed 2^32 times their error bound (``_DET_MARGIN``), which also proves
    det A > 0. False means "not certified": the matrix may still be
    physical.
    """
    absolute = tuple(map(abs, entries))
    if not min(filter(None, absolute), default=0.0) >= _FLOAT_FLOOR:
        return False
    abs_a, abs_b, abs_c, abs_minor, abs_v = _absolute_determinants(*absolute)
    det_a, det_b, det_c, minor, det_v = dets
    d_lo = det_v - _EXPANSION_ROUNDING * abs_v
    delta_hi = det_a + det_b + 2.0 * det_c + _EXPANSION_ROUNDING * (
        abs_a + abs_b + 2.0 * abs_c
    )
    square = delta_hi * delta_hi
    # an upper bound on Delta_hi^2 - 4 D_lo despite its cancellation
    disc = square - 4.0 * d_lo + 8.0 * _UNIT_ROUNDOFF * square
    # an upper bound on S: each product of two expansions is within 2 gamma
    s_hi = det_a * det_b - det_c * det_c + det_v + 2.0 * _EXPANSION_ROUNDING * (
        abs_a * abs_b + abs_c * abs_c + abs_v
    )
    if not (
        entries[0] > 0.0
        and det_a > _DET_MARGIN * abs_a
        and det_b > _DET_MARGIN * abs_b
        and minor > _EXPANSION_ROUNDING * abs_minor
        and d_lo > _DET_MARGIN * s_hi
        and disc >= 0.0
    ):
        return False
    kappa_lo = math.sqrt(2.0 * d_lo / (delta_hi + math.sqrt(disc)))
    return kappa_lo * (1.0 - _KAPPA_ULPS) >= 0.5 - tol


def _exactly_physical(entries: tuple[float, ...], tol: float) -> tuple | None:
    """None unless the two-mode matrix of ``entries`` is positive definite
    with kappa2 >= t = 1/2 - ``tol`` (the float t), decided exactly on the
    integer determinants of ``_exact_determinants`` and t as its exact
    ratio; then det A and det B as ``_quarter`` pairs and the record of the
    reduced form (``forms._form_record``), each integer expression in A = det A,
    B = det B, C = det C and D = det V rounded once: the spectra with
    Delta = A + B +/- 2C (``_int_spectrum``), rho = sqrt(gc / gd) =
    2 sqrt(D AB) / (S + sqrt(S^2 - 4 D AB)) with S = AB - C^2 + D, since
    gc gd = D and (gd - gc)^2 AB = S^2 - 4 D AB, and h = (A - B)/(2 (b1 + b2)).
    Last comes the ``_exact_determinants`` tuple that decided it.
    """
    exact = _exact_determinants(entries)
    if exact is None:
        return None
    scale, _, (det_a, det_b, det_c, _, det_v) = exact
    num, den = (0.5 - tol).as_integer_ratio()
    # t^2 and Delta, both times (scale den)^2
    t2 = (num * scale) ** 2
    delta = det_a + det_b + 2 * det_c
    if not (
        t2 * t2 - delta * den * den * t2 + det_v * den**4 >= 0
        and 2 * t2 <= delta * den * den
    ):
        return None
    sq = scale * scale
    (a, ea), (b, eb) = _quarter(det_a, sq), _quarter(det_b, sq)
    b1, b2 = math.ldexp(math.sqrt(a), ea), math.ldexp(math.sqrt(b), eb)
    ab, s = det_a * det_b, det_a * det_b - det_c * det_c + det_v
    t = math.sqrt((s * s - 4 * det_v * ab) / (s * s))  # (gd - gc) / (gd + gc)
    rho = 2.0 * math.sqrt(det_v * ab / (s * s)) / (1.0 + t)
    hi, lo = (b1, b2) if det_a >= det_b else (b2, b1)
    h = hi * ((det_a - det_b) / max(det_a, det_b)) / (2.0 + 2.0 * (lo / hi))
    spectrum = _int_spectrum(delta, det_v, sq)
    pt = _int_spectrum(delta - 4 * det_c, det_v, sq)
    return (a, ea), (b, eb), (spectrum, pt, (*spectrum, rho), h, "decided"), exact


def _exact_determinants(entries: tuple[float, ...]) -> tuple | None:
    """(scale, ints, ``_determinants`` of the ints) of the two-mode matrix of
    ``entries`` scaled by their common power of two, ``scale``, into the
    Python ``ints``, or None unless its leading minors a00, det A, the 3x3
    minor and det V are positive, which is positive definiteness (Sylvester)."""
    ratios = [x.as_integer_ratio() for x in entries]
    scale = max(den for _, den in ratios)
    ints = [num * (scale // den) for num, den in ratios]
    dets = _determinants(*ints)
    det_a, _, _, minor, det_v = dets
    if not (ints[0] > 0 and det_a > 0 and minor > 0 and det_v > 0):
        return None
    return scale, ints, dets


def _quarter(num: int, den: int) -> tuple[float, int]:
    """(x, e) with num / den = x 4^e for positive ints of any size, x in
    about [1/4, 4) rounded once: sqrt(num / den) = ldexp(sqrt(x), e)."""
    e = (num.bit_length() - den.bit_length()) // 2
    return (num / (den << 2 * e) if e >= 0 else (num << -2 * e) / den), e


def _int_spectrum(delta: int, det_v: int, sq: int) -> tuple[float, float]:
    """The symplectic spectrum kappa1^2 = Delta (1 + sqrt(w)) / 2, kappa2^2 =
    2 D / (Delta (1 + sqrt(w))), w = 1 - 4 D / Delta^2, of Delta = ``delta`` /
    ``sq`` and D = ``det_v`` / ``sq``^2, each ratio of ints rounded once."""
    root = math.sqrt(1.0 + math.sqrt((delta * delta - 4 * det_v) / (delta * delta)))
    (x1, e1), (x2, e2) = _quarter(delta, 2 * sq), _quarter(2 * det_v, delta * sq)
    return math.ldexp(math.sqrt(x1) * root, e1), math.ldexp(math.sqrt(x2) / root, e2)


def symplectic_eigenvalues(V) -> np.ndarray:
    """Symplectic spectrum of a positive-definite covariance matrix, in
    descending order (NotPositiveDefiniteError otherwise): of a two-mode
    matrix from the exact integer invariants of its decision
    (``_exact_determinants``), Delta and det V, each kappa rounded once
    (``_int_spectrum``); of any other, its Williamson spectrum."""
    import numpy as np

    cov = as_covariance(V)
    if cov.n != 2:
        return williamson(cov)[0]
    exact = _exact_determinants(_TWO_MODE_ENTRIES(cov.matrix.ravel().tolist()))
    if exact is None:
        raise NotPositiveDefiniteError("covariance matrix is not positive definite")
    scale, _, (det_a, det_b, det_c, _, det_v) = exact
    return np.array(_int_spectrum(det_a + det_b + 2 * det_c, det_v, scale * scale))


def is_physical(V) -> bool:
    """True iff every symplectic eigenvalue is >= 1/2 (within tolerance).

    A two-mode matrix is decided once, by the reduction (``_reduce``), for
    every measure: positive definiteness and kappa2 >= 1/2 - phys_tol of
    the float matrix, proved by a float certificate or else decided
    exactly, which is the decision of ``square_root_cm``. Any other matrix
    takes the Williamson test of ``_williamson_root``. So a state is
    accepted exactly where ``square_root_cm`` does not reject it.
    """
    cov = as_covariance(V)
    try:
        if cov.n == 2:
            _reduce(cov, active_profile())
            return True
        return float(williamson(cov)[0][-1]) >= 0.5 - active_profile().phys_tol
    except (NotPhysicalError, NotPositiveDefiniteError):
        return False


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
    import numpy as np

    cov = as_covariance(V)
    n = cov.n
    try:
        low = np.linalg.cholesky(cov.matrix)
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError(
            "covariance matrix is not positive definite"
        ) from None
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
    """Covariance matrix of the normalized square root of the state, each
    Williamson mode kappa taken to kappa + ``forms._radical``(kappa - 1/2):
    ``_two_mode_root`` for two modes, else ``_williamson_root``. Either is
    checked against V = (Vt - J Vt^-1 J / 4) / 2 (ConsistencyError)."""
    cov = as_covariance(V)
    return _two_mode_root(cov) if cov.n == 2 else _williamson_root(cov)


def _two_mode_root(cov: CovarianceMatrix) -> CovarianceMatrix:
    """Vt = a V + b W, W = V J V J V, on the decision and spectrum of
    ``_exactly_physical`` (NotPhysicalError exactly where ``is_physical`` is
    False), with no LAPACK call. README.md derives a, b and the sum
    (a - b/4) V + b det V (W + V/4) / det V, which does not cancel."""
    tol = active_profile().phys_tol
    decided = _exactly_physical(_TWO_MODE_ENTRIES(cov.matrix.ravel().tolist()), tol)
    if decided is None:
        raise NotPhysicalError("covariance matrix is not a physical state")
    ((k1, k2), *_), (scale, ints, (*_, det_v)) = decided[2:]
    s1, s2 = (_radical(k - 0.5, tol) / k for k in (k1, k2))
    out = cov
    if s1:  # the coefficients b det V and a - b/4 = 1 + s1 + b (kappa1^2 - 1/4)
        bd = -0.25 / (s1 + s2) if s2 else s1 * k1 / (k2 - k1) * k1 / (k1 + k2) * k2 * k2
        a4 = 1.0 + s1 + bd * (s1 / k2) * (s1 / k2)
        a00, a01, a11, b00, b01, b11, c00, c01, c10, c11 = ints
        rows = [[a00, a01, c00, c01], [a01, a11, c10, c11]]
        rows += [[c00, c10, b00, b01], [c01, c11, b01, b11]]
        vj = [[-r[1], r[0], -r[3], r[2]] for r in rows]
        vjv = [[sum(map(mul, r, c)) for c in zip(*rows)] for r in vj]
        w = [[sum(map(mul, r, c)) for c in zip(*vjv)] for r in vj]
        sq, den = scale * scale, 4 * det_v
        out = CovarianceMatrix([
            [a4 * v + bd * ((4 * x + sq * y) * scale / den) for v, x, y in zip(*row)]
            for row in zip(cov.matrix.tolist(), w, rows)
        ])
    _check_sqrt_identity(cov.matrix, out.matrix)
    return out


def _williamson_root(cov: CovarianceMatrix) -> CovarianceMatrix:
    """The square root of ``cov`` on its Williamson form, for n != 2 and for
    the oracle, which must not read the two-mode route that it certifies."""
    import numpy as np

    tol = active_profile().phys_tol
    kappas, s = williamson(cov)
    if kappas[-1] < 0.5 - tol:
        raise NotPhysicalError(
            f"minimal symplectic eigenvalue {kappas[-1]:.6g} is below 1/2"
        )
    kt = [k + _radical(k - 0.5, tol) for k in kappas.tolist()]
    vt = (s * np.repeat(kt, 2)[None, :]) @ s.T
    out = CovarianceMatrix(0.5 * (vt + vt.T))
    _check_sqrt_identity(cov.matrix, out.matrix)
    return out


def _check_sqrt_identity(v: np.ndarray, vt: np.ndarray) -> None:
    import numpy as np

    j = symplectic_form(v.shape[0] // 2)
    try:
        inverse = np.linalg.inv(vt)
    except np.linalg.LinAlgError:
        raise ConsistencyError("square-root CM is singular") from None
    recovered = 0.5 * (vt - 0.25 * j @ inverse @ j)
    err = np.max(np.abs(recovered - v)) / max(np.max(np.abs(v)), 1.0)
    if err > SQRT_IDENTITY_RTOL:
        raise ConsistencyError(
            f"square-root CM failed its defining identity (rel err {err:.3e})"
        )


def _unit_root(
    x00: float, x01: float, x11: float, det: float, e: int
) -> tuple[float, float, float, float]:
    """(b, n00, n01, n11) for a positive-definite block X = [[x00, x01], [x01, x11]]
    with determinant ``det`` 4^``e``.

    b = sqrt(det X), and N = (X + b I) / sqrt(b (tr X + 2 b)) is the
    symmetric square root of X / b: det N = 1, so N is symplectic and
    N diag(b, b) N^T = X. Its inverse is its adjugate. Where b (tr X + 2 b)
    overflows, its two factors are rooted apart.
    """
    b = math.ldexp(math.sqrt(det), e) if e else math.sqrt(det)
    root = math.sqrt(b * (x00 + x11 + 2.0 * b))
    if root == math.inf:
        root = math.sqrt(b) * math.sqrt(x00 + x11 + 2.0 * b)
    return b, (x00 + b) / root, x01 / root, (x11 + b) / root


def _reduce(
    V, profile: ToleranceProfile
) -> tuple[StandardForm, tuple[float, ...]]:
    """The one reduction of a two-mode CM to standard form.

    Runs under ``profile``, the tolerance profile its caller read, on the
    entries of ``V`` taken once as Python floats and validated as the
    ``CovarianceMatrix`` constructor validates (``_two_mode_entries``).
    Physicality is decided here, once for every measure: positive
    definiteness and kappa2 >= 1/2 - phys_tol, proved by
    ``_certified_physical``, else decided by ``_exactly_physical``. The
    decision proves A and B positive definite, so real c and d with
    c d = det C and (b1 b2 - c^2)(b1 b2 - d^2) = det V exist. The form
    passes the ``StandardForm`` checks (``forms._checked_form``) and carries
    the record of that decision (``forms._form_record``). Returns
    the form and the parts (n00, n01, n11, o00, o01, o11, e, f, g, h) of its
    local frame; see ``reduce_to_standard_form``.
    """
    tol = profile.phys_tol
    entries = _TWO_MODE_ENTRIES(_two_mode_entries(V, profile.sym_atol))
    a00, a01, a11, b00, b01, b11, c00, c01, c10, c11 = entries
    dets = _determinants(*entries)
    (det_a, ea), (det_b, eb), record = (dets[0], 0), (dets[1], 0), None
    if not _certified_physical(entries, dets, tol):
        decided = _exactly_physical(entries, tol)
        if decided is None:
            raise NotPhysicalError("covariance matrix is not a physical state")
        (det_a, ea), (det_b, eb), record, _ = decided
    b1, n00, n01, n11 = _unit_root(a00, a01, a11, det_a, ea)
    b2, o00, o01, o11 = _unit_root(b00, b01, b11, det_b, eb)
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
    c, d = q + r, q - r
    sf = _checked_form(tol, b1, b2, c, d)
    vars(sf)["_record"] = record or _float_record(b1, b2, c, d, "decided")
    return sf, (n00, n01, n11, o00, o01, o11, e, f, g, h)


def standard_form(V) -> StandardForm:
    """Reduce a physical two-mode CM to its standard-form parameters.

    b1 and b2 are the square roots of the diagonal-block determinants; c
    and d solve c d = det(C) and (b1 b2 - c^2)(b1 b2 - d^2) = det(V) with
    the convention c >= |d| and sign(d) = sign(det C), from the SVD of
    ``reduce_to_standard_form``, which stays exact at the double root
    c = |d| where the equivalent quadratic in (c^2, d^2) loses half the
    working precision. The scale factors are not recovered (they are
    unobservable in every correlation measure) and are emitted as 1. This
    is that reduction (``_reduce``: its one decision and one read of the
    tolerance profile) without the frame; it loads no numpy
    where ``V`` is 4 rows of 4 real numbers.
    """
    return _reduce(V, active_profile())[0]


def _framed_reduction(
    V, profile: ToleranceProfile
) -> tuple[StandardForm, list[list[float]]]:
    """``reduce_to_standard_form`` under ``profile``, with the rows of S as
    Python floats."""
    sf, (n00, n01, n11, o00, o01, o11, e, f, g, h) = _reduce(V, profile)
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
    diag(c, -c), keeps d = -c to the last bit. Only S is built as an array.
    """
    import numpy as np

    sf, rows = _framed_reduction(V, active_profile())
    return sf, np.array(rows)


def square_root_standard_form(sf: StandardForm) -> StandardForm:
    """Standard form of the square-root state, in closed form.

    Elementwise transform of (b1, b2, c, d, s1, s2) built from the
    invariants K and L; must agree with the Williamson route
    ``square_root_cm`` on the rebuilt matrix. When both modes are pure the
    prefactor 1/(4 kappa1 kappa2 K) degenerates and the analytic limit is
    the state itself (the square root of a pure state is the state). Raises
    NotPhysicalError where ``sf`` is not a physical state.
    """
    tol = active_profile().phys_tol
    params, record = _sqrt_form(sf, tol, _form_record(sf, tol))
    tsf = object.__new__(StandardForm)
    vars(tsf).update(zip(_FORM_FIELDS, params), _record=record)
    return tsf
