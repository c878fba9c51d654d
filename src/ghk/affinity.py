"""Overlap traces, affinity and Hellinger distance of n-mode Gaussian states.

The affinity Tr(sqrt(rho) sqrt(sigma)) of two Gaussian states is a Gaussian
integral over the square-root states: writing Vt for the covariance matrix
of the normalized square root of a state,

    A = [det Vt1 det Vt2]^(1/4) / det(M)^(1/2) * exp(-dv^T M^(-1) dv / 4),

with M = (Vt1 + Vt2) / 2 and dv the difference of the mean vectors. All
determinants and quadratic forms are evaluated through Cholesky
factorizations; M is Vt itself for two equal roots, so a state's affinity
with itself is 1 exactly. The logarithm of the affinity is carried
alongside the value so long parameter sweeps cannot underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, SingularSumError
from .states import GaussianState
from .symplectic import CovarianceMatrix, _finite_vector, as_covariance, square_root_cm


@dataclass(frozen=True)
class OverlapResult:
    """An overlap value in (0, 1] together with its logarithm."""

    value: float
    log_value: float


def _chol_logdet_quad(matrix: np.ndarray, dv: np.ndarray | None) -> tuple[float, float]:
    """Return (log det M, dv^T M^-1 dv) via one Cholesky factorization."""
    try:
        low = np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        raise SingularSumError(
            "sum of covariance matrices is not positive definite"
        ) from None
    logdet = 2.0 * float(np.sum(np.log(np.diag(low))))
    if dv is None or not np.any(dv):
        return logdet, 0.0
    half = np.linalg.solve(low, dv)
    return logdet, float(half @ half)


def gaussian_overlap_trace(V1, V2, dv) -> float:
    """Trace of the (non-normalized) product of two Gaussian operators.

    Equals det(V1 + V2)^(-1/2) exp(-dv^T (V1 + V2)^(-1) dv / 2) and is
    strictly positive. For density operators this is Tr(rho1 rho2).
    """
    c1, c2 = as_covariance(V1), as_covariance(V2)
    if c1.n != c2.n:
        raise DimensionMismatchError("covariance matrices have different sizes")
    delta = np.array(_finite_vector(dv, 2 * c1.n, "displacement"))
    logdet, quad = _chol_logdet_quad(c1.matrix + c2.matrix, delta)
    return math.exp(-0.5 * logdet - 0.5 * quad)


def trace_of_sqrt(state: GaussianState) -> float:
    """Tr sqrt(rho) = det(2 Vt)^(1/4); >= 1 with equality iff pure."""
    vt = square_root_cm(state.cm).matrix
    logdet, _ = _chol_logdet_quad(vt, None)
    n = state.n
    return math.exp(0.25 * (2 * n * math.log(2.0) + logdet))


def affinity_from_sqrt_cms(
    Vt1: CovarianceMatrix, Vt2: CovarianceMatrix, dv=None
) -> OverlapResult:
    """Affinity evaluated from precomputed square-root covariance matrices.

    Exposed so optimization loops can reuse a fixed square-root CM; the
    result equals ``affinity`` on the corresponding states.
    """
    c1, c2 = as_covariance(Vt1), as_covariance(Vt2)
    if c1.n != c2.n:
        raise DimensionMismatchError("covariance matrices have different sizes")
    n = c1.n
    ld1, _ = _chol_logdet_quad(c1.matrix, None)
    ld2, _ = _chol_logdet_quad(c2.matrix, None)
    delta = None if dv is None else np.array(_finite_vector(dv, 2 * n, "displacement"))
    ld_mean, quad = _chol_logdet_quad(0.5 * (c1.matrix + c2.matrix), delta)
    log_value = 0.25 * (ld1 + ld2) - 0.5 * ld_mean - 0.25 * quad
    # The affinity of two states never exceeds 1; only round-off can push it
    # above, so the excess is clipped.
    log_value = min(log_value, 0.0)
    return OverlapResult(value=math.exp(log_value), log_value=log_value)


def affinity(s1: GaussianState, s2: GaussianState) -> OverlapResult:
    """Affinity Tr(sqrt(rho1) sqrt(rho2)) of two n-mode Gaussian states.

    Symmetric, in (0, 1], and equal to 1 iff the states coincide.
    """
    if s1.n != s2.n:
        raise DimensionMismatchError("states have different mode counts")
    vt1 = square_root_cm(s1.cm)
    vt2 = square_root_cm(s2.cm)
    return affinity_from_sqrt_cms(vt1, vt2, s1.mean - s2.mean)


def hellinger_distance(s1: GaussianState, s2: GaussianState) -> float:
    """Hellinger metric sqrt(2 - 2 A); in [0, sqrt(2)), zero iff equal."""
    a = affinity(s1, s2).value
    return math.sqrt(max(2.0 - 2.0 * a, 0.0))
