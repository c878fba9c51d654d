"""Gaussian state construction and scalar state functionals.

Families provided: thermal products, two-mode squeezed thermal states
(squeezer on a thermal product, standard form with d = -c) and mode-mixed
thermal states (beam splitter on a thermal product, standard form with
d = +c). The squeeze/mixing phase only rotates the standard form and every
measure in this package is invariant under local rotations, so builders
emit the phase-zero standard form and keep the phase in the parameter
record. The parameter records, their standard forms and the entropic
function are float closed forms of ``ghk.forms``, re-exported here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParamsError, NegativeOccupancyError, NotPhysicalError
from .forms import (
    MtsParams,
    StsParams,
    _mode_entropy,
    entropic_h,
    mts_standard_form,
    sts_standard_form,
)
from .symplectic import (
    CovarianceMatrix,
    _finite_vector,
    as_covariance,
    is_physical,
    symplectic_eigenvalues,
)
from .tolerances import active_profile


@dataclass(frozen=True)
class GaussianState:
    """Mean quadrature vector plus covariance matrix.

    Construction validates the matrix, then checks the mean (2n finite
    entries, ``ghk.symplectic._finite_vector``) and enforces physicality
    with ``is_physical``: the decision that ``square_root_cm`` takes, the
    exact two-mode one of every measure or for n != 2 the Williamson test,
    so the square root and the affinity of every state exist. Use
    CovarianceMatrix directly to represent unphysical matrices.
    """

    mean: np.ndarray
    cm: CovarianceMatrix

    def __post_init__(self) -> None:
        cov = as_covariance(self.cm)
        mean = np.array(_finite_vector(self.mean, 2 * cov.n, "mean"))
        if not is_physical(cov):
            raise NotPhysicalError("covariance matrix is not a physical state")
        mean.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cm", cov)

    @property
    def n(self) -> int:
        return self.cm.n


def vacuum_state(n: int = 1) -> GaussianState:
    """n-mode vacuum: zero mean, CM = I/2."""
    return GaussianState(np.zeros(2 * n), CovarianceMatrix(0.5 * np.eye(2 * n)))


def thermal_state(nbars) -> GaussianState:
    """Product thermal state with the given mean occupancies.

    Mode j contributes the block (nbar_j + 1/2) I_2.
    """
    occ = np.atleast_1d(np.asarray(nbars, dtype=float))
    if occ.ndim != 1 or not occ.size:
        raise InvalidParamsError("expected a flat, non-empty list of occupancies")
    if np.any(occ < 0) or not np.all(np.isfinite(occ)):
        raise NegativeOccupancyError("mean occupancies must be finite and >= 0")
    diag = np.repeat(occ + 0.5, 2)
    return GaussianState(np.zeros(2 * occ.size), CovarianceMatrix(np.diag(diag)))


def tensor(a: GaussianState, b: GaussianState) -> GaussianState:
    """Direct-sum composition of two states (tensor product of the modes)."""
    na, nb = 2 * a.n, 2 * b.n
    m = np.zeros((na + nb, na + nb))
    m[:na, :na] = a.cm.matrix
    m[na:, na:] = b.cm.matrix
    return GaussianState(np.concatenate([a.mean, b.mean]), CovarianceMatrix(m))


def sts_state(p: StsParams) -> GaussianState:
    """Two-mode squeezed thermal state with zero mean."""
    return GaussianState(np.zeros(4), sts_standard_form(p).to_cm())


def mts_state(p: MtsParams) -> GaussianState:
    """Mode-mixed thermal state with zero mean."""
    return GaussianState(np.zeros(4), mts_standard_form(p).to_cm())


def sts_separability_threshold(p: StsParams) -> float:
    """Squeeze threshold r_s below which (inclusive) the STS is separable.

    sinh^2(r_s) = nbar1 nbar2 / (nbar1 + nbar2 + 1); zero whenever either
    mode starts from vacuum.
    """
    value = p.nbar1 * p.nbar2 / (p.nbar1 + p.nbar2 + 1.0)
    return math.asinh(math.sqrt(value))


def purity(state: GaussianState) -> float:
    """Tr rho^2 = det(2 V)^(-1/2), evaluated from the symplectic spectrum."""
    kappas = symplectic_eigenvalues(state.cm)
    return float(np.prod(1.0 / (2.0 * kappas)))


def von_neumann_entropy(state: GaussianState) -> float:
    """Entropy in nats: sum of the entropic function over the spectrum."""
    tol = active_profile().phys_tol
    kappas = symplectic_eigenvalues(state.cm).tolist()
    return float(sum(_mode_entropy(k, tol) for k in kappas))
