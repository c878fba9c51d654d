"""Gaussian state construction and scalar state functionals.

Families provided: thermal products, two-mode squeezed thermal states
(squeezer on a thermal product, standard form with d = -c) and mode-mixed
thermal states (beam splitter on a thermal product, standard form with
d = +c). The squeeze/mixing phase only rotates the standard form and every
measure in this package is invariant under local rotations, so builders
emit the phase-zero standard form and keep the phase in the parameter
record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidParamsError,
    NegativeOccupancyError,
    NotPhysicalError,
)
from .symplectic import (
    CovarianceMatrix,
    StandardForm,
    as_covariance,
    is_physical,
    symplectic_eigenvalues,
)

_H_CUTOFF = 1e-12  # below this distance from 1/2 the x ln x term is exactly 0


def _fold_angle(phi: float) -> float:
    """Fold an angle into (-pi, pi]."""
    return math.pi - (math.pi - float(phi)) % (2.0 * math.pi)


@dataclass(frozen=True)
class GaussianState:
    """Mean quadrature vector plus covariance matrix.

    Construction enforces physicality of the covariance matrix; use
    CovarianceMatrix directly to represent unphysical matrices.
    """

    mean: np.ndarray
    cm: CovarianceMatrix

    def __post_init__(self) -> None:
        cov = as_covariance(self.cm)
        mean = np.array(self.mean, dtype=float).reshape(-1)
        if mean.shape != (2 * cov.n,):
            raise DimensionMismatchError(
                f"mean must have length {2 * cov.n}, got {mean.shape[0]}"
            )
        if not np.all(np.isfinite(mean)):
            raise InvalidParamsError("mean vector must be finite")
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


@dataclass(frozen=True)
class StsParams:
    """Squeezed thermal state parameters: occupancies, squeeze, phase."""

    nbar1: float
    nbar2: float
    r: float
    phi: float = 0.0

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.nbar1, self.nbar2, self.r, self.phi))):
            raise InvalidParamsError("parameters must be finite")
        if self.nbar1 < 0 or self.nbar2 < 0:
            raise InvalidParamsError("mean occupancies must be >= 0")
        if self.r < 0:
            raise InvalidParamsError("squeeze parameter must be >= 0")
        object.__setattr__(self, "phi", _fold_angle(self.phi))


@dataclass(frozen=True)
class MtsParams:
    """Mode-mixed thermal state parameters.

    kappa1 >= kappa2 >= 1/2 are the thermal symplectic eigenvalues; theta
    is the beam-splitter co-latitude in [0, pi] (transmission cos^2(theta/2));
    phi the mixing phase. Equal eigenvalues are accepted and give a product
    state (the cross-correlations vanish).
    """

    kappa1: float
    kappa2: float
    theta: float
    phi: float = 0.0

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.kappa1, self.kappa2, self.theta, self.phi))):
            raise InvalidParamsError("parameters must be finite")
        if self.kappa2 < 0.5 or self.kappa1 < self.kappa2:
            raise InvalidParamsError("need kappa1 >= kappa2 >= 1/2")
        if not 0.0 <= self.theta <= math.pi:
            raise InvalidParamsError("theta must lie in [0, pi]")
        object.__setattr__(self, "phi", _fold_angle(self.phi))


def sts_standard_form(p: StsParams) -> StandardForm:
    """Standard form of a squeezed thermal state (d = -c <= 0)."""
    k1, k2 = p.nbar1 + 0.5, p.nbar2 + 0.5
    ch, sh = math.cosh(p.r), math.sinh(p.r)
    b1 = k1 * ch * ch + k2 * sh * sh
    b2 = k2 * ch * ch + k1 * sh * sh
    c = (k1 + k2) * ch * sh
    return StandardForm(b1, b2, c, -c)


def sts_state(p: StsParams) -> GaussianState:
    """Two-mode squeezed thermal state with zero mean."""
    return GaussianState(np.zeros(4), sts_standard_form(p).to_cm())


def mts_standard_form(p: MtsParams) -> StandardForm:
    """Standard form of a mode-mixed thermal state (d = +c >= 0)."""
    co, si = math.cos(p.theta / 2.0), math.sin(p.theta / 2.0)
    b1 = p.kappa1 * co * co + p.kappa2 * si * si
    b2 = p.kappa2 * co * co + p.kappa1 * si * si
    c = (p.kappa1 - p.kappa2) * co * si
    return StandardForm(b1, b2, c, c)


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


def entropic_h(x: float) -> float:
    """The entropic function (x + 1/2) ln(x + 1/2) - (x - 1/2) ln(x - 1/2).

    Defined for x >= 1/2 with h(1/2) = 0; the second term is short-circuited
    to zero within 1e-12 of the boundary to avoid 0 * ln 0.
    """
    x = float(x)
    if x < 0.5 - 1e-9:
        raise InvalidParamsError(f"entropic function requires x >= 1/2, got {x}")
    plus = (x + 0.5) * math.log(x + 0.5)
    if x - 0.5 < _H_CUTOFF:
        return plus if x > 0.5 else 0.0
    return plus - (x - 0.5) * math.log(x - 0.5)


def von_neumann_entropy(state: GaussianState) -> float:
    """Entropy in nats: sum of the entropic function over the spectrum."""
    kappas = symplectic_eigenvalues(state.cm)
    return float(sum(entropic_h(k) for k in np.maximum(kappas, 0.5)))
