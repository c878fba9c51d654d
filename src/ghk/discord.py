"""Closest product state, Hellinger discord, and entropic correlation measures.

The Hellinger discord of a two-mode Gaussian state is 1 minus the maximal
affinity over all product Gaussian states. The maximizer is known in closed
form through the standard form (bt1, bt2, ct, dt, st1, st2) of the
square-root state:

  * the square root of the optimal product state has one-mode symplectic
    eigenvalues eta_j = sqrt((bt_j / bt_other) kt1 kt2), squeeze parameters
    exp(2 r_j) = st_j [(bt1 bt2 - ct^2)/(bt1 bt2 - dt^2)]^(1/4) and squeeze
    angles 0;
  * the maximal affinity is
    [4 sqrt(det Vt) / ((sqrt(bt1 bt2) + sqrt(bt1 bt2 - ct^2))
                       (sqrt(bt1 bt2) + sqrt(bt1 bt2 - dt^2)))]^(1/2).

The measures of a standard form and ``CorrelationReport`` are float closed
forms of ``ghk.forms``; this module reduces matrices to standard form for
them and adds the closest product state.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidParamsError, NotPhysicalError
from .forms import (
    CorrelationReport,
    StandardForm,
    _affinity_and_discord,
    _checked_form,
    _eof_symmetric,
    _form_affinity_and_discord,
    _form_report,
    _invariants,
    _is_uncorrelated,
    _mutual_information,
    _pt_spectrum,
    _simon_separable,
    _spectrum_entropies,
    _sqrt_form,
    _symmetric_measures,
)
from .states import GaussianState, MtsParams, StsParams
from .symplectic import _framed_reduction, invariants_from_spectrum, standard_form
from .tolerances import active_profile


@dataclass(frozen=True)
class ProductStateParams:
    """Parameters of a product of one-mode squeezed thermal states.

    eta1, eta2 are the one-mode symplectic eigenvalues (>= 1/2), r1, r2 the
    squeeze parameters, phi1, phi2 the squeeze angles, mean the quadrature
    displacement. Mode j contributes the block
    eta [[cosh 2r + cos(phi) sinh 2r, sin(phi) sinh 2r],
         [sin(phi) sinh 2r, cosh 2r - cos(phi) sinh 2r]].
    """

    eta1: float
    eta2: float
    r1: float
    r2: float
    phi1: float = 0.0
    phi2: float = 0.0
    mean: np.ndarray = dataclasses.field(default_factory=lambda: np.zeros(4))

    def __post_init__(self) -> None:
        self._validate(active_profile().phys_tol)

    def _validate(self, tol: float) -> None:
        scalars = (self.eta1, self.eta2, self.r1, self.r2, self.phi1, self.phi2)
        if not all(map(math.isfinite, scalars)):
            raise InvalidParamsError("product-state parameters must be finite")
        if min(self.eta1, self.eta2) < 0.5 - tol:
            raise NotPhysicalError("one-mode symplectic eigenvalues must be >= 1/2")
        mean = np.array(self.mean, dtype=float).reshape(-1)
        if mean.shape != (4,):
            raise DimensionMismatchError("mean must be a 4-vector")
        mean.flags.writeable = False
        object.__setattr__(self, "mean", mean)

    def cm(self) -> np.ndarray:
        m = np.zeros((4, 4))
        m[:2, :2] = _squeezed_thermal_block(self.eta1, self.r1, self.phi1)
        m[2:, 2:] = _squeezed_thermal_block(self.eta2, self.r2, self.phi2)
        return m

    def state(self) -> GaussianState:
        return GaussianState(self.mean, self.cm())


def _product_params(tol: float, **fields) -> ProductStateParams:
    """``ProductStateParams`` validated against the phys_tol ``tol``."""
    params = object.__new__(ProductStateParams)
    vars(params).update(fields)
    params._validate(tol)
    return params


def _squeezed_thermal_block(eta: float, r: float, phi: float) -> np.ndarray:
    ch, sh = math.cosh(2.0 * r), math.sinh(2.0 * r)
    co, si = math.cos(phi), math.sin(phi)
    return eta * np.array([[ch + co * sh, si * sh], [si * sh, ch - co * sh]])


def _sqrt_eigenvalue_inverse(eta_tilde: float) -> float:
    """Invert kappa -> kappa + sqrt(kappa^2 - 1/4)."""
    return 0.5 * (eta_tilde + 0.25 / eta_tilde)


def _one_mode_params(x00: float, x01: float, x11: float) -> tuple[float, float, float]:
    """Recover (eta, r, phi) from a one-mode covariance block.

    When the block is diagonal the signed-squeeze convention (phi = 0,
    r of either sign) is used; otherwise r >= 0 and phi in (-pi, pi].
    """
    eta = math.sqrt(max(x00 * x11 - x01 * x01, 0.0))
    ch = (x00 + x11) / (2.0 * eta)
    if ch <= 1.0 + 1e-15:
        return eta, 0.0, 0.0
    sh = math.sqrt(ch * ch - 1.0)
    if abs(x01) <= 1e-12 * eta * sh:
        return eta, 0.25 * math.log(x00 / x11), 0.0
    r = 0.5 * math.log(ch + sh)
    phi = math.atan2(x01 / (eta * sh), (x00 - x11) / (2.0 * eta * sh))
    return eta, r, phi


def _frame_params(s00, s01, s10, s11, eta, e2r) -> tuple[float, float, float]:
    """(eta, r, phi) of S diag(eta e^{2r}, eta e^{-2r}) S^T for a 2x2 frame S."""
    p, m = eta * e2r, eta / e2r
    return _one_mode_params(
        s00 * s00 * p + s01 * s01 * m,
        s00 * s10 * p + s01 * s11 * m,
        s10 * s10 * p + s11 * s11 * m,
    )


@dataclass(frozen=True)
class ClosestProduct:
    """The product Gaussian state of maximal affinity with a given state.

    ``params`` describes the optimum through its *square-root* state: the
    eta values are the one-mode symplectic eigenvalues of the square root
    of the optimal product state (squeeze parameters and angles are shared
    between a one-mode state and its square root). ``params.state()``
    therefore builds that square-root state, while ``product_state()``
    undoes the spectral map and returns the optimal product state itself.
    """

    params: ProductStateParams
    max_affinity: float

    def product_state(self) -> GaussianState:
        p = dataclasses.replace(
            self.params,
            eta1=_sqrt_eigenvalue_inverse(self.params.eta1),
            eta2=_sqrt_eigenvalue_inverse(self.params.eta2),
        )
        return p.state()


def _reduced(V) -> tuple[StandardForm, float, tuple[float, float]]:
    """(sf, phys_tol, spectrum of sf): the preamble of the matrix measures.

    One ``standard_form`` reduction, then one more read of the tolerance
    profile for the measures' own phys_tol.
    """
    sf = standard_form(V)
    return sf, active_profile().phys_tol, sf.spectrum()


def max_affinity(V) -> float:
    """Maximal affinity between a two-mode state and the product states.

    Production route: evaluate the closed form on the standard form of the
    square-root state. Local squeeze scales drop out, so the plain
    (unscaled) standard-form reduction suffices.
    """
    return _form_affinity_and_discord(*_reduced(V))[0]


def _optimum(tsf: StandardForm) -> tuple[float, float, float, float]:
    """(eta1, eta2, e^{2 r1}, e^{2 r2}) of the optimum's square-root state.

    ``tsf`` is the standard form of the input's square-root state.
    """
    bb = tsf.b1 * tsf.b2
    gc = max(bb - tsf.c * tsf.c, 0.0)
    gd = max(bb - tsf.d * tsf.d, 0.0)
    geo = math.sqrt(gc * gd)  # = kt1 * kt2
    eta1 = math.sqrt(tsf.b1 / tsf.b2 * geo)
    eta2 = geo / eta1
    quotient = (gc / gd) ** 0.25
    return eta1, eta2, tsf.s1 * quotient, tsf.s2 * quotient


def closest_product_state(V, mean=None) -> ClosestProduct:
    """Closest product Gaussian state (in Hellinger distance) to a state.

    The input is reduced to standard form by tracked local symplectics, the
    closed-form optimum is evaluated there, and the result is conjugated
    back into the caller's frame, so the reported affinity is attained by
    the reconstructed state for any physical input. The optimal product
    state copies the input displacement.
    """
    sf, frame = _framed_reduction(V)
    mean = np.zeros(4) if mean is None else np.asarray(mean, dtype=float).reshape(-1)
    if mean.shape != (4,):
        raise DimensionMismatchError("mean must be a 4-vector")
    tol = active_profile().phys_tol
    tsf = _sqrt_form(sf, tol, sf.spectrum())
    value = 1.0 if _is_uncorrelated(sf) else _affinity_and_discord(tsf)[0]
    eta1, eta2, e2r1, e2r2 = _optimum(tsf)
    (f00, f01, _, _), (f10, f11, _, _), (_, _, g00, g01), (_, _, g10, g11) = frame
    e1, rr1, ph1 = _frame_params(f00, f01, f10, f11, eta1, e2r1)
    e2, rr2, ph2 = _frame_params(g00, g01, g10, g11, eta2, e2r2)
    params = _product_params(
        tol, eta1=e1, eta2=e2, r1=rr1, r2=rr2, phi1=ph1, phi2=ph2, mean=mean
    )
    return ClosestProduct(params=params, max_affinity=value)


def hellinger_discord(V) -> float:
    """Hellinger discord: 1 - max_affinity. Zero iff the state is a product.

    Evaluated without forming the difference, so that a small discord keeps
    its relative accuracy.
    """
    return _form_affinity_and_discord(*_reduced(V))[1]


def hellinger_discord_symmetric(b: float, c: float, d: float) -> float:
    """Discord of a symmetric state (b1 = b2 = b) from its PT spectrum.

    1 - 4 (det V)^(1/4) / [k1_pt + k2_pt + 2 (det V)^(1/4)(sqrt(N1) - sqrt(N2))]
    where k_pt are the symplectic eigenvalues of the partial transpose.
    Covers both signs of d.
    """
    tol = active_profile().phys_tol
    sf = _checked_form(tol, b, b, c, d)
    k1, k2 = sf.spectrum()
    if k2 < 0.5 - tol:
        raise NotPhysicalError("symmetric state parameters are unphysical")
    if _is_uncorrelated(sf):
        return 0.0
    inv = _invariants(k1, k2, tol)
    k1_pt = math.sqrt(max((b + c) * (b - d), 0.0))
    k2_pt = math.sqrt(max((b - c) * (b + d), 0.0))
    root4 = sf.cm_determinant() ** 0.25
    den = k1_pt + k2_pt + 2.0 * root4 * (math.sqrt(inv.N1) - math.sqrt(inv.N2))
    return 1.0 - 4.0 * root4 / den


def hellinger_discord_sts(p: StsParams) -> float:
    """Discord of a squeezed thermal state, directly from its parameters.

    1 - 2/(sqrt(X) + 1) with
    X = 1 + 2 (k1 k2 + 1/4 - sqrt(D)) sinh^2(2r). For equal occupancies
    this collapses to tanh^2(r) for every mixing degree. Evaluated as
    (X - 1)/(sqrt(X) + 1)^2, with X - 1 formed directly, so that a small
    discord keeps its relative accuracy.
    """
    if p.r == 0.0:
        return 0.0
    k1, k2 = p.nbar1 + 0.5, p.nbar2 + 0.5
    inv = invariants_from_spectrum((max(k1, k2), min(k1, k2)))
    x_minus_1 = 2.0 * (k1 * k2 + 0.25 - math.sqrt(inv.D)) * math.sinh(2.0 * p.r) ** 2
    return x_minus_1 / (math.sqrt(1.0 + x_minus_1) + 1.0) ** 2


def hellinger_discord_mts(p: MtsParams) -> float:
    """Discord of a mode-mixed thermal state, directly from its parameters.

    1 - 2/(sqrt(Y) + 1) with Y = 1 + 2 (k1 k2 - 1/4 - sqrt(D)) sin^2(theta),
    evaluated as (Y - 1)/(sqrt(Y) + 1)^2 like ``hellinger_discord_sts``.
    """
    if p.theta in (0.0, math.pi) or p.kappa1 == p.kappa2:
        return 0.0
    inv = invariants_from_spectrum((p.kappa1, p.kappa2))
    y_minus_1 = (
        2.0
        * (p.kappa1 * p.kappa2 - 0.25 - math.sqrt(inv.D))
        * math.sin(p.theta) ** 2
    )
    return y_minus_1 / (math.sqrt(1.0 + y_minus_1) + 1.0) ** 2


def simon_separable(V) -> bool:
    """PPT separability of a two-mode Gaussian state.

    True iff the partial transpose (standard form with d -> -d) is again a
    physical covariance matrix. States with d >= 0 are always separable.
    """
    sf, tol, _ = _reduced(V)
    return _simon_separable(sf, _pt_spectrum(sf), tol)


def entropic_discord(V) -> float:
    """Measurement-based Gaussian discord of a symmetric |d| = c state.

    h(b) - h(k1) - h(k2) + h(y) with y = b - c^2/(b + 1/2). Nonnegative and
    zero iff the cross-correlations vanish.
    """
    sf, tol, spectrum = _reduced(V)
    return _symmetric_measures(sf, tol, _spectrum_entropies(spectrum, tol))[0]


def mutual_information(V) -> float:
    """Quantum mutual information h(b1) + h(b2) - h(k1) - h(k2).

    For a product state the spectrum equals the marginals and the value is
    exactly zero.
    """
    sf, tol, spectrum = _reduced(V)
    return _mutual_information(sf, _spectrum_entropies(spectrum, tol))


def classical_correlations(V) -> float:
    """Classical correlations h(b) - h(y) of a symmetric |d| = c state.

    Equals mutual_information - entropic_discord and is identical for the
    d = +c and d = -c partners of the same (b, c).
    """
    sf, tol, spectrum = _reduced(V)
    return _symmetric_measures(sf, tol, _spectrum_entropies(spectrum, tol))[1]


def entanglement_of_formation_symmetric(b: float, c: float) -> float:
    """Entanglement of formation of a symmetric squeezed thermal state.

    For the d = -c family: zero when b - c >= 1/2 (separable), otherwise
    h(z) with z = ((b - c)^2 + 1/4) / (2 (b - c)).
    """
    tol = active_profile().phys_tol
    sf = _checked_form(tol, b, b, c, -c)
    if sf.spectrum()[1] < 0.5 - tol:
        raise NotPhysicalError("symmetric state parameters are unphysical")
    return _eof_symmetric(sf.b1, sf.c)


def correlation_report(V, mean=None) -> CorrelationReport:
    """Aggregate every measure for one state.

    ``V`` is a covariance matrix, reduced once by ``standard_form``, or a
    ``StandardForm``, which is used as it is. Both go through the one
    report route of ``ghk.forms``: physicality is read from the closed-form
    spectrum of the form, its scales, which no measure depends on, are
    reported as 1, and every field is evaluated from that one form, so the
    report of a matrix equals the report of its standard form. The
    measures are displacement-invariant; the mean, if given, is only
    validated.
    """
    if mean is not None:
        m = np.asarray(mean, dtype=float).reshape(-1)
        if m.shape != (4,) or not np.all(np.isfinite(m)):
            raise DimensionMismatchError("mean must be a finite 4-vector")
    tol = active_profile().phys_tol
    return _form_report(V if isinstance(V, StandardForm) else standard_form(V), tol)
