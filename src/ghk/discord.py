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
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import symplectic
from .errors import (
    DimensionMismatchError,
    InvalidParamsError,
    NotPhysicalError,
    OutOfFamilyError,
)
from .states import (
    GaussianState,
    MtsParams,
    StsParams,
    entropic_h,
)
from .symplectic import (
    StandardForm,
    as_covariance,
    det2,
    invariants_from_spectrum,
    reduce_to_standard_form,
    square_root_standard_form,
    standard_form,
)
from .tolerances import active_profile

# Cross-correlations below this (relative) threshold are treated as exactly
# absent: the state is a product, its discord is exactly zero, and the
# closest product state is the square-root state's own pair of marginals.
_PRODUCT_ATOL = 1e-14

# Width of the symmetric |d| = c family within which the entropic closed
# forms apply.
_FAMILY_RTOL = 1e-9


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
        scalars = [self.eta1, self.eta2, self.r1, self.r2, self.phi1, self.phi2]
        if not all(np.isfinite(scalars)):
            raise InvalidParamsError("product-state parameters must be finite")
        if min(self.eta1, self.eta2) < 0.5 - active_profile().phys_tol:
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


def _squeezed_thermal_block(eta: float, r: float, phi: float) -> np.ndarray:
    ch, sh = math.cosh(2.0 * r), math.sinh(2.0 * r)
    co, si = math.cos(phi), math.sin(phi)
    return eta * np.array([[ch + co * sh, si * sh], [si * sh, ch - co * sh]])


def _sqrt_eigenvalue_inverse(eta_tilde: float) -> float:
    """Invert kappa -> kappa + sqrt(kappa^2 - 1/4)."""
    return 0.5 * (eta_tilde + 0.25 / eta_tilde)


def _one_mode_params(block: np.ndarray) -> tuple[float, float, float]:
    """Recover (eta, r, phi) from a one-mode covariance block.

    When the block is diagonal the signed-squeeze convention (phi = 0,
    r of either sign) is used; otherwise r >= 0 and phi in (-pi, pi].
    """
    eta = math.sqrt(max(det2(block), 0.0))
    trace = block[0, 0] + block[1, 1]
    ch = trace / (2.0 * eta)
    if ch <= 1.0 + 1e-15:
        return eta, 0.0, 0.0
    sh = math.sqrt(ch * ch - 1.0)
    if abs(block[0, 1]) <= 1e-12 * eta * sh:
        return eta, 0.25 * math.log(block[0, 0] / block[1, 1]), 0.0
    r = 0.5 * math.log(ch + sh)
    phi = math.atan2(block[0, 1] / (eta * sh), (block[0, 0] - block[1, 1]) / (2.0 * eta * sh))
    return eta, r, phi


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


def _is_uncorrelated(sf: StandardForm) -> bool:
    return max(abs(sf.c), abs(sf.d)) <= _PRODUCT_ATOL * max(1.0, sf.b1 * sf.b2)


def _max_affinity_from_tilde(tsf: StandardForm) -> float:
    bb = tsf.b1 * tsf.b2
    gc = max(bb - tsf.c * tsf.c, 0.0)
    gd = max(bb - tsf.d * tsf.d, 0.0)
    num = 4.0 * math.sqrt(gc * gd)
    den = (math.sqrt(bb) + math.sqrt(gc)) * (math.sqrt(bb) + math.sqrt(gd))
    return min(math.sqrt(num / den), 1.0)


def _max_affinity(sf: StandardForm) -> float:
    if _is_uncorrelated(sf):
        return 1.0
    return _max_affinity_from_tilde(square_root_standard_form(sf))


def max_affinity(V) -> float:
    """Maximal affinity between a two-mode state and the product states.

    Production route: evaluate the closed form on the standard form of the
    square-root state. Local squeeze scales drop out, so the plain
    (unscaled) standard-form reduction suffices.
    """
    return _max_affinity(standard_form(V))


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
    cov = as_covariance(V)
    if cov.n != 2:
        raise DimensionMismatchError("closest product state needs two modes")
    mean = np.zeros(4) if mean is None else np.asarray(mean, dtype=float).reshape(-1)
    if mean.shape != (4,):
        raise DimensionMismatchError("mean must be a 4-vector")
    sf, frame = reduce_to_standard_form(cov)
    tsf = square_root_standard_form(sf)
    value = 1.0 if _is_uncorrelated(sf) else _max_affinity_from_tilde(tsf)
    eta1, eta2, e2r1, e2r2 = _optimum(tsf)
    r1 = 0.5 * math.log(e2r1)
    r2 = 0.5 * math.log(e2r2)
    sqrt_blocks = np.zeros((4, 4))
    sqrt_blocks[:2, :2] = _squeezed_thermal_block(eta1, r1, 0.0)
    sqrt_blocks[2:, 2:] = _squeezed_thermal_block(eta2, r2, 0.0)
    in_frame = frame @ sqrt_blocks @ frame.T
    e1, rr1, ph1 = _one_mode_params(in_frame[:2, :2])
    e2, rr2, ph2 = _one_mode_params(in_frame[2:, 2:])
    params = ProductStateParams(
        eta1=e1, eta2=e2, r1=rr1, r2=rr2, phi1=ph1, phi2=ph2, mean=mean
    )
    return ClosestProduct(params=params, max_affinity=value)


def hellinger_discord(V) -> float:
    """Hellinger discord: 1 - max_affinity. Zero iff the state is a product."""
    return 1.0 - max_affinity(V)


def hellinger_discord_symmetric(b: float, c: float, d: float) -> float:
    """Discord of a symmetric state (b1 = b2 = b) from its PT spectrum.

    1 - 4 (det V)^(1/4) / [k1_pt + k2_pt + 2 (det V)^(1/4)(sqrt(N1) - sqrt(N2))]
    where k_pt are the symplectic eigenvalues of the partial transpose.
    Covers both signs of d.
    """
    sf = StandardForm(b, b, c, d)
    k1, k2 = sf.spectrum()
    if k2 < 0.5 - active_profile().phys_tol:
        raise NotPhysicalError("symmetric state parameters are unphysical")
    if _is_uncorrelated(sf):
        return 0.0
    inv = invariants_from_spectrum((k1, k2))
    k1_pt = math.sqrt(max((b + c) * (b - d), 0.0))
    k2_pt = math.sqrt(max((b - c) * (b + d), 0.0))
    root4 = sf.cm_determinant() ** 0.25
    den = k1_pt + k2_pt + 2.0 * root4 * (math.sqrt(inv.N1) - math.sqrt(inv.N2))
    return 1.0 - 4.0 * root4 / den


def hellinger_discord_sts(p: StsParams) -> float:
    """Discord of a squeezed thermal state, directly from its parameters.

    1 - 2/(sqrt(X) + 1) with
    X = 1 + 2 (k1 k2 + 1/4 - sqrt(D)) sinh^2(2r). For equal occupancies
    this collapses to tanh^2(r) for every mixing degree.
    """
    if p.r == 0.0:
        return 0.0
    k1, k2 = p.nbar1 + 0.5, p.nbar2 + 0.5
    inv = invariants_from_spectrum((max(k1, k2), min(k1, k2)))
    x = 1.0 + 2.0 * (k1 * k2 + 0.25 - math.sqrt(inv.D)) * math.sinh(2.0 * p.r) ** 2
    return 1.0 - 2.0 / (math.sqrt(x) + 1.0)


def hellinger_discord_mts(p: MtsParams) -> float:
    """Discord of a mode-mixed thermal state, directly from its parameters.

    1 - 2/(sqrt(Y) + 1) with Y = 1 + 2 (k1 k2 - 1/4 - sqrt(D)) sin^2(theta).
    """
    if p.theta in (0.0, math.pi) or p.kappa1 == p.kappa2:
        return 0.0
    inv = invariants_from_spectrum((p.kappa1, p.kappa2))
    y = (
        1.0
        + 2.0
        * (p.kappa1 * p.kappa2 - 0.25 - math.sqrt(inv.D))
        * math.sin(p.theta) ** 2
    )
    return 1.0 - 2.0 / (math.sqrt(y) + 1.0)


def _simon_separable(sf: StandardForm, pt_spectrum: tuple[float, float]) -> bool:
    return sf.d >= 0.0 or pt_spectrum[1] >= 0.5 - active_profile().phys_tol


def simon_separable(V) -> bool:
    """PPT separability of a two-mode Gaussian state.

    True iff the partial transpose (standard form with d -> -d) is again a
    physical covariance matrix. States with d >= 0 are always separable.
    """
    sf = standard_form(V)
    return _simon_separable(sf, sf.partial_transpose().spectrum())


def _require_symmetric_dc(sf: StandardForm) -> tuple[float, float]:
    scale_b = max(1.0, abs(sf.b1), abs(sf.b2))
    scale_c = max(1.0, abs(sf.c))
    if abs(sf.b1 - sf.b2) > _FAMILY_RTOL * scale_b:
        raise OutOfFamilyError("closed form requires equal diagonal strengths")
    if abs(sf.c - abs(sf.d)) > _FAMILY_RTOL * scale_c:
        raise OutOfFamilyError("closed form requires |d| = c cross-correlations")
    return 0.5 * (sf.b1 + sf.b2), sf.c


def _entropic_discord(sf: StandardForm) -> float:
    b, c = _require_symmetric_dc(sf)
    if _is_uncorrelated(sf):
        return 0.0
    k1, k2 = sf.spectrum()
    y = b - c * c / (b + 0.5)
    value = entropic_h(b) - entropic_h(k1) - entropic_h(max(k2, 0.5)) + entropic_h(y)
    return max(value, 0.0)


def entropic_discord(V) -> float:
    """Measurement-based Gaussian discord of a symmetric |d| = c state.

    h(b) - h(k1) - h(k2) + h(y) with y = b - c^2/(b + 1/2). Nonnegative and
    zero iff the cross-correlations vanish.
    """
    return _entropic_discord(standard_form(V))


def _mutual_information(sf: StandardForm) -> float:
    if _is_uncorrelated(sf):
        return 0.0
    k1, k2 = sf.spectrum()
    value = (
        entropic_h(sf.b1)
        + entropic_h(sf.b2)
        - entropic_h(k1)
        - entropic_h(max(k2, 0.5))
    )
    return max(value, 0.0)


def mutual_information(V) -> float:
    """Quantum mutual information h(b1) + h(b2) - h(k1) - h(k2).

    For a product state the spectrum equals the marginals and the value is
    exactly zero.
    """
    return _mutual_information(standard_form(V))


def _classical_correlations(sf: StandardForm) -> float:
    b, c = _require_symmetric_dc(sf)
    if _is_uncorrelated(sf):
        return 0.0
    y = b - c * c / (b + 0.5)
    return max(entropic_h(b) - entropic_h(y), 0.0)


def classical_correlations(V) -> float:
    """Classical correlations h(b) - h(y) of a symmetric |d| = c state.

    Equals mutual_information - entropic_discord and is identical for the
    d = +c and d = -c partners of the same (b, c).
    """
    return _classical_correlations(standard_form(V))


def entanglement_of_formation_symmetric(b: float, c: float) -> float:
    """Entanglement of formation of a symmetric squeezed thermal state.

    For the d = -c family: zero when b - c >= 1/2 (separable), otherwise
    h(z) with z = ((b - c)^2 + 1/4) / (2 (b - c)).
    """
    sf = StandardForm(b, b, c, -c)
    if sf.spectrum()[1] < 0.5 - active_profile().phys_tol:
        raise NotPhysicalError("symmetric state parameters are unphysical")
    gap = b - c
    if gap >= 0.5:
        return 0.0
    z = (gap * gap + 0.25) / (2.0 * gap)
    return entropic_h(z)


@dataclass(frozen=True)
class CorrelationReport:
    """All correlation measures of a two-mode state.

    Fields that only exist for the symmetric |d| = c family (entropic
    discord, classical correlations) or for symmetric squeezed thermal
    states (entanglement of formation, unless separability forces it to 0)
    are None when unavailable; absence is never encoded as 0.
    """

    hellinger_discord: float
    mutual_information: float
    separable: bool
    symplectic_spectrum: tuple[float, float]
    pt_spectrum: tuple[float, float]
    entropic_discord: float | None
    classical_correlations: float | None
    eof: float | None
    standard_form: StandardForm


def _physical_unscaled(sf: StandardForm) -> StandardForm:
    """A given standard form with unit scales, once it is known physical.

    Physicality is read from the closed-form spectrum, as in
    ``square_root_standard_form``. b1 b2 > c^2 (with c >= |d|) is checked
    too: the spectrum formula can read above 1/2 on forms that belong to
    no positive-definite matrix.
    """
    if (
        sf.b1 * sf.b2 <= sf.c * sf.c
        or sf.spectrum()[1] < 0.5 - active_profile().phys_tol
    ):
        raise NotPhysicalError("standard form is not a physical state")
    return StandardForm(sf.b1, sf.b2, sf.c, sf.d)


def correlation_report(V, mean=None) -> CorrelationReport:
    """Aggregate every measure for one state.

    ``V`` is a covariance matrix, reduced once by ``standard_form``, or a
    ``StandardForm``, which is used as it is: its physicality is read from
    the closed-form spectrum and its scales, which no measure depends on,
    are reported as 1. Every field is evaluated from that one standard
    form. The measures are displacement-invariant; the mean, if given, is
    only validated.
    """
    if mean is not None:
        m = np.asarray(mean, dtype=float).reshape(-1)
        if m.shape != (4,) or not np.all(np.isfinite(m)):
            raise DimensionMismatchError("mean must be a finite 4-vector")
    # The class is looked up on its module because a tracer (bench/spans.py)
    # may swap the imported name for a wrapper function.
    if isinstance(V, symplectic.StandardForm):
        sf = _physical_unscaled(V)
    else:
        sf = standard_form(V)
    in_family = True
    try:
        b, c = _require_symmetric_dc(sf)
    except OutOfFamilyError:
        in_family = False
    pt_spectrum = sf.partial_transpose().spectrum()
    separable = _simon_separable(sf, pt_spectrum)
    ent = cc = eof = None
    if in_family:
        ent = _entropic_discord(sf)
        cc = _classical_correlations(sf)
    if in_family and sf.d <= 0.0:
        eof = entanglement_of_formation_symmetric(b, c)
    elif separable:
        eof = 0.0
    return CorrelationReport(
        hellinger_discord=1.0 - _max_affinity(sf),
        mutual_information=_mutual_information(sf),
        separable=separable,
        symplectic_spectrum=sf.spectrum(),
        pt_spectrum=pt_spectrum,
        entropic_discord=ent,
        classical_correlations=cc,
        eof=eof,
        standard_form=sf,
    )
