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
them and adds the closest product state. The single-measure functions
return their field of ``correlation_report``, and A*, the root and every
discord come from ``forms._form_affinity_and_discord``; the paper's X and
Y formulas are cross-checks in ``ghk.checks``. Importing this module loads
no numpy, nor does any function whose result holds no array;
``ProductStateParams``, ``ClosestProduct`` and ``closest_product_state``
import numpy and ``ghk.states`` when they run.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .errors import (
    InvalidParamsError,
    NotPhysicalError,
    OutOfFamilyError,
)
from .forms import (
    CorrelationReport,
    MtsParams,
    StandardForm,
    StsParams,
    _checked_form,
    _eof_symmetric,
    _family_breach,
    _form_affinity_and_discord,
    _form_report,
    _mts_form,
    _form_record,
    _sts_form,
)
from .symplectic import _finite_vector, _framed_reduction, _reduce, standard_form
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
    # validated into a read-only array
    mean: np.ndarray = (0.0, 0.0, 0.0, 0.0)

    def __post_init__(self) -> None:
        self._validate(active_profile().phys_tol)

    def _validate(self, tol: float) -> None:
        import numpy as np

        scalars = (self.eta1, self.eta2, self.r1, self.r2, self.phi1, self.phi2)
        if not all(map(math.isfinite, scalars)):
            raise InvalidParamsError("product-state parameters must be finite")
        if min(self.eta1, self.eta2) < 0.5 - tol:
            raise NotPhysicalError("one-mode symplectic eigenvalues must be >= 1/2")
        mean = np.array(_finite_vector(self.mean, 4, "mean"))
        mean.flags.writeable = False
        object.__setattr__(self, "mean", mean)

    def cm(self) -> np.ndarray:
        import numpy as np

        m = np.zeros((4, 4))
        m[:2, :2] = _squeezed_thermal_block(self.eta1, self.r1, self.phi1)
        m[2:, 2:] = _squeezed_thermal_block(self.eta2, self.r2, self.phi2)
        return m

    def state(self) -> GaussianState:
        from .states import GaussianState

        return GaussianState(self.mean, self.cm())


def _product_params(tol: float, **fields) -> ProductStateParams:
    """``ProductStateParams`` validated against the phys_tol ``tol``."""
    params = object.__new__(ProductStateParams)
    vars(params).update(fields)
    params._validate(tol)
    return params


def _squeezed_thermal_block(eta: float, r: float, phi: float) -> np.ndarray:
    import numpy as np

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


def max_affinity(V) -> float:
    """Maximal affinity between a two-mode state and the product states.

    ``V`` is what ``correlation_report`` takes. The closed form on the
    standard form of the square-root state; local squeeze scales drop out.
    Not a report field: 1 - discord would lose the relative accuracy of A*.
    The tolerance profile is read once, for the reduction and the form.
    """
    profile = active_profile()
    sf = V if isinstance(V, StandardForm) else _reduce(V, profile)[0]
    return _form_affinity_and_discord(sf, profile.phys_tol)[0]


def _optimum(root: tuple) -> tuple[float, float, float, float]:
    """(eta1, eta2, e^{2 r1}, e^{2 r2}) of the optimum's square-root state,
    from the square-root form as ``forms._sqrt_form`` gives it: its fields and
    its record's gaps kt1 kt2 rho_t, kt1 kt2 / rho_t, so that
    (gct / gdt)^(1/4) = sqrt(rho_t)."""
    (bt1, bt2, _, _, st1, st2), record = root
    g1, g2, rho = record[2]
    geo = g1 * g2  # = kt1 * kt2
    eta1 = math.sqrt(bt1 / bt2 * geo)
    eta2 = geo / eta1
    quotient = math.sqrt(rho)
    return eta1, eta2, st1 * quotient, st2 * quotient


def closest_product_state(V, mean=None) -> ClosestProduct:
    """Closest product Gaussian state (in Hellinger distance) to a state.

    The input is reduced to standard form by tracked local symplectics, the
    closed-form optimum is evaluated there, and the result is conjugated
    back into the caller's frame, so the reported affinity is attained by
    the reconstructed state for any physical input. A* and the square-root
    form are those of ``max_affinity``. The optimal product state copies the
    input displacement, which its parameters check after the matrix.
    """
    profile = active_profile()
    sf, frame = _framed_reduction(V, profile)
    tol = profile.phys_tol
    value, _, root = _form_affinity_and_discord(sf, tol, with_root=True)
    eta1, eta2, e2r1, e2r2 = _optimum(root)
    (f00, f01, _, _), (f10, f11, _, _), (_, _, g00, g01), (_, _, g10, g11) = frame
    e1, rr1, ph1 = _frame_params(f00, f01, f10, f11, eta1, e2r1)
    e2, rr2, ph2 = _frame_params(g00, g01, g10, g11, eta2, e2r2)
    params = _product_params(
        tol, eta1=e1, eta2=e2, r1=rr1, r2=rr2, phi1=ph1, phi2=ph2,
        mean=ProductStateParams.mean if mean is None else mean,
    )
    return ClosestProduct(params=params, max_affinity=value)


def hellinger_discord(V) -> float:
    """Hellinger discord: 1 - max_affinity. Zero iff the state is a product.

    The report's field, evaluated without forming the difference, so that
    a small discord keeps its relative accuracy.
    """
    return correlation_report(V).hellinger_discord


def hellinger_discord_symmetric(b: float, c: float, d: float) -> float:
    """Discord of a symmetric state (b1 = b2 = b), for either sign of d.

    The one closed form of the discord on the form (b, b, c, d), alone,
    without the report's other measures. The paper's partial-transpose
    formula is the cross-check ``ghk.checks.hellinger_discord_pt``.
    """
    tol = active_profile().phys_tol
    return _form_affinity_and_discord(_checked_form(tol, b, b, c, d), tol)[1]


def hellinger_discord_sts(p: StsParams) -> float:
    """Discord of a squeezed thermal state: the report's field of its family
    form, on its exact square root (kt1, kt2, r), kt = k + sqrt(k^2 - 1/4),
    whose gaps are exactly kt1 kt2, so it keeps its relative accuracy. Equal
    occupancies give tanh^2(r); ``ghk.checks.hellinger_discord_x`` is the
    paper's X formula."""
    tol = active_profile().phys_tol
    return _form_affinity_and_discord(_sts_form(p, tol), tol)[1]


def hellinger_discord_mts(p: MtsParams) -> float:
    """Discord of a mode-mixed thermal state, as ``hellinger_discord_sts``,
    on (kt1, kt2, theta); ``ghk.checks.hellinger_discord_y`` is the paper's
    Y formula."""
    tol = active_profile().phys_tol
    return _form_affinity_and_discord(_mts_form(p, tol), tol)[1]


def simon_separable(V) -> bool:
    """PPT separability of a two-mode Gaussian state.

    True iff the partial transpose (standard form with d -> -d) is again a
    physical covariance matrix. States with d >= 0 are always separable.
    The report's ``separable`` field.
    """
    return correlation_report(V).separable


def _family_field(V, name: str) -> float:
    """The field ``name`` of ``correlation_report(V)``, which is None
    outside the symmetric |d| = c family: OutOfFamilyError there."""
    report = correlation_report(V)
    value = getattr(report, name)
    if value is None:
        raise OutOfFamilyError(_family_breach(report.standard_form))
    return value


def entropic_discord(V) -> float:
    """Measurement-based Gaussian discord of a symmetric |d| = c state.

    h(b) - h(k1) - h(k2) + h(y) with y = b - c^2/(b + 1/2). Nonnegative and
    zero iff the cross-correlations vanish. The report's field.
    """
    return _family_field(V, "entropic_discord")


def mutual_information(V) -> float:
    """Quantum mutual information h(b1) + h(b2) - h(k1) - h(k2).

    For a product state the spectrum equals the marginals and the value is
    exactly zero. The report's field.
    """
    return correlation_report(V).mutual_information


def classical_correlations(V) -> float:
    """Classical correlations h(b) - h(y) of a symmetric |d| = c state.

    Equals mutual_information - entropic_discord and is identical for the
    d = +c and d = -c partners of the same (b, c). The report's field.
    """
    return _family_field(V, "classical_correlations")


def entanglement_of_formation_symmetric(b: float, c: float) -> float:
    """Entanglement of formation of a symmetric squeezed thermal state.

    For the d = -c family: zero when b - c >= 1/2 (separable), otherwise
    h(z) with z = ((b - c)^2 + 1/4) / (2 (b - c)), the gap b - c taken from
    the form's gaps as in the report. Evaluated alone, as
    ``hellinger_discord_symmetric`` is.
    """
    tol = active_profile().phys_tol
    sf = _checked_form(tol, b, b, c, -c)
    _, _, gaps, h, _ = _form_record(sf, tol)
    return _eof_symmetric(sf.b1, sf.c, gaps, h)


def correlation_report(V, mean=None) -> CorrelationReport:
    """Aggregate every measure for one state.

    ``V`` is a covariance matrix, reduced once by ``standard_form``, which
    decides it (a float certificate, else an exact decision on integers),
    or a ``StandardForm``, used as it is and decided by the gate on its
    closed-form spectrum. Both go through the one report route of
    ``ghk.forms``: every field is read from the one record of exact
    quantities that the form carries, and the scales, which no measure
    depends on, are reported as 1, so the report of a matrix equals the
    report of its standard form. The measures are displacement-invariant;
    the mean, if given, is only checked, first, by the one check of every
    mean and displacement (``ghk.symplectic._finite_vector``): 4 finite
    entries, read in floats where they are a flat sequence of real numbers,
    so that a report of nested lists loads no numpy.
    """
    if mean is not None:
        _finite_vector(mean, 4, "mean")
    tol = active_profile().phys_tol
    return _form_report(V if isinstance(V, StandardForm) else standard_form(V), tol)

