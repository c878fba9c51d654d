"""Closed forms in Python floats: the numpy-free core of the package.

Standard forms and their symplectic spectrum, the square-root standard
form, the squeezed thermal and mode-mixed thermal families, the entropic
function, and every measure of a correlation report, each by one route:
A* and the Hellinger discord 1 - A* from ``_form_affinity_and_discord``,
every report and single-measure function from ``_form_report``. Every
measure reads one record of the form's exact quantities (``_form_record``),
which a family form carries from its parameters, a form reduced from a
matrix from the matrix's one decision, and a form given as floats fills
from its floats, passing a gate. ``ghk sweep`` and ``ghk report`` of family
or standard-form input need nothing else, so they run without numpy.

Only ``math``, ``dataclasses``, the error types and the tolerance profiles
are imported here. ``ghk.symplectic``, ``ghk.states`` and ``ghk.discord``
build on this module and re-export its names. ``ghk.symplectic`` adds the
two-mode reduction of a matrix in floats and ``ghk.discord`` the reports of
a matrix, both without loading numpy; ``StandardForm.to_cm`` reaches into
the array layer, when it is called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParamsError, NotPhysicalError
from .tolerances import active_profile

# Cross-correlations below this (relative) threshold are treated as exactly
# absent: the state is a product, its discord is exactly zero, and the
# closest product state is the square-root state's own pair of marginals.
_PRODUCT_ATOL = 1e-14

# Width of the symmetric |d| = c family within which the entropic closed
# forms apply.
_FAMILY_RTOL = 1e-9


# -- standard forms ------------------------------------------------------------

_FORM_FIELDS = ("b1", "b2", "c", "d", "s1", "s2")


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
    _family = None  # not a field: a family form's parameters (``_family_form``)

    def __post_init__(self) -> None:
        self._validate(active_profile().phys_tol)

    def _validate(self, tol: float) -> None:
        vals = (
            float(self.b1), float(self.b2), float(self.c), float(self.d),
            float(self.s1), float(self.s2),
        )
        _check_form(tol, *vals)
        vars(self).update(zip(_FORM_FIELDS, vals))

    def matrix_rows(self) -> list[list[float]]:
        """Rows of the 4x4 covariance matrix, in Python floats."""
        root = math.sqrt(self.s1 * self.s2)
        c, d = self.c * root, self.d / root
        return [
            [self.b1 * self.s1, 0.0, c, 0.0],
            [0.0, self.b1 / self.s1, 0.0, d],
            [c, 0.0, self.b2 * self.s2, 0.0],
            [0.0, d, 0.0, self.b2 / self.s2],
        ]

    def to_cm(self) -> "CovarianceMatrix":
        """Rebuild the 4x4 covariance matrix."""
        from .symplectic import CovarianceMatrix

        return CovarianceMatrix(self.matrix_rows())

    def cm_determinant(self) -> float:
        """det V = (b1 b2 - c^2)(b1 b2 - d^2); independent of the scales."""
        bb = self.b1 * self.b2
        return (bb - self.c * self.c) * (bb - self.d * self.d)

    def spectrum(self) -> tuple[float, float]:
        """Symplectic eigenvalues (descending): those of the form's record."""
        return _form_record(self)[0]

    def partial_transpose(self) -> "StandardForm":
        """Standard form of the partial transpose (d -> -d), carrying this
        form's record with its two spectra swapped, undecided."""
        spectrum, _, gaps, h, _ = record = _form_record(self)
        pt = StandardForm(self.b1, self.b2, self.c, -self.d, self.s1, self.s2)
        vars(pt)["_record"] = (_pt_spectrum(self, record), spectrum, gaps, h, "floats")
        return pt


def _check_form(
    tol: float, b1: float, b2: float, c: float, d: float, s1: float, s2: float
) -> None:
    """Raise the error ``StandardForm`` raises for these float parameters
    under the phys_tol ``tol``, if any."""
    if not all(map(math.isfinite, (b1, b2, c, d, s1, s2))):
        raise InvalidParamsError("standard-form parameters must be finite")
    if b1 < 0.5 - tol or b2 < 0.5 - tol:
        raise NotPhysicalError("diagonal strengths b1, b2 must be >= 1/2")
    if s1 <= 0 or s2 <= 0:
        raise InvalidParamsError("scale factors must be positive")
    if c < abs(d) - 1e-12 * max(1.0, abs(d)):
        raise InvalidParamsError("standard form requires c >= |d|")


def _checked_form(tol: float, b1, b2, c, d, s1=1.0, s2=1.0) -> StandardForm:
    """A ``StandardForm`` validated against the phys_tol ``tol``.

    The same checks as the constructor, for callers that have read the
    tolerance profile already: the constructor reads it on every call.
    """
    sf = object.__new__(StandardForm)
    vars(sf).update(b1=b1, b2=b2, c=c, d=d, s1=s1, s2=s2)
    sf._validate(tol)
    return sf


def _form_spectrum(
    b1: float, b2: float, c: float, d: float, g1: float, g2: float, rho: float
) -> tuple[float, float]:
    """Symplectic eigenvalues (descending) of the standard form (b1, b2, c, d)
    with the gaps gc = g1 g2 rho and gd = g1 g2 / rho (g1 g2 = sqrt(det V)).

    kappa1^2 = (Delta + sqrt(Delta^2 - 4 det V)) / 2 with the sum
    Delta = (b1 - b2)^2 + gc + gd + (c + d)^2, and kappa2 = g1 (g2 / kappa1):
    neither cancels. The discriminant is evaluated as the equal sum
    (b1 + b2)^2 (c + d)^2 + (b1 - b2)^2 (b1 + b2 - c + d)(b1 + b2 + c - d)
    of terms that are nonnegative on a physical form (b1 + b2 > 2c >= c - d)
    and exactly 0 at the double root kappa1 = kappa2 of every symmetric
    squeezed thermal form, where a difference would leave a rounding error
    whose square root splits kappa1 from kappa2. From 2^254 on the entries
    are scaled by 2^-m, exactly.
    """
    m, gap = 0, g1 * g2
    if b1 >= 2.0**254 or b2 >= 2.0**254 or c >= 2.0**254:
        m = math.frexp(max(b1, b2, c))[1] - 254
        b1, b2, c, d = (math.ldexp(x, -m) for x in (b1, b2, c, d))
        gap = math.ldexp(g1, -m) * math.ldexp(g2, -m)
    total, split = b1 + b2, b1 - b2
    delta = split * split + gap * (rho + 1.0 / rho) + (c + d) * (c + d)
    plus = total * (c + d)
    disc = math.sqrt(
        max(plus * plus + split * split * (total - c + d) * (total + c - d), 0.0)
    )
    k1 = math.sqrt(max((delta + disc) / 2.0, 0.0))
    if k1 == 0.0:
        return 0.0, 0.0
    if m:
        try:
            k1 = math.ldexp(k1, m)
        except OverflowError:
            raise InvalidParamsError("the spectrum of this form overflows") from None
    return k1, min(g1 * (g2 / k1), k1)


def _float_record(b1: float, b2: float, c: float, d: float, kind: str) -> tuple:
    """The record of the form (b1, b2, c, d) from its floats: the roots of the
    gaps sqrt(s - c) sqrt(s + c), s = sqrt(b1 b2), and its twin in |d|, so no
    product overflows; NotPhysicalError where s <= max(c, |d|): no state."""
    s = math.sqrt(b1 * b2) if b1 * b2 < 2.0**1023 else math.sqrt(b1) * math.sqrt(b2)
    if not s > max(c, abs(d)):
        raise NotPhysicalError("standard form is not a physical state")
    g1 = math.sqrt(s - c) * math.sqrt(s + c)
    g2 = math.sqrt(s - abs(d)) * math.sqrt(s + abs(d))
    rho = g1 / g2
    spectrum = _form_spectrum(b1, b2, c, d, g1, g2, rho)
    return spectrum, None, (g1, g2, rho), 0.5 * (b1 - b2), kind


def _form_record(sf: StandardForm, tol: float | None = None) -> tuple:
    """The record (spectrum, pt_spectrum, (g1, g2, rho), h, kind) of ``sf``.

    The descending spectrum, that of the partial transpose (None: from the
    floats, ``_pt_spectrum``), the gaps gc = g1 g2 rho <= gd = g1 g2 / rho
    with g1 g2 = sqrt(det V), and h = (b1 - b2)/2. ``kind`` is "exact" for a
    family form, "decided" for a form reduced from a matrix or a square
    root, and "floats" for a form given as floats or a partial transpose,
    which no decision has passed: it fills its record from its floats once
    and, given ``tol``, passes the gate kappa2 >= 1/2 - ``tol`` or raises
    NotPhysicalError.
    """
    record = vars(sf).get("_record")
    if record is None:
        record = _float_record(sf.b1, sf.b2, sf.c, sf.d, "floats")
        vars(sf)["_record"] = record
    if tol is not None and record[4] == "floats" and record[0][1] < 0.5 - tol:
        raise NotPhysicalError("standard form is not a physical state")
    return record


def _pt_spectrum(sf: StandardForm, record: tuple) -> tuple[float, float]:
    """The record's partial-transpose spectrum, or from the floats, d -> -d,
    the gaps and sqrt(det V) = kappa1 kappa2, which d -> -d leaves alone."""
    spectrum, pt, gaps = record[:3]
    return pt or _form_spectrum(sf.b1, sf.b2, sf.c, -sf.d, *spectrum, gaps[2])


def _radical(excess: float, tol: float) -> float:
    """sqrt(kappa^2 - 1/4) of the eigenvalue kappa = 1/2 + ``excess``, with
    the pure-mode limit within ``tol`` of 1/2.

    Within phys_tol of a pure mode the radical is set to zero, so that
    kappa_tilde = kappa + radical is kappa: the exact limit for genuinely
    pure modes, and the only stable choice since
    d(sqrt(kappa^2 - 1/4))/d kappa diverges at 1/2. Above it the radicand
    is taken as excess (excess + 1), which does not cancel near 1/2, as
    kappa^2 - 1/4 would. The caller passes the excess (kappa - 1/2, exact
    in floats, or a thermal occupancy as it is), since rounding it into
    kappa first would be amplified by that slope too. Above 1e150 the
    product would overflow, and the radicand's two factors are rooted
    apart.
    """
    if excess < tol:
        return 0.0
    if excess > 1e150:
        return math.sqrt(excess) * math.sqrt(excess + 1.0)
    return math.sqrt(excess * (excess + 1.0))


def _k_and_l(k1: float, k2: float, rad1: float, rad2: float) -> tuple[float, float]:
    """The invariants K and L of the spectrum (k1, k2) and its radicals."""
    return k1 * rad2 + k2 * rad1, 4.0 * k1 * k2 * (k1 + rad1) * (k2 + rad2)


def _sqrt_params(sf: StandardForm, tol: float, record: tuple) -> tuple[tuple, tuple]:
    """(bt1, bt2, ct, dt, st1, st2) and record of the square-root form of
    ``sf``, whose ``record`` has passed its decision. The root's gaps are
    (kt1, gt2, rho_t), rho_t = rho sqrt(y1 y2 / (x1 x2)), as x1 x2 - zc^2 =
    gc Q and y1 y2 - zd^2 = gd Q, Q = (L - k1^2)(L - k2^2) / P^2: kt1 gt2 =
    k1 k2 Q is kt1 kt2, kt = k + sqrt(k^2 - 1/4), but where ``_radical``
    cuts k2 alone (kt2 = k2) it is kt1 (k2 + k1 (k2^2 - 1/4) / (k2 rad1)),
    and the root's spectrum is taken from its floats. A product (c = d = 0)
    is each mode's own root. From 2^200 on, where b1 L would overflow, the
    closed form runs on the form scaled by 2^-m, exactly. Raises the
    ``StandardForm`` checks of the result and InvalidParamsError where it
    spans more than floats can.
    """
    (k1, k2), _, (g1, g2, rho), h, _ = record
    b1, b2, c, d, s1, s2 = sf.b1, sf.b2, sf.c, sf.d, sf.s1, sf.s2
    if k1 - 0.5 < tol and k2 - 0.5 < tol:
        return (b1, b2, c, d, s1, s2), ((k1, k2), None, (k1, k2, rho), h, "decided")
    if c == 0.0 and d == 0.0:
        bt1, bt2 = b1 + _radical(b1 - 0.5, tol), b2 + _radical(b2 - 0.5, tol)
        params = (bt1, bt2, 0.0, 0.0, s1, s2)
        _check_form(tol, *params)
        kt = (bt1, bt2) if bt1 >= bt2 else (bt2, bt1)
        return params, (kt, None, (bt1, bt2, 1.0), 0.5 * (bt1 - bt2), "decided")
    rad1, rad2 = _radical(k1 - 0.5, tol), _radical(k2 - 0.5, tol)
    kt1, kt2 = k1 + rad1, k2 + rad2
    gt2 = kt2 if rad2 else k2 + (k1 / rad1) * (k2 - 0.5) * (k2 + 0.5) / k2
    m = 0
    if b1 >= 2.0**200 or b2 >= 2.0**200 or c >= 2.0**200:
        m = math.frexp(max(b1, b2, c))[1] - 200
        b1, b2, c, d, k1, k2, rad1, rad2, g1, g2 = (
            math.ldexp(x, -m) for x in (b1, b2, c, d, k1, k2, rad1, rad2, g1, g2)
        )
    try:
        k, l = _k_and_l(k1, k2, rad1, rad2)
        pref = 4.0 * k1 * k2 * k
        gc = g1 * g2 * rho
        gd = g1 * g2 / rho
        x1 = (b1 * l - b2 * gc) / pref
        x2 = (b2 * l - b1 * gc) / pref
        y1 = (b1 * l - b2 * gd) / pref
        y2 = (b2 * l - b1 * gd) / pref
        zc = (c * l + d * gc) / pref
        zd = (d * l + c * gd) / pref
        quarter = (y1 * y2 / (x1 * x2)) ** 0.25
        ct, dt = zc * quarter, zd / quarter
        params = (
            math.sqrt(x1 * y1),
            math.sqrt(x2 * y2),
            ct,
            # ct >= |dt| as rho_t <= 1, where the floats of c and d of a
            # strongly squeezed form reduced from a matrix do not resolve it
            dt if abs(dt) <= ct else math.copysign(ct, dt),
            s1 * math.sqrt(x1 / y1),
            s2 * math.sqrt(x2 / y2),
        )
        if m:
            params = (*(math.ldexp(x, m) for x in params[:4]), *params[4:])
    except (ArithmeticError, ValueError):  # a range no power of two brings into floats
        raise InvalidParamsError("the square-root form is out of float range") from None
    _check_form(tol, *params)
    h, gaps = 0.5 * (params[0] - params[1]), (kt1, gt2, rho * quarter * quarter)
    spectrum = (kt1, kt2) if gt2 == kt2 else _form_spectrum(*params[:4], *gaps)
    return params, (spectrum, None, gaps, h, "decided")


def _sqrt_form(sf: StandardForm, tol: float, record: tuple) -> tuple[tuple, tuple]:
    """``_sqrt_params``, and for a family form the fields and record of its
    family at kt = k + rho, rho = ``_radical`` of the excess, with the
    mode-mixed split kt1 - kt2 = split (1 + (k1 + k2)/(rho1 + rho2))."""
    if sf._family is None:
        return _sqrt_params(sf, tol, record)
    sts, k1, k2, e1, e2, split, angle = sf._family
    rho1, rho2 = _radical(e1, tol), _radical(e2, tol)
    if not sts:
        if rho2 == 0.0:  # kt2 = k2, so nothing cancels; rho1 + rho2 may be 0
            split = split + rho1
        else:
            split = split * (1.0 + (k1 + k2) / (rho1 + rho2))
    kt1, kt2 = k1 + rho1, k2 + rho2
    tsf = _family_form(tol, (sts, kt1, kt2, e1 + rho1, e2 + rho2, split, angle))
    return (tsf.b1, tsf.b2, tsf.c, tsf.d, 1.0, 1.0), vars(tsf)["_record"]


# -- the two families ----------------------------------------------------------


def _fold_angle(phi: float) -> float:
    """Fold an angle into (-pi, pi]."""
    return math.pi - (math.pi - float(phi)) % (2.0 * math.pi)


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
    return _sts_form(p, active_profile().phys_tol)


def _sts_form(p: StsParams, tol: float) -> StandardForm:
    """``sts_standard_form`` checked against the phys_tol ``tol``."""
    nbar1, nbar2 = p.nbar1, p.nbar2
    return _family_form(tol, (True, nbar1 + 0.5, nbar2 + 0.5, nbar1, nbar2, None, p.r))


def mts_standard_form(p: MtsParams) -> StandardForm:
    """Standard form of a mode-mixed thermal state (d = +c >= 0)."""
    return _mts_form(p, active_profile().phys_tol)


def _mts_form(p: MtsParams, tol: float) -> StandardForm:
    """``mts_standard_form`` checked against the phys_tol ``tol``."""
    k1, k2 = p.kappa1, p.kappa2
    return _family_form(tol, (False, k1, k2, k1 - 0.5, k2 - 0.5, k1 - k2, p.theta))


def _family_form(tol: float, family: tuple) -> StandardForm:
    """The squeezed thermal (d = -c, squeeze r) or mode-mixed thermal (d = c,
    co-latitude theta) form of ``family`` = (sts, k1, k2, e1, e2, split, r or
    theta): spectrum (k1, k2), e_j = k_j - 1/2, split = k1 - k2 (mode-mixed),
    checked against ``tol``; InvalidParamsError where it overflows. In its
    instance dict, so fields, repr and equality do not change, it carries
    ``family`` and its exact record: gc = gd = k1 k2, so rho = 1, and h from
    the parameters."""
    sts, k1, k2, e1, e2, split, angle = family
    try:
        if sts:
            x, y, w = math.cosh(angle), math.sinh(angle), k1 + k2
        else:
            x, y, w = math.cos(angle / 2.0), math.sin(angle / 2.0), split
    except OverflowError:
        raise InvalidParamsError("squeeze parameter too large") from None
    b1, b2, c = k1 * x * x + k2 * y * y, k2 * x * x + k1 * y * y, w * x * y
    sf = _checked_form(tol, b1, b2, c, -c if sts else c)
    h = 0.5 * (e1 - e2) if sts else 0.5 * split * math.cos(angle)
    spectrum = (k1, k2) if k1 >= k2 else (k2, k1)
    vars(sf).update(_record=(spectrum, None, (k1, k2, 1.0), h, "exact"), _family=family)
    return sf


def entropic_h(x: float) -> float:
    """The entropic function (x + 1/2) ln(x + 1/2) - (x - 1/2) ln(x - 1/2).

    Defined for x >= 1/2 with h(1/2) = 0. With e = x - 1/2 it is evaluated
    as (1 + e) log1p(e) - e ln e for e < 1 and as ln e + (1 + e) log1p(1/e)
    otherwise, so that neither the -e ln e term near 1/2 nor the difference
    of two large logarithms loses relative accuracy.
    """
    x = float(x)
    if x < 0.5 - 1e-9:
        raise InvalidParamsError(f"entropic function requires x >= 1/2, got {x}")
    e = x - 0.5
    if e <= 0.0:
        return 0.0
    if e < 1.0:
        return (1.0 + e) * math.log1p(e) - e * math.log(e)
    return math.log(e) + (1.0 + e) * math.log1p(1.0 / e)


def _mode_entropy(kappa: float, tol: float) -> float:
    """Entropy h(kappa) of a mode with symplectic eigenvalue ``kappa``.

    A mode below 1/2 + ``tol`` (phys_tol) is pure and has entropy 0: h has
    infinite slope at 1/2, as the square-root spectrum map has
    (``_radical``), so the round-off in a computed pure spectrum must not be
    amplified. ``tol`` = 0 cuts nothing above 1/2.
    """
    return 0.0 if kappa - 0.5 < tol else entropic_h(kappa)


# -- measures of a standard form -----------------------------------------------


def _is_uncorrelated(sf: StandardForm) -> bool:
    """c = 0 for a family form, else |c|, |d| <= _PRODUCT_ATOL sqrt(b1 b2)."""
    if sf._family is not None:
        return sf.c == 0.0
    scale = max(1.0, math.sqrt(sf.b1) * math.sqrt(sf.b2))
    return max(abs(sf.c), abs(sf.d)) <= _PRODUCT_ATOL * scale


def _form_affinity_and_discord(
    sf: StandardForm, tol: float, uncorrelated=None, with_root=False
) -> tuple[float, float, tuple | None]:
    """(A*, 1 - A*, square-root form as ``_sqrt_form`` gives it) of the
    standard form ``sf``, after its physicality decision (``_form_record``
    under ``tol``), with the product test taken here or given: the one route
    of the report, ``max_affinity``, ``closest_product_state`` and every
    discord. A product has (1, 0) and its root only ``with_root``, else None.

    On the root (b1, b2, c, d) and its record's gaps gc = g1 g2 rho and
    gd = g1 g2 / rho, with s = sqrt(b1 b2), rc = sqrt(gc), rd = sqrt(gd),
    x = c^2/(s + rc) = s - rc and y = d^2/(s + rd) = s - rd:
    A*^2 = 4 rc rd / ((s + rc)(s + rd)) and 1 - A* = (1 - A*^2) / (1 + A*)
    with 1 - A*^2 = (2 s (x + y) - 3 x y) / ((s + rc)(s + rd)), so a small
    discord keeps its relative accuracy. From 2^510 on the entries are
    scaled by 2^-m, exactly: A* is scale-free.
    """
    record = _form_record(sf, tol)
    if _is_uncorrelated(sf) if uncorrelated is None else uncorrelated:
        return 1.0, 0.0, _sqrt_form(sf, tol, record) if with_root else None
    root = _sqrt_form(sf, tol, record)
    (b1, b2, c, d, _, _), root_record = root
    g1, g2, rho = root_record[2]
    if b1 >= 2.0**510 or b2 >= 2.0**510 or c >= 2.0**510:  # and so g1, g2 < b1 + b2
        m = math.frexp(max(b1, b2, c))[1] - 510
        b1, b2, c, d, g1, g2 = (math.ldexp(x, -m) for x in (b1, b2, c, d, g1, g2))
    gc, gd = g1 * g2 * rho, g1 * g2 / rho
    s = math.sqrt(b1 * b2)
    rc = math.sqrt(max(gc, 0.0))
    rd = math.sqrt(max(gd, 0.0))
    den = (s + rc) * (s + rd)
    x = min(c * c / (s + rc), s)
    y = min(d * d / (s + rd), s)
    affinity = min(math.sqrt(4.0 * rc * rd / den), 1.0)
    discord = (2.0 * s * (x + y) - 3.0 * x * y) / den / (1.0 + affinity)
    return affinity, min(discord, 1.0), root


def _family_breach(sf: StandardForm) -> str | None:
    """Why the closed forms of the symmetric |d| = c family do not apply to
    ``sf``; None when they do."""
    scale_b = max(1.0, abs(sf.b1), abs(sf.b2))
    scale_c = max(1.0, abs(sf.c))
    if abs(sf.b1 - sf.b2) > _FAMILY_RTOL * scale_b:
        return "closed form requires equal diagonal strengths"
    if abs(sf.c - abs(sf.d)) > _FAMILY_RTOL * scale_c:
        return "closed form requires |d| = c cross-correlations"
    return None


def _eof_symmetric(b: float, c: float, gaps: tuple, h: float) -> float:
    """EoF of the physical symmetric squeezed thermal form (b, b, c, -c), or
    of a form within ``_FAMILY_RTOL`` of it with b = (b1 + b2)/2 and the
    ``gaps`` and ``h`` of its record: h(z) with z = (g^2 + 1/4)/(2 g) for
    the gap g = b - c = (gc + h^2)/(b + c), quotients first, which is
    positive and does not cancel."""
    g1, g2, rho = gaps
    x = 0.5 * b + 0.5 * c
    gap = 0.5 * (g1 * (g2 / x) * rho + h * (h / x))
    if gap >= 0.5:
        return 0.0
    return entropic_h((gap * gap + 0.25) / (2.0 * gap))


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


def _form_report(sf: StandardForm, tol: float) -> CorrelationReport:
    """Every measure of the standard form ``sf``, read from its record
    (``_form_record``, which decides a form given as floats).

    The one report route: ``correlation_report`` of a matrix or of a
    ``StandardForm``, a sweep row, ``ghk report``, and the single-measure
    functions of ``ghk.discord``, which return one field. The scales, which
    no measure depends on, are reported as 1; a product has every
    correlation exactly 0. The report is built without a second pass over
    its fields, as ``_checked_form`` builds a form.

    - separable (PPT): d >= 0, or the partial transpose (d -> -d) is
      physical;
    - mutual information: h(b1) + h(b2) - h(k1) - h(k2), with the pure-mode
      cut of ``_mode_entropy`` unless the spectrum is exact (a family's);
    - in the symmetric |d| = c family (``_family_breach`` is None), the
      entropic discord h(b) - h(k1) - h(k2) + h(y) and the classical
      correlations h(b) - h(y), with b = (b1 + b2)/2 and
      y = b - c^2/(b + 1/2) = (gc + h^2 + b/2)/(b + 1/2) from the record's
      gc and h, quotients first, and for d <= 0 the EoF (``_eof_symmetric``).
    """
    record = _form_record(sf, tol)
    spectrum, _, gaps, h, kind = record
    b1, b2, c, d = sf.b1, sf.b2, sf.c, sf.d
    if sf.s1 != 1.0 or sf.s2 != 1.0:
        sf = _checked_form(tol, b1, b2, c, d)
        vars(sf)["_record"] = record
    pt_spectrum = _pt_spectrum(sf, record)
    separable = d >= 0.0 or pt_spectrum[1] >= 0.5 - tol
    uncorrelated = _is_uncorrelated(sf)
    cut = 0.0 if kind == "exact" else tol  # no round-off moves a family's spectrum
    h1, h2 = _mode_entropy(spectrum[0], cut), _mode_entropy(spectrum[1], cut)
    ent = cc = eof = None
    if _family_breach(sf) is None:
        ent = cc = 0.0
        b = 0.5 * b1 + 0.5 * b2
        if not uncorrelated:
            g1, g2, rho = gaps
            x = b + 0.5
            hb = entropic_h(b)
            hy = entropic_h(g1 * (g2 / x) * rho + h * (h / x) + 0.5 * b / x)
            ent, cc = max(hb - h1 - h2 + hy, 0.0), max(hb - hy, 0.0)
        if d <= 0.0:
            eof = _eof_symmetric(b, c, gaps, h)
    if eof is None and separable:
        eof = 0.0
    discord = mutual = 0.0
    if not uncorrelated:
        discord = _form_affinity_and_discord(sf, tol, False)[1]
        mutual = max(entropic_h(b1) + entropic_h(b2) - h1 - h2, 0.0)
    report = object.__new__(CorrelationReport)
    vars(report).update(
        hellinger_discord=discord,
        mutual_information=mutual,
        separable=separable,
        symplectic_spectrum=spectrum,
        pt_spectrum=pt_spectrum,
        entropic_discord=ent,
        classical_correlations=cc,
        eof=eof,
        standard_form=sf,
    )
    return report
