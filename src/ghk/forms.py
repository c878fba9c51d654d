"""Closed forms in Python floats: the numpy-free core of the package.

Standard forms and their symplectic spectrum, the square-root standard
form, the squeezed thermal and mode-mixed thermal families, the entropic
function, and every measure of a correlation report evaluated from one
physical standard form. A family sweep and a report of a given standard
form need nothing else, so ``ghk sweep`` and ``ghk report`` of family or
standard-form input run without loading numpy.

Only ``math``, ``dataclasses``, the error types and the tolerance profiles
are imported here. ``ghk.symplectic``, ``ghk.states`` and ``ghk.discord``
build on this module and re-export its names; only ``StandardForm.to_cm``
reaches into that layer, when it is called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParamsError, NotPhysicalError, OutOfFamilyError
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

    def __post_init__(self) -> None:
        self._validate(active_profile().phys_tol)

    def _validate(self, tol: float) -> None:
        vals = tuple(map(float, map(vars(self).__getitem__, _FORM_FIELDS)))
        if not all(map(math.isfinite, vals)):
            raise InvalidParamsError("standard-form parameters must be finite")
        vars(self).update(zip(_FORM_FIELDS, vals))
        b1, b2, c, d, s1, s2 = vals
        if b1 < 0.5 - tol or b2 < 0.5 - tol:
            raise NotPhysicalError("diagonal strengths b1, b2 must be >= 1/2")
        if s1 <= 0 or s2 <= 0:
            raise InvalidParamsError("scale factors must be positive")
        if c < abs(d) - 1e-12 * max(1.0, abs(d)):
            raise InvalidParamsError("standard form requires c >= |d|")

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
        """Symplectic eigenvalues (descending) from the closed quadratic."""
        return _form_spectrum(self.b1, self.b2, self.c, self.d)

    def partial_transpose(self) -> "StandardForm":
        """Standard form of the partial transpose (d -> -d)."""
        return StandardForm(self.b1, self.b2, self.c, -self.d, self.s1, self.s2)


def _checked_form(tol: float, b1, b2, c, d, s1=1.0, s2=1.0) -> StandardForm:
    """A ``StandardForm`` validated against the phys_tol ``tol``.

    The same checks as the constructor, for callers that have read the
    tolerance profile already: the constructor reads it on every call.
    """
    sf = object.__new__(StandardForm)
    vars(sf).update(b1=b1, b2=b2, c=c, d=d, s1=s1, s2=s2)
    sf._validate(tol)
    return sf


def _form_spectrum(b1: float, b2: float, c: float, d: float) -> tuple[float, float]:
    """Symplectic eigenvalues (descending) of the standard form (b1, b2, c, d).

    kappa1^2 = (Delta + sqrt(Delta^2 - 4 det V)) / 2 with
    Delta = b1^2 + b2^2 + 2 c d, and kappa2 = sqrt(det V) / kappa1 from
    det V = (b1 b2 - c^2)(b1 b2 - d^2), taken factor by factor: the
    difference (Delta - sqrt(...)) / 2 would cancel when kappa2 << kappa1.
    """
    bb = b1 * b2
    delta = b1 * b1 + b2 * b2 + 2.0 * c * d
    det_v = (bb - c * c) * (bb - d * d)
    disc = math.sqrt(max(delta * delta - 4.0 * det_v, 0.0))
    k1 = math.sqrt(max((delta + disc) / 2.0, 0.0))
    if k1 == 0.0:
        return 0.0, 0.0
    return k1, min(math.sqrt(max(det_v, 0.0)) / k1, k1)


def _radical(kappa: float, tol: float) -> float:
    """sqrt(kappa^2 - 1/4), with the pure-mode limit within ``tol`` of 1/2.

    Within phys_tol of a pure mode the radical is set to zero, so that
    kappa_tilde = kappa + radical is kappa: the exact limit for genuinely
    pure modes, and the only stable choice since
    d(sqrt(kappa^2 - 1/4))/d kappa diverges at 1/2.
    """
    if kappa - 0.5 < tol:
        return 0.0
    return math.sqrt(max(kappa * kappa - 0.25, 0.0))


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


def _invariants(k1: float, k2: float, tol: float) -> SymplecticInvariants:
    rad1, rad2 = _radical(k1, tol), _radical(k2, tol)
    gap1 = 0.0 if k1 - 0.5 < tol else k1 - 0.5
    gap2 = 0.0 if k2 - 0.5 < tol else k2 - 0.5
    m1 = gap1 * (k2 + 0.5)
    m2 = (k1 + 0.5) * gap2
    return SymplecticInvariants(
        K=k1 * rad2 + k2 * rad1,
        L=4.0 * k1 * k2 * (k1 + rad1) * (k2 + rad2),
        M1=m1,
        M2=m2,
        N1=(k1 + 0.5) * (k2 + 0.5),
        N2=gap1 * gap2,
        D=m1 * m2,
    )


def _sqrt_form(
    sf: StandardForm, tol: float, spectrum: tuple[float, float]
) -> StandardForm:
    """``square_root_standard_form`` with the phys_tol ``tol`` and the
    spectrum of ``sf`` given."""
    k1, k2 = spectrum
    if k2 < 0.5 - tol:
        raise NotPhysicalError(
            f"minimal symplectic eigenvalue {k2:.6g} is below 1/2"
        )
    if k1 - 0.5 < tol and k2 - 0.5 < tol:
        return sf
    inv = _invariants(k1, k2, tol)
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
    return _checked_form(
        tol,
        math.sqrt(x1 * y1),
        math.sqrt(x2 * y2),
        zc * (y1 * y2 / (x1 * x2)) ** 0.25,
        zd * (x1 * x2 / (y1 * y2)) ** 0.25,
        sf.s1 * math.sqrt(x1 / y1),
        sf.s2 * math.sqrt(x2 / y2),
    )


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
    k1, k2 = p.nbar1 + 0.5, p.nbar2 + 0.5
    ch, sh = math.cosh(p.r), math.sinh(p.r)
    b1 = k1 * ch * ch + k2 * sh * sh
    b2 = k2 * ch * ch + k1 * sh * sh
    c = (k1 + k2) * ch * sh
    return StandardForm(b1, b2, c, -c)


def mts_standard_form(p: MtsParams) -> StandardForm:
    """Standard form of a mode-mixed thermal state (d = +c >= 0)."""
    co, si = math.cos(p.theta / 2.0), math.sin(p.theta / 2.0)
    b1 = p.kappa1 * co * co + p.kappa2 * si * si
    b2 = p.kappa2 * co * co + p.kappa1 * si * si
    c = (p.kappa1 - p.kappa2) * co * si
    return StandardForm(b1, b2, c, c)


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

    A mode less than ``tol`` (phys_tol) above 1/2 is pure and has entropy 0:
    h has infinite slope at 1/2, as the square-root spectrum map has
    (``_radical``), so the round-off in a computed pure spectrum must not be
    amplified. Below 1/2, ``entropic_h`` gives 0 or rejects the value.
    """
    if kappa >= 0.5 and kappa - 0.5 < tol:
        return 0.0
    return entropic_h(kappa)


# -- measures of a standard form -----------------------------------------------


def _is_uncorrelated(sf: StandardForm) -> bool:
    return max(abs(sf.c), abs(sf.d)) <= _PRODUCT_ATOL * max(1.0, sf.b1 * sf.b2)


def _max_affinity_from_tilde(tsf: StandardForm) -> float:
    bb = tsf.b1 * tsf.b2
    gc = max(bb - tsf.c * tsf.c, 0.0)
    gd = max(bb - tsf.d * tsf.d, 0.0)
    num = 4.0 * math.sqrt(gc * gd)
    den = (math.sqrt(bb) + math.sqrt(gc)) * (math.sqrt(bb) + math.sqrt(gd))
    return min(math.sqrt(num / den), 1.0)


def _max_affinity(sf: StandardForm, tol: float, spectrum: tuple[float, float]) -> float:
    if _is_uncorrelated(sf):
        return 1.0
    return _max_affinity_from_tilde(_sqrt_form(sf, tol, spectrum))


def _hellinger_discord(
    sf: StandardForm, tol: float, spectrum: tuple[float, float]
) -> float:
    """1 - A*, without the cancellation of the difference for small discord.

    With s = sqrt(bt1 bt2) of the square-root form, rc = sqrt(bt1 bt2 - ct^2),
    rd = sqrt(bt1 bt2 - dt^2), x = ct^2/(s + rc) = s - rc and
    y = dt^2/(s + rd) = s - rd, A*^2 = 4 rc rd / ((s + rc)(s + rd)) and
    1 - A*^2 = (2 s (x + y) - 3 x y) / ((s + rc)(s + rd)) keeps its relative
    accuracy; 1 - A* = (1 - A*^2) / (1 + A*).
    """
    if _is_uncorrelated(sf):
        return 0.0
    tsf = _sqrt_form(sf, tol, spectrum)
    bb = tsf.b1 * tsf.b2
    s = math.sqrt(bb)
    rc = math.sqrt(max(bb - tsf.c * tsf.c, 0.0))
    rd = math.sqrt(max(bb - tsf.d * tsf.d, 0.0))
    den = (s + rc) * (s + rd)
    x = min(tsf.c * tsf.c / (s + rc), s)
    y = min(tsf.d * tsf.d / (s + rd), s)
    affinity = min(math.sqrt(4.0 * rc * rd / den), 1.0)
    return min((2.0 * s * (x + y) - 3.0 * x * y) / den / (1.0 + affinity), 1.0)


def _pt_spectrum(sf: StandardForm) -> tuple[float, float]:
    """Spectrum of the partial transpose (d -> -d)."""
    return _form_spectrum(sf.b1, sf.b2, sf.c, -sf.d)


def _simon_separable(
    sf: StandardForm, pt_spectrum: tuple[float, float], tol: float
) -> bool:
    return sf.d >= 0.0 or pt_spectrum[1] >= 0.5 - tol


def _require_symmetric_dc(sf: StandardForm) -> tuple[float, float]:
    scale_b = max(1.0, abs(sf.b1), abs(sf.b2))
    scale_c = max(1.0, abs(sf.c))
    if abs(sf.b1 - sf.b2) > _FAMILY_RTOL * scale_b:
        raise OutOfFamilyError("closed form requires equal diagonal strengths")
    if abs(sf.c - abs(sf.d)) > _FAMILY_RTOL * scale_c:
        raise OutOfFamilyError("closed form requires |d| = c cross-correlations")
    return 0.5 * (sf.b1 + sf.b2), sf.c


def _spectrum_entropies(
    spectrum: tuple[float, float], tol: float
) -> tuple[float, float]:
    """(h(kappa1), h(kappa2)) of a physical spectrum."""
    k1, k2 = spectrum
    return _mode_entropy(k1, tol), _mode_entropy(max(k2, 0.5), tol)


def _symmetric_measures(
    sf: StandardForm, tol: float, entropies: tuple[float, float]
) -> tuple[float, float]:
    """(entropic discord, classical correlations) of a symmetric |d| = c form.

    h(b) - h(k1) - h(k2) + h(y) and h(b) - h(y), with y = b - c^2/(b + 1/2)
    and ``entropies`` = (h(k1), h(k2)). Raises OutOfFamilyError outside the
    family.
    """
    b, c = _require_symmetric_dc(sf)
    if _is_uncorrelated(sf):
        return 0.0, 0.0
    h1, h2 = entropies
    hb = entropic_h(b)
    hy = _mode_entropy(b - c * c / (b + 0.5), tol)
    return max(hb - h1 - h2 + hy, 0.0), max(hb - hy, 0.0)


def _mutual_information(sf: StandardForm, entropies: tuple[float, float]) -> float:
    if _is_uncorrelated(sf):
        return 0.0
    h1, h2 = entropies
    return max(entropic_h(sf.b1) + entropic_h(sf.b2) - h1 - h2, 0.0)


def _eof_symmetric(b: float, c: float, tol: float) -> float:
    if _form_spectrum(b, b, c, -c)[1] < 0.5 - tol:
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


def _form_report(
    sf: StandardForm, spectrum: tuple[float, float], tol: float
) -> CorrelationReport:
    """Every measure of the physical, unit-scale standard form ``sf``.

    The spectrum, the partial-transpose spectrum and the entropies of the
    spectrum are evaluated once and shared by the measures.
    """
    pt_spectrum = _pt_spectrum(sf)
    separable = _simon_separable(sf, pt_spectrum, tol)
    entropies = _spectrum_entropies(spectrum, tol)
    try:
        ent, cc = _symmetric_measures(sf, tol, entropies)
    except OutOfFamilyError:
        ent = cc = None
    eof = None
    if ent is not None and sf.d <= 0.0:
        eof = _eof_symmetric(0.5 * (sf.b1 + sf.b2), sf.c, tol)
    elif separable:
        eof = 0.0
    return CorrelationReport(
        hellinger_discord=_hellinger_discord(sf, tol, spectrum),
        mutual_information=_mutual_information(sf, entropies),
        separable=separable,
        symplectic_spectrum=spectrum,
        pt_spectrum=pt_spectrum,
        entropic_discord=ent,
        classical_correlations=cc,
        eof=eof,
        standard_form=sf,
    )


def _given_form_report(sf: StandardForm, tol: float) -> CorrelationReport:
    """Every measure of a given standard form, once it is known physical.

    The one route of a state that arrives as a ``StandardForm``: a
    ``correlation_report`` of one, a sweep row, and ``ghk report`` of family
    or standard-form input. Physicality is read from the closed-form
    spectrum, as in ``square_root_standard_form``. b1 b2 > c^2 (with
    c >= |d|) is checked too: the spectrum formula can read above 1/2 on
    forms that belong to no positive-definite matrix. The scales, which no
    measure depends on, are reported as 1.
    """
    if sf.b1 * sf.b2 <= sf.c * sf.c:
        raise NotPhysicalError("standard form is not a physical state")
    spectrum = sf.spectrum()
    if spectrum[1] < 0.5 - tol:
        raise NotPhysicalError("standard form is not a physical state")
    return _form_report(_checked_form(tol, sf.b1, sf.b2, sf.c, sf.d), spectrum, tol)
