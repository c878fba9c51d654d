"""Every report field of a squeezed or mode-mixed thermal state, in mpmath.

The 50-digit reference that the family tests compare with. It is evaluated
from the family parameters alone, never from a rounded standard form, and
imports nothing from ``ghk``.
"""

import mpmath

DIGITS = 50


def _h(x):
    """Entropic function (x + 1/2) ln(x + 1/2) - (x - 1/2) ln(x - 1/2)."""
    if x <= 0.5:
        return mpmath.mpf(0)
    return (x + 0.5) * mpmath.log(x + 0.5) - (x - 0.5) * mpmath.log(x - 0.5)


def family_reference(sts, k1, k2, angle, phys_tol=1e-9):
    """The report fields of the squeezed thermal (``sts``, squeeze r =
    ``angle``) or mode-mixed thermal (co-latitude ``angle``) state of
    spectrum (k1, k2), as mpmath numbers; None where the report has none.

    The discord is the paper's (Z - 1)/(sqrt(Z) + 1)^2, Z = X or Y, with
    Z - 1 = 2 w (k1 k2 +/- 1/4 - sqrt(D)), D = (k1^2 - 1/4)(k2^2 - 1/4),
    w = sinh^2(2r) or sin^2(theta), and the difference taken as
    (k1 +/- k2)^2 / (4 (k1 k2 +/- 1/4 + sqrt(D))), which does not cancel.
    ``separable`` and the presence of the entropic fields follow the
    report's rules (kappa2 of the partial transpose against 1/2 - phys_tol,
    the symmetric family within 1e-9), decided on the exact form. The
    fields are the textbook expressions in the entries b1, b2, c, d; the
    EoF gap b - c is about 1/b, so they are evaluated with 2 log10(b) digits
    beyond ``DIGITS``.
    """
    with mpmath.workdps(DIGITS):
        size = mpmath.mpf(k1) + mpmath.mpf(k2)
        if sts:
            size *= mpmath.cosh(mpmath.mpf(angle)) ** 2
        digits = DIGITS + 2 * max(0, int(mpmath.log10(size)))
    with mpmath.workdps(digits):
        k1, k2, angle = mpmath.mpf(k1), mpmath.mpf(k2), mpmath.mpf(angle)
        if sts:
            ch, sh = mpmath.cosh(angle), mpmath.sinh(angle)
            b1, b2 = k1 * ch**2 + k2 * sh**2, k2 * ch**2 + k1 * sh**2
            c = (k1 + k2) * ch * sh
            d = -c
            quarter, pair, weight = mpmath.mpf(1) / 4, k1 + k2, mpmath.sinh(2 * angle) ** 2
        else:
            co, si = mpmath.cos(angle / 2), mpmath.sin(angle / 2)
            b1, b2 = k1 * co**2 + k2 * si**2, k2 * co**2 + k1 * si**2
            c = d = (k1 - k2) * co * si
            quarter, pair, weight = -mpmath.mpf(1) / 4, k1 - k2, mpmath.sin(angle) ** 2
        root = mpmath.sqrt((k1 * k1 - 0.25) * (k2 * k2 - 0.25))
        z_minus_1 = 2 * weight * pair**2 / (4 * (k1 * k2 + quarter + root)) if pair else 0
        discord = z_minus_1 / (mpmath.sqrt(1 + z_minus_1) + 1) ** 2
        # the partial transpose (d -> -d) has det V = (k1 k2)^2 too
        delta = b1**2 + b2**2 - 2 * c * d
        pt1 = mpmath.sqrt((delta + mpmath.sqrt(delta**2 - 4 * (k1 * k2) ** 2)) / 2)
        pt2 = k1 * k2 / pt1
        separable = d >= 0 or pt2 >= 0.5 - phys_tol
        mutual = _h(b1) + _h(b2) - _h(k1) - _h(k2)
        entropic = classical = eof = None
        if abs(b1 - b2) <= 1e-9 * max(1, b1, b2):
            b = (b1 + b2) / 2
            y = b - c**2 / (b + 0.5)
            entropic = _h(b) - _h(k1) - _h(k2) + _h(y)
            classical = _h(b) - _h(y)
            if d <= 0:
                gap = b - c
                eof = _h((gap**2 + 0.25) / (2 * gap)) if gap < 0.5 else mpmath.mpf(0)
        if eof is None and separable:
            eof = mpmath.mpf(0)
        return {
            "hellinger_discord": discord,
            "mutual_information": mutual,
            "separable": separable,
            "symplectic_spectrum": (max(k1, k2), min(k1, k2)),
            "pt_spectrum": (pt1, pt2),
            "entropic_discord": entropic,
            "classical_correlations": classical,
            "eof": eof,
        }
