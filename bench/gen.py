"""Seeded inputs and high-precision references for the benchmark.

Nothing here imports ``ghk``: the inputs and the reference values must not
move when the package changes. Every generator takes a numpy Generator made
from the run's ``--seed``, so one seed always yields the same inputs.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

REF_DIGITS = 50

# Criterion 2 of the acceptance suite: diagonal strengths in [1/2, 5], cross
# terms drawn below sqrt(b1 b2), and a physicality margin of 1e-6.
B_RANGE = (0.5, 5.0)
BOUNDARY_MARGIN = 1e-6


def spectrum(b1: float, b2: float, c: float, d: float) -> tuple[float, float]:
    """Symplectic eigenvalues (descending) of an unscaled standard form."""
    delta = b1 * b1 + b2 * b2 + 2.0 * c * d
    det = (b1 * b2 - c * c) * (b1 * b2 - d * d)
    disc = math.sqrt(max(delta * delta - 4.0 * det, 0.0))
    return (
        math.sqrt(max((delta + disc) / 2.0, 0.0)),
        math.sqrt(max((delta - disc) / 2.0, 0.0)),
    )


def random_standard_form(rng: np.random.Generator) -> tuple[float, float, float, float]:
    """Physical (b1, b2, c, d) from criterion 2's distribution."""
    while True:
        b1, b2 = (float(x) for x in rng.uniform(*B_RANGE, 2))
        c = float(rng.uniform(0.0, 0.98 * math.sqrt(b1 * b2)))
        d = float(rng.uniform(-c, c))
        if spectrum(b1, b2, c, d)[1] >= 0.5 + BOUNDARY_MARGIN:
            return b1, b2, c, d


def std_matrix(b1: float, b2: float, c: float, d: float) -> np.ndarray:
    """4x4 covariance matrix of a standard form (q1, p1, q2, p2 ordering)."""
    m = np.diag([b1, b1, b2, b2])
    m[0, 2] = m[2, 0] = c
    m[1, 3] = m[3, 1] = d
    return m


def _one_mode_symplectic(rng: np.random.Generator) -> np.ndarray:
    """Rotation x squeeze x rotation: a random 2x2 matrix of determinant 1."""
    def rot(a):
        return np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])

    a, b = rng.uniform(0.0, 2.0 * math.pi, 2)
    r = rng.uniform(-0.8, 0.8)
    return rot(a) @ np.diag([math.exp(r), math.exp(-r)]) @ rot(b)


def random_frame(rng: np.random.Generator, matrix: np.ndarray) -> np.ndarray:
    """Conjugate a two-mode matrix by a random local symplectic S1 + S2."""
    s = np.zeros((4, 4))
    s[:2, :2] = _one_mode_symplectic(rng)
    s[2:, 2:] = _one_mode_symplectic(rng)
    out = s @ matrix @ s.T
    return 0.5 * (out + out.T)


def sts_form(nbar1: float, nbar2: float, r: float) -> tuple[float, float, float, float]:
    """Standard form of a two-mode squeezed thermal state (d = -c)."""
    k1, k2 = nbar1 + 0.5, nbar2 + 0.5
    ch, sh = math.cosh(r), math.sinh(r)
    c = (k1 + k2) * ch * sh
    return k1 * ch * ch + k2 * sh * sh, k2 * ch * ch + k1 * sh * sh, c, -c


def mts_form(kappa1: float, kappa2: float, theta: float) -> tuple[float, float, float, float]:
    """Standard form of a mode-mixed thermal state (d = +c)."""
    co, si = math.cos(theta / 2.0), math.sin(theta / 2.0)
    c = (kappa1 - kappa2) * co * si
    return kappa1 * co * co + kappa2 * si * si, kappa2 * co * co + kappa1 * si * si, c, c


# --- references, evaluated with REF_DIGITS significant digits -------------


def _h(x):
    """Entropic function (x + 1/2) ln(x + 1/2) - (x - 1/2) ln(x - 1/2)."""
    plus = (x + 0.5) * mpmath.log(x + 0.5)
    if x - 0.5 <= 0:
        return plus
    return plus - (x - 0.5) * mpmath.log(x - 0.5)


def sts_reference(nbar1: float, nbar2: float, r: float) -> dict:
    """Discord, mutual information and spectrum of a squeezed thermal state.

    Discord 1 - 2/(sqrt(X) + 1), X = 1 + 2 (k1 k2 + 1/4 - sqrt(D)) sinh^2 2r
    with D = (k1^2 - 1/4)(k2^2 - 1/4); the spectrum is (nbar + 1/2).
    """
    with mpmath.workdps(REF_DIGITS):
        k1, k2 = mpmath.mpf(nbar1) + 0.5, mpmath.mpf(nbar2) + 0.5
        r = mpmath.mpf(r)
        root_d = mpmath.sqrt((k1 * k1 - 0.25) * (k2 * k2 - 0.25))
        x = 1 + 2 * (k1 * k2 + 0.25 - root_d) * mpmath.sinh(2 * r) ** 2
        ch, sh = mpmath.cosh(r), mpmath.sinh(r)
        b1 = k1 * ch * ch + k2 * sh * sh
        b2 = k2 * ch * ch + k1 * sh * sh
        return {
            "hellinger_discord": float(1 - 2 / (mpmath.sqrt(x) + 1)),
            "mutual_information": float(_h(b1) + _h(b2) - _h(k1) - _h(k2)),
            "symplectic_spectrum": (float(max(k1, k2)), float(min(k1, k2))),
        }


def mts_reference(kappa1: float, kappa2: float, theta: float) -> dict:
    """Discord, mutual information and spectrum of a mode-mixed thermal state.

    Discord 1 - 2/(sqrt(Y) + 1), Y = 1 + 2 (k1 k2 - 1/4 - sqrt(D)) sin^2 theta.
    """
    with mpmath.workdps(REF_DIGITS):
        k1, k2 = mpmath.mpf(kappa1), mpmath.mpf(kappa2)
        theta = mpmath.mpf(theta)
        root_d = mpmath.sqrt((k1 * k1 - 0.25) * (k2 * k2 - 0.25))
        y = 1 + 2 * (k1 * k2 - 0.25 - root_d) * mpmath.sin(theta) ** 2
        co, si = mpmath.cos(theta / 2), mpmath.sin(theta / 2)
        b1 = k1 * co * co + k2 * si * si
        b2 = k2 * co * co + k1 * si * si
        return {
            "hellinger_discord": float(1 - 2 / (mpmath.sqrt(y) + 1)),
            "mutual_information": float(_h(b1) + _h(b2) - _h(k1) - _h(k2)),
            "symplectic_spectrum": (float(k1), float(k2)),
        }


def symmetric_sts_discord(b: float, b2c2: float) -> float:
    """Discord tanh^2 r of the symmetric (d = -c) state with b^2 - c^2 fixed.

    It is a squeezed thermal state with nbar + 1/2 = sqrt(b2c2) and
    cosh 2r = b / sqrt(b2c2).
    """
    with mpmath.workdps(REF_DIGITS):
        r = mpmath.acosh(mpmath.mpf(b) / mpmath.sqrt(mpmath.mpf(b2c2))) / 2
        return float(mpmath.tanh(r) ** 2)
