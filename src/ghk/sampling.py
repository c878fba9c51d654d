"""Random generators for covariance matrices, standard forms, symplectics.

Used by the property-test suites and by the verification checks in
``ghk.checks``; all functions take an explicit numpy Generator so runs are
reproducible.
"""

from __future__ import annotations

import numpy as np

from .symplectic import CovarianceMatrix, StandardForm, symplectic_form

# Random suites stay this far above the physicality boundary: directly on
# it the pure-mode limit handling kicks in and closed-form cross-checks
# are exercised by the dedicated family tests instead.
BOUNDARY_MARGIN = 1e-6


def random_symplectic(n: int, rng: np.random.Generator, scale: float = 0.35) -> np.ndarray:
    """Random S in Sp(2n, R): the Cayley transform (I - H)^-1 (I + H) of
    H = J A / 2, A a random symmetric generator drawn in one ``rng`` call.

    S is symplectic whenever I - H is invertible, and equals exp(J A) to
    second order in A (Hairer, Lubich and Wanner, Geometric Numerical
    Integration, Springer 2006), so ``scale`` keeps its meaning.
    """
    a = rng.normal(0.0, scale, (2 * n, 2 * n))
    h = symplectic_form(n) @ (0.25 * (a + a.T))
    eye = np.eye(2 * n)
    return np.linalg.solve(eye - h, eye + h)


def random_local_frame(rng: np.random.Generator) -> np.ndarray:
    """Random local symplectic frame S1 (+) S2 of two modes, from two
    ``random_symplectic(1, rng)`` draws."""
    s = np.zeros((4, 4))
    s[:2, :2], s[2:, 2:] = random_symplectic(1, rng), random_symplectic(1, rng)
    return s


def random_standard_form(
    rng: np.random.Generator, b_range: tuple[float, float] = (0.5, 5.0)
) -> StandardForm:
    """Random physical two-mode standard form (s1 = s2 = 1).

    Draws b1, b2 uniformly, then cross-correlations c in [0, sqrt(b1 b2))
    and d in [-c, c], and retries until the symplectic spectrum clears the
    physicality bound by BOUNDARY_MARGIN.
    """
    lo = max(b_range[0], 0.5)
    while True:
        b1, b2 = rng.uniform(lo, b_range[1], 2)
        c = rng.uniform(0.0, 0.98 * np.sqrt(b1 * b2))
        d = rng.uniform(-c, c)
        sf = StandardForm(float(b1), float(b2), float(c), float(d))
        if sf.spectrum()[1] >= 0.5 + BOUNDARY_MARGIN:
            return sf


def random_physical_cm(
    n: int,
    rng: np.random.Generator,
    kappa_range: tuple[float, float] = (0.5 + BOUNDARY_MARGIN, 3.0),
) -> CovarianceMatrix:
    """Random physical n-mode CM: S diag(kappa_j I_2) S^T, S symplectic."""
    kappas = rng.uniform(*kappa_range, n)
    s = random_symplectic(n, rng)
    v = (s * np.repeat(kappas, 2)[None, :]) @ s.T
    return CovarianceMatrix(0.5 * (v + v.T))
