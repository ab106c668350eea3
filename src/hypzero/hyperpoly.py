"""Construction and evaluation of the terminating hypergeometric family.

The polynomial of degree ``n`` with parameter ``alpha`` has monomial
coefficients

    c_k = (-1)^k * C(n, k) * b / (b + k),      b = alpha*n + 1,

obtained by telescoping the ratio of the two rising factorials that share
the ``b`` offset.  The same closed form with ``b = alpha*n + 1 + l``,
l >= 0, gives the shifted family, for every complex alpha; l = 0 is the
main family.

Raw coefficient magnitudes reach ``C(n, n/2)`` (about 1e17 at n = 60), so a
polynomial is stored as its parameters only; each consumer derives the
coefficients it needs, at the width it needs, from ``n`` and ``b``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .errors import DomainError
from .kernel import Alpha, DOUBLE, Precision


@dataclass(frozen=True)
class Polynomial:
    """The family member of degree ``degree`` with ``b = alpha*n + b_offset``;
    its constant term is 1 (:func:`coefficients_mp`)."""

    degree: int
    alpha: Alpha
    b_offset: float = 1.0

    def __post_init__(self):
        if self.degree < 0:
            raise DomainError("degree must be nonnegative")


def coefficients(n: int, alpha: Alpha) -> Polynomial:
    """Degree-n polynomial of the main family (b = alpha*n + 1)."""
    return Polynomial(degree=n, alpha=alpha)


def real_family_coefficients(n: int, k: float, l: float = 0.0) -> Polynomial:
    """The shifted family (b = alpha*n + 1 + l) at a real ``alpha = k``."""
    if k <= 0:
        raise DomainError("k must be positive")
    if l < 0:
        raise DomainError("l must be nonnegative")
    return Polynomial(degree=n, alpha=Alpha(k, 0.0), b_offset=l + 1.0)


def coefficients_exact(n: int, alpha: Fraction) -> list[Fraction]:
    """Closed-form coefficients in exact rational arithmetic (real alpha).

    Used by the oracle tests that compare against the raw rising-factorial
    definition; only meaningful for rational alpha and modest n.
    """
    b = alpha * n + 1
    return [Fraction((-1) ** k * math.comb(n, k)) * b / (b + k) for k in range(n + 1)]


def coefficients_mp(n: int, alpha_value: complex, b_offset: float = 1.0):
    """Coefficients as exact-input mpmath numbers at working precision.

    ``b_offset`` generalizes to the shifted family (b = alpha*n + b_offset).
    Callers are expected to have set ``mp.mp.prec`` already.
    """
    b = mp.mpc(alpha_value) * n + b_offset
    return [(-1) ** k * mp.binomial(n, k) * b / (b + k) for k in range(n + 1)]


def pfaff_coefficients_mp(n: int, alpha_value: complex, b_offset: float = 1.0):
    """Coefficients of ``q(w)``, the polynomial in ``w = z/(z-1)`` with
    ``p(z) = (1-z)^n * q(w)`` (Pfaff transformation, DLMF 15.8.1).

    ``q(w) = 2F1(-n, 1; b+1; w) = sum_k d_k w^k`` with ``d_0 = 1`` and
    ``d_{k+1} = d_k (k-n)/(b+1+k)``.  The ratio ``|k-n|/|b+1+k|`` falls with
    ``k`` (below 1 throughout once ``Re alpha >= 1``), so the profile has no
    ``C(n, n/2)`` bulge: at degree 60 the bits lost between coefficient mass
    and ``|q|`` near the zeros are 50-63, against 200-250 in the monomial
    basis.  Same conventions as :func:`coefficients_mp`.
    """
    b = mp.mpc(alpha_value) * n + b_offset
    d = [mp.mpc(1)]
    for k in range(n):
        d.append(d[-1] * (k - n) / (b + 1 + k))
    return d


def evaluate(p: Polynomial, z: complex, precision: Precision = DOUBLE) -> complex:
    """Horner evaluation of ``p`` at ``z`` on coefficients rebuilt from
    (n, b) at ``precision.bits``, so a wide precision resolves values far
    below the double cancellation floor."""
    with mp.workprec(precision.bits):
        zm = mp.mpc(z)
        acc = mp.mpc(0)
        for c in reversed(coefficients_mp(p.degree, p.alpha.value, p.b_offset)):
            acc = acc * zm + c
        return complex(acc)
