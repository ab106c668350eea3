"""Construction and evaluation of the terminating hypergeometric family.

The polynomial of degree ``n`` with parameter ``alpha`` has monomial
coefficients

    c_k = (-1)^k * C(n, k) * b / (b + k),      b = alpha*n + 1,

obtained by telescoping the ratio of the two rising factorials that share
the ``b`` offset.  The same closed form with ``b = k*n + l + 1`` produces
the shifted real-parameter family used for cross-checks.

Raw coefficient magnitudes reach ``C(n, n/2)`` (about 1e17 at n = 60), so a
polynomial stores mantissa coefficients together with one shared log-scale
factor; the true coefficient is ``coeffs[k] * exp(scale)``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .errors import DomainError
from .kernel import Alpha, DOUBLE, Precision


@dataclass(frozen=True)
class Polynomial:
    """Scaled monomial-basis polynomial with constant term 1.

    ``coeffs[k] * exp(scale)`` is the coefficient of ``z**k``; the stored
    mantissas are balanced so the largest has magnitude 1.
    """

    degree: int
    coeffs: tuple[complex, ...]
    scale: float
    alpha: Alpha
    b_offset: float = 1.0   # constant term of b = alpha*n + b_offset

    def __post_init__(self):
        if len(self.coeffs) != self.degree + 1:
            raise DomainError("coefficient count must be degree + 1")
        if self.coeffs[-1] == 0:
            raise DomainError("leading coefficient must be nonzero")

    def to_json(self) -> str:
        payload = {
            "n": self.degree,
            "alpha": [self.alpha.eta, self.alpha.zeta],
            "coeffs": [[c.real, c.imag] for c in self.coeffs],
            "scale": self.scale,
        }
        if self.b_offset != 1.0:
            payload["b_offset"] = self.b_offset
        return json.dumps(payload, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "Polynomial":
        d = json.loads(text)
        return Polynomial(
            degree=d["n"],
            coeffs=tuple(complex(re, im) for re, im in d["coeffs"]),
            scale=d["scale"],
            alpha=Alpha(d["alpha"][0], d["alpha"][1]),
            b_offset=d.get("b_offset", 1.0),
        )


def _closed_form(n: int, b: complex) -> list[complex]:
    # exact integer binomials stay inside double range up to n = 1029
    try:
        return [(-1) ** k * float(math.comb(n, k)) * (b / (b + k))
                for k in range(n + 1)]
    except OverflowError:
        raise DomainError(f"degree {n}: binomial coefficients exceed the "
                          "double range (n <= 1029)") from None


def _balance(raw: list[complex]) -> tuple[tuple[complex, ...], float]:
    top = max(abs(c) for c in raw)
    scale = math.log(top) if top > 0 else 0.0
    inv = math.exp(-scale)
    return tuple(c * inv for c in raw), scale


def coefficients(n: int, alpha: Alpha) -> Polynomial:
    """Degree-n polynomial of the main family (b = alpha*n + 1)."""
    if n < 0:
        raise DomainError("degree must be nonnegative")
    raw = _closed_form(n, complex(alpha.value * n + 1.0))
    coeffs, scale = _balance(raw)
    return Polynomial(degree=n, coeffs=coeffs, scale=scale, alpha=alpha)


def real_family_coefficients(n: int, k: float, l: float = 0.0) -> Polynomial:
    """Shifted real-parameter family (b = k*n + l + 1) for cross-checks."""
    if k <= 0:
        raise DomainError("k must be positive")
    if l < 0:
        raise DomainError("l must be nonnegative")
    raw = _closed_form(n, complex(k * n + l + 1.0))
    coeffs, scale = _balance(raw)
    return Polynomial(degree=n, coeffs=coeffs, scale=scale, alpha=Alpha(k, 0.0),
                      b_offset=l + 1.0)


def coefficients_exact(n: int, alpha: Fraction) -> list[Fraction]:
    """Closed-form coefficients in exact rational arithmetic (real alpha).

    Used by the oracle tests that compare against the raw rising-factorial
    definition; only meaningful for rational alpha and modest n.
    """
    b = alpha * n + 1
    return [Fraction((-1) ** k * math.comb(n, k)) * b / (b + k) for k in range(n + 1)]


def coefficients_mp(n: int, alpha_value: complex, b_offset: float = 1.0):
    """Unscaled coefficients as exact-input mpmath numbers at working precision.

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
    """Horner evaluation of ``p`` at ``z`` including the scale factor.

    The extended mode rebuilds the coefficients from (n, alpha) at working
    precision instead of reusing the double-rounded stored mantissas, so it
    resolves values far below the double cancellation floor.
    """
    if precision.is_double:
        acc = 0j
        for c in reversed(p.coeffs):
            acc = acc * z + c
        return acc * math.exp(p.scale)
    with mp.workprec(precision.bits):
        raw = coefficients_mp(p.degree, p.alpha.value, p.b_offset)
        zm = mp.mpc(z)
        acc = mp.mpc(0)
        for c in reversed(raw):
            acc = acc * zm + c
        return complex(acc)


def evaluate_with_error(p: Polynomial, z: complex,
                        precision: Precision = DOUBLE) -> tuple[complex, float]:
    """Value plus a relative roundoff estimate from the coefficient-mass sum."""
    value = evaluate(p, z, precision)
    mass = coefficient_mass(p, z)
    eps = 2.0 ** (1 - precision.bits)
    rel = mass * eps / abs(value) if value != 0 else math.inf
    return value, rel


def coefficient_mass(p: Polynomial, z: complex) -> float:
    """``sum_k |c_k| |z|^k`` including the scale factor (condition number scale)."""
    az = abs(z)
    acc = 0.0
    for c in reversed(p.coeffs):
        acc = acc * az + abs(c)
    return acc * math.exp(p.scale)


def condition_scaled_residual(p: Polynomial, z: complex,
                              precision: Precision = DOUBLE) -> float:
    """|p(z)| divided by the coefficient mass; meaningful near roots at any n."""
    return abs(evaluate(p, z, precision)) / coefficient_mass(p, z)
