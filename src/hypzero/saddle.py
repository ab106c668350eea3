"""Saddle-point data, the level constant, and the leading asymptotic term.

For fixed ``z != 0`` the phase has a single stationary point

    t0 = alpha / ((alpha + 1) * z),

and the closed-form second derivative there is ``-(alpha+1)^3 z^2 / alpha``
(evaluated here from the single-valued derivative formulas rather than a
printed constant, so only the local quadratic model is trusted).  The
magnitude of the integrand at the saddle drives everything: the quantity

    |t0^alpha * (1 - z*t0) * z^alpha|

is independent of z and equals the level constant that defines the curve on
which the zeros accumulate.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DomainError
from .kernel import Alpha, BranchTrackedValue, phase, phase_second_derivative


@dataclass(frozen=True)
class SaddleData:
    """Saddle location and local quadratic model for one (z, alpha) pair."""

    t0: complex
    phi_pp_mod: float
    log_g_at_t0: BranchTrackedValue


def saddle_point(z: complex, alpha: Alpha) -> SaddleData:
    """Stationary point of the phase and its quadratic model at ``z``."""
    if z == 0:
        raise DomainError("saddle_point: z=0 has no saddle (and is never a zero)")
    a = alpha.value
    t0 = a / ((a + 1.0) * z)
    pp = phase_second_derivative(t0, z, alpha)
    return SaddleData(
        t0=t0,
        phi_pp_mod=abs(pp),
        log_g_at_t0=phase(t0, z, alpha),
    )


def level_constant(alpha: Alpha) -> float:
    """Height ``|w0^alpha| / |alpha+1|`` of the level curve through w0 = alpha/(alpha+1).

    The principal logarithm of w0 is safe: w0 lies in the open right
    half-plane whenever eta > 0.
    """
    a = alpha.value
    w0 = alpha.saddle_base
    log_w0 = cmath.log(w0)
    return math.exp((a * log_w0).real) / abs(a + 1.0)


@dataclass(frozen=True)
class SaddleEstimate:
    """Leading saddle-point term of the descent-contour integral.

    ``log_modulus`` is exact-arithmetic-safe for any n; ``value`` is the
    complex estimate when it is representable in double precision, else
    None.  The phase of ``value`` is only meaningful modulo pi because the
    orientation of the contour through the saddle is a caller convention.
    """

    log_modulus: float
    phase: float
    value: complex | None


def descent_integral_estimate(n: int, z: complex, alpha: Alpha, *,
                              l: float = 0) -> SaddleEstimate:
    """Leading term ``t0^l * g(t0)^n * sqrt(2*pi / (n * |phi''(t0)|))`` of
    ``int t^l g^n dt`` in log form, with ``t0^l`` on the principal branch.

    Valid when the descent contour through the saddle joins the two branch
    points, i.e. for z inside the admissible region; membership is the
    caller's responsibility (see flows.classify_region).
    """
    if n <= 0:
        raise DomainError("descent_integral_estimate: n must be positive")
    sd = saddle_point(z, alpha)
    phi0 = n * sd.log_g_at_t0.value
    if l:
        phi0 += l * sd.log_g_at_t0.parts[0]
    log_mod = phi0.real + 0.5 * math.log(2.0 * math.pi / (n * sd.phi_pp_mod))
    # direction factor from the half-angle of -phi''(t0)
    direction = -0.5 * cmath.phase(-phase_second_derivative(sd.t0, z, alpha))
    arg = phi0.imag + direction
    value = cmath.exp(complex(log_mod, arg)) if abs(log_mod) < 700.0 else None
    return SaddleEstimate(log_modulus=log_mod, phase=arg, value=value)
