"""Branch-aware complex primitives shared by every other module.

The integrand of the family studied here is ``t^(alpha) * (1 - z t)`` raised
to the n-th power; all asymptotics run through its logarithm

    phase(t) = alpha * log(t) + log(1 - z*t),

which is multivalued.  Tracing contours that wind around the branch points
``t = 0`` and ``t = 1/z`` requires continuing both logarithms along the path
instead of fixing a principal branch.  Continuation state is carried in
:class:`BranchTrackedValue`: at each step the raw principal value of each
constituent logarithm is corrected by the multiple of ``2*pi*i`` closest to
the previous value.  This is valid as long as consecutive points keep the
per-step argument change below ``pi``, which the tracers guarantee through
step-size control.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError, SingularPointError, TracingError

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Alpha:
    """Complex family parameter ``alpha = eta + i*zeta``.

    Finite ``eta > 0`` and ``zeta`` are required throughout.  ``zeta == 0``
    is the real-parameter regime (``is_real_regime``);
    ``zeta != 0`` is the regime of the main clustering experiment.
    """

    eta: float
    zeta: float = 0.0

    def __post_init__(self):
        if not self.eta > 0:
            raise DomainError(f"alpha requires eta > 0, got eta={self.eta}")
        if not (math.isfinite(self.eta) and math.isfinite(self.zeta)):
            raise DomainError(f"alpha must be finite, got eta={self.eta}, "
                              f"zeta={self.zeta}")

    @property
    def is_real_regime(self) -> bool:
        return self.zeta == 0.0

    @cached_property
    def value(self) -> complex:
        # cached in the instance dict, which the frozen dataclass leaves
        # writable; not a field, so equality, hashing and repr ignore it
        return complex(self.eta, self.zeta)

    @property
    def saddle_base(self) -> complex:
        """``alpha / (alpha + 1)``, always in the right half-plane."""
        a = self.value
        return a / (a + 1.0)


@dataclass(frozen=True)
class BranchTrackedValue:
    """A phase-continued value of a (sum of) logarithm(s).

    ``value`` is the continued complex value; the continuity of its
    imaginary part defines the branch.  ``parts`` stores the continued
    values of the constituent logarithms; it is the state needed to
    continue a two-logarithm phase whose first term carries a complex
    coefficient, where correcting the total by multiples of ``2*pi*i``
    alone would be ambiguous.
    """

    value: complex
    parts: tuple[complex, ...] = field(default=())


def principal_log(w: complex) -> complex:
    """Principal branch logarithm, imaginary part in (-pi, pi]."""
    if w == 0:
        raise DomainError("principal_log: log(0) is undefined")
    return cmath.log(w)


def unwind_imag(raw_imag: float, previous_imag: float) -> float:
    """Shift ``raw_imag`` by the multiple of 2*pi closest to ``previous_imag``."""
    return raw_imag + TWO_PI * round((previous_imag - raw_imag) / TWO_PI)


def continued_log(w: complex, previous: complex | None = None) -> complex:
    """Logarithm of ``w`` on the branch continued from ``previous``.

    With ``previous=None`` this is the principal value.  Correct whenever the
    argument of ``w`` moved by less than pi since the point that produced
    ``previous``.
    """
    raw = principal_log(w)
    if previous is None:
        return raw
    return complex(raw.real, unwind_imag(raw.imag, previous.imag))


def phase(t: complex, z: complex, alpha: Alpha,
          branch: BranchTrackedValue | None = None) -> BranchTrackedValue:
    """Continued value of ``alpha*log(t) + log(1 - z*t)``.

    ``branch`` is the value returned at the previous point of the active
    path; ``None`` selects the principal branch of both logarithms (the
    branch that is real on the segment (0, 1] when z and alpha are real).
    """
    if t == 0:
        raise SingularPointError("phase: t=0 is a branch point")
    u = 1.0 - z * t
    if u == 0:
        raise SingularPointError("phase: t=1/z is a branch point")
    prev_log_t = branch.parts[0] if branch is not None else None
    prev_log_u = branch.parts[1] if branch is not None else None
    log_t = continued_log(t, prev_log_t)
    log_u = continued_log(u, prev_log_u)
    val = alpha.value * log_t + log_u
    return BranchTrackedValue(value=val, parts=(log_t, log_u))


def phase_parts(t: np.ndarray, z: complex, log_t0, log_u0) -> list[np.ndarray]:
    """Continued ``log(t)`` and ``log(1 - z*t)`` over an array of points, each on
    the branch nearest the anchor parts ``log_t0``, ``log_u0`` broadcast to it
    (:func:`continued_log`'s rule); a point over a quarter turn around 0 or 1/z
    from its anchor, which step control rules out, raises :class:`TracingError`."""
    # 1 - z*t with the roundings of the scalar product (numpy fuses them)
    u_re = 1.0 - (z.real * t.real - z.imag * t.imag)
    u_im = 0.0 - (z.real * t.imag + z.imag * t.real)
    logs = []
    for re, im, prev in ((t.real, t.imag, log_t0), (u_re, u_im, log_u0)):
        modulus = np.hypot(re, im)
        if not np.all(modulus > 0):
            raise SingularPointError("phase_parts: a point is a branch point 0 or 1/z")
        arg = np.arctan2(im, re)
        arg += TWO_PI * np.round((prev.imag - arg) / TWO_PI)
        if np.any(np.abs(arg - prev.imag) > 0.5 * math.pi):
            raise TracingError("phase_parts: a point turned over a quarter turn")
        logs.append(np.log(modulus) + 1j * arg)
    return logs


def phase_derivative(t: complex, z: complex, alpha: Alpha) -> complex:
    """d/dt of the phase; single-valued on the whole plane minus {0, 1/z}."""
    a = alpha.value
    denom = t * (1.0 - z * t)
    if denom == 0:
        raise SingularPointError("phase_derivative: pole at t in {0, 1/z}")
    return (a - z * t * (a + 1.0)) / denom


def phase_second_derivative(t: complex, z: complex, alpha: Alpha) -> complex:
    """d^2/dt^2 of the phase, from the single-valued closed form."""
    a = alpha.value
    u = 1.0 - z * t
    # t or u so small that its square underflows is a pole in double too
    if t * t == 0 or u * u == 0:
        raise SingularPointError("phase_second_derivative: pole at t in {0, 1/z}")
    return -a / (t * t) - (z * z) / (u * u)


@dataclass(frozen=True)
class Precision:
    """Working precision of :func:`hyperpoly.evaluate`.

    ``bits`` is the mantissa width of the mpmath evaluation; 53 is double.
    """

    bits: int = 53

    def __post_init__(self):
        if self.bits < 24:
            raise DomainError(f"precision below 24 bits is not supported: {self.bits}")


DOUBLE = Precision()
