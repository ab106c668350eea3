"""Contour integrals of ``t^l g(t)^n``, ``g(t) = t^alpha (1 - z t)``, carried
as (log-modulus, phase) with log-scale error bounds, since magnitudes scale
like ``rho^n`` and leave double range quickly.  The offset l of the family
b = alpha*n + 1 + l moves no contour.

* The Euler integral over [0, 1], by adaptive Gauss-Kronrod after
  ``t = exp(-u)``, which turns the infinitely fast phase rotation at t = 0
  into a smooth exponential tail.
* The descent piece, from the origin through the saddle to the branch
  point 1/z: a Beta integral after ``t = s/z``, evaluated in closed form.
* The endpoint piece, along the steepest-descent path from t = 1 to 1/z,
  on which ``g(t) / g(1)`` is real in (0, 1]: traced by the flow tracer
  and integrated by Gauss-Kronrod on the chords of the polyline.  It
  factors as ``g(1)^n`` times a tail factor whose n-th root tends to 1.
"""

from __future__ import annotations

import cmath
import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RegionError
from .kernel import Alpha, phase_parts
from .flows import (DESCENT, ENDPOINT_1, IN_E, PathTrace, StopRule,
                    classify_region, trace_flow)

# Kronrod 15 / Gauss 7 on [-1, 1]: (node x >= 0, K weight, G weight), even in x
_GK15 = (
    (0.991455371120813, 0.022935322010529, 0.0),
    (0.949107912342759, 0.063092092629979, 0.129484966168870),
    (0.864864423359769, 0.104790010322250, 0.0),
    (0.741531185599394, 0.140653259715525, 0.279705391489277),
    (0.586087235467691, 0.169004726639267, 0.0),
    (0.405845151377397, 0.190350578064785, 0.381830050505119),
    (0.207784955007898, 0.204432940075298, 0.0),
    (0.0, 0.209482141084728, 0.417959183673469),
)
_X15 = np.array([s * x for x, _, _ in _GK15 for s in (1.0, -1.0)][:-1])
_K15, _G7 = np.array([w[1:] for w in _GK15 for _ in (0, 1)][:-1]).T.copy()


@dataclass(frozen=True)
class ContourIntegral:
    """Log-scale value of one contour integral.

    ``abs_error_bound`` is the natural log of the absolute error estimate
    (quadrature error plus any analytic truncation budget); ``-inf`` marks
    an exactly representable zero bound.
    """

    log_modulus: float
    phase: float
    abs_error_bound: float

    @property
    def value(self) -> complex:
        if self.log_modulus == -math.inf:
            return 0j
        if abs(self.log_modulus) > 700.0:
            raise OverflowError("contour integral not representable in double")
        return cmath.exp(complex(self.log_modulus, self.phase))


def _log_abs(x: complex) -> float:
    ax = abs(x)
    return math.log(ax) if ax > 0.0 else -math.inf


def _log_add(a: float, b: float) -> float:
    """log(exp(a) + exp(b)) without overflow."""
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))


def _gk15_array(f, a: float, b: float):
    """One GK15 panel on [a, b], (K15 value, error): ``f`` maps an array of
    nodes to its last axis, so one call integrates a batch of rows."""
    half = 0.5 * (b - a)
    fx = f(0.5 * (a + b) + half * _X15)
    # einsum, not BLAS: its first matrix-vector product adds 0.25 MB of memory
    kronrod, gauss = (np.einsum("...k,k", fx, w) for w in (_K15, _G7))
    d = np.abs(kronrod - gauss)
    return kronrod * half, abs(half) * np.minimum((200.0 * d) ** 1.5, d * 200.0)


def _adaptive(f, a: float, b: float, tol_abs: float,
              max_panels: int = 4000) -> tuple[complex, float]:
    """Bisection-adaptive GK15 for a complex integrand on [a, b]."""
    val, err = _gk15_array(f, a, b)
    heap = [(-err, a, b, val, err)]
    total_val, total_err = val, err
    panels = 1
    while total_err > tol_abs and panels < max_panels:
        neg, lo, hi, v, e = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        v1, e1 = _gk15_array(f, lo, mid)
        v2, e2 = _gk15_array(f, mid, hi)
        total_val += v1 + v2 - v
        total_err += e1 + e2 - e
        heapq.heappush(heap, (-e1, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, mid, hi, v2, e2))
        panels += 1
    return total_val, total_err


def euler_integral(n: int, alpha: Alpha, z: complex) -> ContourIntegral:
    """``int_0^1 t^(alpha n) (1 - z t)^n dt`` (no prefactor applied).

    Substituting ``t = exp(-u)`` maps the interval to [0, infinity) where
    the integrand decays like ``exp(-(eta n + 1) u)``; the tail beyond the
    truncation point is absorbed into the error bound.
    """
    if n < 0:
        raise DomainError("euler_integral: n must be nonnegative")
    a = alpha.value
    decay = alpha.eta * n + 1.0
    grow = n * math.log1p(abs(z))

    def f_log(u):
        # for integer n the integrand is entire; a node exactly on the zero
        # of (1 - z t) is the removable value 0 (flagged as -inf here); a
        # complex z keeps log(1 - z t) complex where a real z > 1 turns it < 0
        w = 1.0 - complex(z) * np.exp(-u)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_w = n * np.log(w)
        return np.where(w == 0, -np.inf, -(a * n + 1.0) * u + log_w)

    def sample_shift(u_hi: float) -> float:
        vals = f_log(u_hi * np.arange(65) / 64.0).real
        return vals[vals > -math.inf].max()

    # exponent shift keeps the scaled integrand O(1); the truncation point
    # pushes even the crude tail envelope (1+|z|)^n e^(-decay u) below the
    # shifted rounding floor
    u_max = (grow + 48.0) / decay
    shift = sample_shift(u_max)
    u_max = max(u_max, (grow - shift + 42.0) / decay)
    shift = max(shift, sample_shift(u_max))

    def f(u):
        w = f_log(u) - shift
        return np.where(w.real < -745.0, 0j, np.exp(w))

    tol = max(1e-12 * u_max, 1e-280)
    val, err = _adaptive(f, 0.0, u_max, tol)
    tail = math.exp(min(grow - decay * u_max - shift, 700.0)) / decay
    err_total = err + tail + 1e-16 * u_max
    return ContourIntegral(
        log_modulus=shift + _log_abs(val),
        phase=cmath.phase(val) if val != 0 else 0.0,
        abs_error_bound=shift + (math.log(err_total) if err_total > 0 else -math.inf),
    )


def _polyline_power_integral(points, phases, z, alpha, n: int,
                             shift: float, *, l: float = 0) -> tuple[complex, float]:
    """``int t^l g^n dt`` along a traced polyline, scaled by ``exp(-shift)``.

    Branch values from the trace anchor the continuation inside each
    segment, so the integrand is evaluated on the correct sheet even where
    the polyline winds around a branch point.  One GK15 panel covers every
    segment at once; segments it does not resolve are refined one by one.
    """
    pts = np.asarray(points, dtype=complex)
    p0 = pts[:-1, None]
    seg = pts[1:, None] - p0
    log_t0, log_u0 = np.array([br.parts for br in phases[:len(seg)]]).T[:, :, None]

    def f(s, rows=slice(None)):
        log_t, log_u = phase_parts(p0[rows] + s * seg[rows], z,
                                   log_t0[rows], log_u0[rows])
        w = n * (alpha.value * log_t + log_u) - shift
        if l:
            w = w + l * log_t
        return np.where(w.real < -745.0, 0j, np.exp(w))

    v, e = _gk15_array(f, 0.0, 1.0)
    for i in np.flatnonzero(e > 1e-15 * np.maximum(1.0, np.abs(v))):
        v[i], e[i] = _adaptive(lambda s, i=i: f(s, i), 0.0, 1.0,
                               max(1e-16, 0.05 * e[i]), max_panels=64)
    length = np.abs(seg[:, 0])
    # scaled integrand is at most ~1 (the shift is its contour maximum); the
    # roundoff floor grows with n + l because the exponent amplifies phase
    # rounding (n + l)-fold
    err = e @ length + (4.0 + 2.0 * (n + l)) * 1e-16 * length.sum()
    return complex(v @ seg[:, 0]), float(err)


def _trace_to_inverse(start: complex, z: complex, alpha: Alpha) -> PathTrace:
    """Descent trace from ``start`` stopped at the tight radius
    ``1e-9 (1 + |1/z|)`` (or the default one, if smaller) of a branch point."""
    tight = min(StopRule().branch_radius, 1e-9 * (1.0 + abs(1.0 / z)))
    return trace_flow(start, z, alpha, DESCENT, stop=StopRule(branch_radius=tight),
                      corrector_tol=1e-10)


def _log_tail_at_inverse(trace: PathTrace, z: complex, n: int, l: float) -> float:
    """Log bound on ``int t^l g^n`` from the end of ``trace`` to 1/z: inside
    the stop radius ``|g|^n`` decays like ``dist^n`` and ``|t|^l`` stays
    below ``(|t_end| + dist)^l``."""
    dist = abs(trace.points[-1] - 1.0 / z)
    reach = l * math.log(abs(trace.points[-1]) + dist) if l else 0.0
    return n * trace.phases[-1].value.real + math.log(dist / (n + 1.0) + 1e-300) + reach


def descent_integral(n: int, alpha: Alpha, z: complex, epsilon: float | None = None,
                     check_region: bool = True, *, l: float = 0) -> ContourIntegral:
    """``int t^l g^n dt`` from the origin through the saddle to 1/z along the
    steepest-descent contour, in closed form.  ``epsilon``, the cut radius of
    the traced contour this replaces, is accepted because ``perfbench`` still
    passes it, and is neither read nor checked.  Requires z in the admissible
    region (checked unless ``check_region`` is False, in which case the
    caller vouches)."""
    if n <= 0:
        raise DomainError("descent_integral: n must be positive")
    if z == 0:
        raise DomainError("descent_integral: z=0 has no saddle")
    if check_region:
        label = classify_region(z, alpha)
        if label.label != IN_E:
            raise RegionError(f"descent_integral: z={z} classifies {label.label}")
    # The integrand is t^(b-1) (1 - z t)^n, b = alpha n + 1 + l, with log t
    # continued from Log t0, the principal sheet that anchors the phase at
    # the saddle (``saddle_point``).  With t = s/z the phase is alpha log s +
    # log(1 - s) - alpha log z, so the s-path is the contour for z = 1 through
    # w0 = alpha/(alpha+1) = z t0, and log t - log s is constant on it:
    # L = Log t0 - Log w0 for log s = Log w0 at w0, as for z = 1.  The piece
    # is then exp((b-1) L) / z times the one for z = 1, whose endpoint piece
    # is empty: the Euler integral B(b, n+1) = n! / prod_(k=0..n) (b+k).
    # L = -Log z + 2 pi i k with k = 0 only while arg w0 - arg z lies in
    # (-pi, pi]; the naive factor z^-b drops the 2 pi i k (b-1).
    a = alpha.value
    b = a * n + 1.0 + l
    log_w0, log_z = cmath.log(a / (a + 1.0)), cmath.log(z)
    log_t0 = cmath.log(a / ((a + 1.0) * z))      # t0 as ``saddle_point`` forms it
    logs = np.log(b + np.arange(n + 1.0))
    x = ((b - 1.0) * (log_t0 - log_w0) - log_z + math.lgamma(n + 1.0)
         - complex(math.fsum(logs.real), math.fsum(logs.imag)))
    # Error bound: each term of x carries a few roundings (a log within 2 ulp
    # of its modulus or 1 ulp absolute near 0, a product or difference within
    # 2 ulp, fsum exact), and rounding b moves x by at most 2^-53 |b| (|L| +
    # sum 1/|b+k|) <= 2^-53 (|b| |L| + n + 1), as |b+k| >= |b| for Re b >= 1.
    # So x is off by delta <= 2^-50 s (8-fold spare), exp(x) by < 2 |exp(x)| delta.
    s = (abs(b) * (abs(log_t0) + abs(log_w0) + 1.0) + abs(log_z) + n + 1.0
         + math.lgamma(n + 1.0) + float(np.abs(logs).sum()))
    return ContourIntegral(x.real, cmath.phase(cmath.exp(1j * x.imag)),
                           x.real + math.log(s) - 50.0 * math.log(2.0))


@dataclass(frozen=True)
class EndpointIntegral:
    """Contour integral from 1/z to 1 split as ``g(1)^n`` times a tail factor."""

    integral: ContourIntegral
    endpoint_log_modulus: float     # n * log|1 - z|
    k_value: complex                # the tail factor K
    k_error: float                  # absolute error on K
    path: tuple[complex, ...]       # trace vertices, t = 1 first


def endpoint_integral(n: int, alpha: Alpha, z: complex,
                      check_region: bool = True, *, l: float = 0) -> EndpointIntegral:
    """``int t^l g^n dt`` from 1/z to 1 along the steepest-descent path from 1.

    On that path ``g(t) / g(1)`` is real and falls from 1 to 0, so it is
    the implicit path ``g(t) = s g(1)``, s in [0, 1], traced by
    :func:`_trace_to_inverse` and integrated by the polyline rule; a trace
    that does not end at 1/z (z outside E) raises :class:`RegionError`.  The integral is
    returned as ``(1-z)^n * K`` (``t^l`` is 1 at t = 1); K is explicit
    because its n-th root magnitude is a convergence diagnostic.
    """
    if n <= 0:
        raise DomainError("endpoint_integral: n must be positive")
    if z == 1.0:
        raise DomainError("endpoint_integral: z=1 collapses the path")
    if check_region:
        label = classify_region(z, alpha)
        if label.label != IN_E:
            raise RegionError(f"endpoint_integral: z={z} classifies {label.label}")

    trace = _trace_to_inverse(1.0 + 0j, z, alpha)
    if trace.terminal != ENDPOINT_1:
        raise RegionError(f"endpoint_integral: descent from t=1 ends "
                          f"{trace.terminal}, not at 1/z")

    # the trace runs 1 -> 1/z; |g(1)|^n is the contour maximum
    g1 = 1.0 - z
    log_mod_end = n * math.log(abs(g1))
    total, err = _polyline_power_integral(trace.points, trace.phases, z, alpha,
                                          n, log_mod_end, l=l)
    k_total = -total * cmath.exp(-1j * n * cmath.phase(g1))
    k_err = err + math.exp(_log_tail_at_inverse(trace, z, n, l) - log_mod_end)

    integral = ContourIntegral(
        log_modulus=log_mod_end + _log_abs(k_total),
        phase=n * cmath.phase(g1) + (cmath.phase(k_total) if k_total != 0 else 0.0),
        abs_error_bound=log_mod_end + (math.log(k_err) if k_err > 0 else -math.inf),
    )
    return EndpointIntegral(integral=integral, endpoint_log_modulus=log_mod_end,
                            k_value=k_total, k_error=k_err, path=trace.points)
