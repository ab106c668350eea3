"""Contour integration of the integrand ``t^l g(t)^n`` and its pieces.

Everything funnels through a complex-valued adaptive Gauss-Kronrod rule.
Magnitudes scale like ``rho^n`` and leave double range quickly, so every
integral is carried as (log-modulus, phase) with the quadrature performed on
an exponent-shifted integrand; error bounds are log-scale as well.  The
offset l of the family b = alpha*n + 1 + l moves no contour.

Three contours appear:

* the real segment [0, 1], integrated after the substitution ``t = exp(-u)``
  which turns the infinitely fast phase rotation at t = 0 into a smooth
  exponential tail;
* the steepest-descent contour from the origin through the saddle to the
  branch point 1/z, supplied by the flow tracer as a polyline, with the
  spiral near the origin truncated at radius epsilon and replaced by an
  explicit error budget;
* the steepest-descent path from t = 1 to the branch point 1/z, on which
  ``g(t) / g(1)`` is real in (0, 1], traced by the same flow tracer and
  integrated by the same polyline rule; the integral factors as
  ``g(1)^n`` times a tail factor whose n-th root tends to 1.
"""

from __future__ import annotations

import cmath
import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RegionError, TracingError
from .kernel import Alpha, BranchTrackedValue, phase, phase_parts
from .flows import (DESCENT, ENDPOINT_0, ENDPOINT_1, IN_E, PathTrace,
                    StopRule, classify_region, saddle_directions, trace_flow)
from .saddle import saddle_point

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

_BRANCH_RADIUS = StopRule().branch_radius    # the default stop radius


@dataclass(frozen=True)
class ContourIntegral:
    """Log-scale value of one contour integral.

    ``abs_error_bound`` is the natural log of the absolute error estimate
    (quadrature error plus any analytic truncation budget); ``-inf`` marks
    an exactly representable zero bound.  ``truncation_log`` isolates the
    analytic endpoint-truncation part of the budget.
    """

    log_modulus: float
    phase: float
    abs_error_bound: float
    truncation_log: float = -math.inf

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


def _gk15(f, a: float, b: float) -> tuple[complex, float]:
    """One Gauss-Kronrod panel, one node at a time: (K15 value, error)."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    gauss = kronrod = 0j
    for x, wk, wg in _GK15:
        fx = f(mid + half * x) + f(mid - half * x) if x else f(mid)
        kronrod += wk * fx
        gauss += wg * fx
    err = abs(half) * min((200.0 * abs(kronrod - gauss)) ** 1.5,
                          abs(kronrod - gauss) * 200.0)
    return kronrod * half, err


def _gk15_array(f, a: float, b: float):
    """:func:`_gk15` over arrays: ``f`` maps the nodes to its last axis."""
    half = 0.5 * (b - a)
    fx = f(0.5 * (a + b) + half * _X15)
    # einsum, not BLAS: its first matrix-vector product adds 0.25 MB of memory
    kronrod, gauss = (np.einsum("...k,k", fx, w) for w in (_K15, _G7))
    d = np.abs(kronrod - gauss)
    return kronrod * half, abs(half) * np.minimum((200.0 * d) ** 1.5, d * 200.0)


def _adaptive(f, a: float, b: float, tol_abs: float,
              max_panels: int = 4000, rule=_gk15) -> tuple[complex, float]:
    """Bisection-adaptive GK15 for a complex integrand on [a, b]."""
    val, err = rule(f, a, b)
    heap = [(-err, a, b, val, err)]
    total_val, total_err = val, err
    panels = 1
    while total_err > tol_abs and panels < max_panels:
        neg, lo, hi, v, e = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        v1, e1 = rule(f, lo, mid)
        v2, e2 = rule(f, mid, hi)
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

    def f_log(u: float) -> complex:
        # for integer n the integrand is entire; a node exactly on the zero
        # of (1 - z t) is the removable value 0 (flagged as -inf here)
        w = 1.0 - z * cmath.exp(-u)
        if w == 0:
            return complex(-math.inf, 0.0)
        log_w = cmath.log(w) if n else 0j
        return (-(a * n + 1.0) * u) + n * log_w

    def sample_shift(u_hi: float) -> float:
        vals = [f_log(u_hi * j / 64.0).real for j in range(65)]
        return max(v for v in vals if v > -math.inf)

    # exponent shift keeps the scaled integrand O(1); the truncation point
    # pushes even the crude tail envelope (1+|z|)^n e^(-decay u) below the
    # shifted rounding floor
    u_max = (grow + 48.0) / decay
    shift = sample_shift(u_max)
    u_max = max(u_max, (grow - shift + 42.0) / decay)
    shift = max(shift, sample_shift(u_max))

    def f(u: float) -> complex:
        w = f_log(u) - shift
        return cmath.exp(w) if w.real > -745.0 else 0j

    tol = max(1e-12 * u_max, 1e-280)
    val, err = _adaptive(f, 0.0, u_max, tol)
    tail = math.exp(min(grow - decay * u_max - shift, 700.0)) / decay
    err_total = err + tail + 1e-16 * u_max
    return ContourIntegral(
        log_modulus=shift + _log_abs(val),
        phase=cmath.phase(val) if val != 0 else 0.0,
        abs_error_bound=shift + (math.log(err_total) if err_total > 0 else -math.inf),
        truncation_log=shift + (math.log(tail) if tail > 0 else -math.inf),
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
                               max(1e-16, 0.05 * e[i]), max_panels=64,
                               rule=_gk15_array)
    length = np.abs(seg[:, 0])
    # scaled integrand is at most ~1 (the shift is its contour maximum); the
    # roundoff floor grows with n + l because the exponent amplifies phase
    # rounding (n + l)-fold
    err = e @ length + (4.0 + 2.0 * (n + l)) * 1e-16 * length.sum()
    return complex(v @ seg[:, 0]), float(err)


def _trace_to_inverse(start: complex, z: complex, alpha: Alpha,
                      initial_branch: BranchTrackedValue | None = None
                      ) -> PathTrace:
    """Descent trace from ``start`` stopped at the tight radius
    ``1e-9 (1 + |1/z|)`` (or the default one, if smaller) of a branch point."""
    tight = min(_BRANCH_RADIUS, 1e-9 * (1.0 + abs(1.0 / z)))
    return trace_flow(start, z, alpha, DESCENT,
                      stop=StopRule(branch_radius=tight),
                      corrector_tol=1e-10, initial_branch=initial_branch)


def _log_tail_at_inverse(trace: PathTrace, z: complex, n: int, l: float) -> float:
    """Log bound on ``int t^l g^n`` from the end of ``trace`` to 1/z: inside
    the stop radius ``|g|^n`` decays like ``dist^n`` and ``|t|^l`` stays
    below ``(|t_end| + dist)^l``."""
    dist = abs(trace.points[-1] - 1.0 / z)
    reach = l * math.log(abs(trace.points[-1]) + dist) if l else 0.0
    return n * trace.phases[-1].value.real + math.log(dist / (n + 1.0) + 1e-300) + reach


def descent_integral(n: int, alpha: Alpha, z: complex, epsilon: float,
                     check_region: bool = True, *, l: float = 0) -> ContourIntegral:
    """``int t^l g^n dt`` from the origin to 1/z along the steepest-descent contour.

    The two descent legs are traced from the saddle, starting 1e-6 of its
    distance to the nearer branch point away from it; the leg into the origin
    is truncated at radius ``epsilon`` and the omitted spiral start
    contributes only the analytic budget ``M eps^(eta+l+1) / (eta+l+1)``.
    Requires z in the admissible region (checked unless ``check_region`` is
    False, in which case the caller vouches).
    """
    if n <= 0:
        raise DomainError("descent_integral: n must be positive")
    if epsilon <= 0:
        raise DomainError("descent_integral: epsilon must be positive")
    if check_region:
        label = classify_region(z, alpha)
        if label.label != IN_E:
            raise RegionError(f"descent_integral: z={z} classifies {label.label}")

    sd = saddle_point(z, alpha)
    t0 = sd.t0
    anchor = sd.log_g_at_t0
    dirs = saddle_directions(z, alpha).descent
    rho = 1e-6 * min(abs(t0), abs(1.0 / z - t0))

    legs = {}
    for d in dirs:
        start = t0 + rho * d
        # per-leg stop radius: coarse first to identify the endpoint
        probe = trace_flow(start, z, alpha, DESCENT,
                           stop=StopRule(branch_radius=max(epsilon, _BRANCH_RADIUS)),
                           corrector_tol=1e-10, initial_branch=anchor)
        legs[probe.terminal] = (d, probe)
    if set(legs) != {ENDPOINT_0, ENDPOINT_1}:
        raise TracingError("descent legs did not reach both branch points",
                           {"terminals": sorted(legs)})
    _, leg0 = legs[ENDPOINT_0]
    d1, _ = legs[ENDPOINT_1]
    # re-trace the 1/z leg to a tight radius
    leg1 = _trace_to_inverse(t0 + rho * d1, z, alpha, anchor)
    if leg1.terminal != ENDPOINT_1:
        raise TracingError("tight re-trace lost the 1/z endpoint",
                           {"terminal": leg1.terminal})

    shift = n * anchor.value.real
    if l:
        shift += l * math.log(abs(t0))

    # legs are traced outward from the saddle; orient the contour 0 -> 1/z
    v0, e0 = _polyline_power_integral(leg0.points, leg0.phases, z, alpha, n, shift, l=l)
    v1, e1 = _polyline_power_integral(leg1.points, leg1.phases, z, alpha, n, shift, l=l)
    # short straight gap across the saddle between the two leg starts
    gap_pts = (leg0.points[0], leg1.points[0])
    gap_phs = (phase(leg0.points[0], z, alpha, branch=anchor),)
    vg, eg = _polyline_power_integral(gap_pts, gap_phs, z, alpha, n, shift, l=l)
    total = -v0 + vg + v1
    quad_err = e0 + e1 + eg

    # budget for the omitted segment from 0 to the truncation point: the
    # integral over the spiral equals the one over the ray [0, w_eps], on
    # which |g|^n <= M |t|^eta with M the largest sampled |g|^n / |t|^eta.
    # For real l, |t^l| = |t|^l on every sheet, so |t^l g^n| <= M |t|^(eta+l)
    # and the ray contributes at most M |w_eps|^(eta+l+1) / (eta+l+1)
    w_eps = leg0.points[-1]
    br_eps = leg0.phases[-1]
    log_m = -math.inf
    for tau in (1.0, 0.6, 0.3, 0.1, 0.03, 0.01):
        t = w_eps * tau
        br = phase(t, z, alpha, branch=br_eps)
        log_m = max(log_m, n * br.value.real - alpha.eta * math.log(abs(t)))
    power = alpha.eta + l + 1.0
    log_eps_budget = (log_m + power * math.log(abs(w_eps)) - math.log(power))

    trunc = _log_add(log_eps_budget, _log_tail_at_inverse(leg1, z, n, l))
    log_err = _log_add(shift + (math.log(quad_err) if quad_err > 0 else -math.inf),
                       trunc)
    return ContourIntegral(
        log_modulus=shift + _log_abs(total),
        phase=cmath.phase(total) if total != 0 else 0.0,
        abs_error_bound=log_err,
        truncation_log=trunc,
    )


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
    the implicit path ``g(t) = s g(1)``, s in [0, 1].  It is traced by
    :func:`trace_flow` to the tight 1/z radius of :func:`descent_integral`
    and integrated by the same polyline rule; a trace that does not end at
    1/z (z outside E) raises :class:`RegionError`.  The integral is
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
    log_tail = _log_tail_at_inverse(trace, z, n, l)
    k_err = err + math.exp(log_tail - log_mod_end)

    integral = ContourIntegral(
        log_modulus=log_mod_end + _log_abs(k_total),
        phase=n * cmath.phase(g1) + (cmath.phase(k_total) if k_total != 0 else 0.0),
        abs_error_bound=log_mod_end + (math.log(k_err) if k_err > 0 else -math.inf),
        truncation_log=log_tail,
    )
    return EndpointIntegral(integral=integral, endpoint_log_modulus=log_mod_end,
                            k_value=k_total, k_error=k_err, path=trace.points)
