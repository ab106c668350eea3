"""Contour integration of the integrand power ``g(t)^n`` and its pieces.

Everything funnels through a complex-valued adaptive Gauss-Kronrod rule.
Magnitudes scale like ``rho^n`` and leave double range quickly, so every
integral is carried as (log-modulus, phase) with the quadrature performed on
an exponent-shifted integrand; error bounds are log-scale as well.

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
from dataclasses import dataclass, replace

from .errors import AccuracyError, DomainError, RegionError, TracingError
from .kernel import Alpha, BranchTrackedValue, phase
from .flows import (DESCENT, ENDPOINT_0, ENDPOINT_1, IN_E, PathTrace,
                    StopRule, classify_region, saddle_directions, trace_flow)
from .saddle import saddle_point

# Gauss 7 / Kronrod 15 nodes and weights on [-1, 1]
_K15_NODES = (
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
)
_K15_WEIGHTS = (
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
)
_G7_WEIGHTS = {1: 0.129484966168870, 3: 0.279705391489277,
               5: 0.381830050505119, 7: 0.417959183673469}


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
    """One Gauss-Kronrod panel; returns (K15 value, error estimate)."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    gauss = 0j
    kronrod = 0j
    for i, x in enumerate(_K15_NODES):
        if x == 0.0:
            fv = f(mid)
            kronrod += _K15_WEIGHTS[i] * fv
            gauss += _G7_WEIGHTS[i] * fv
            continue
        fp = f(mid + half * x)
        fm = f(mid - half * x)
        kronrod += _K15_WEIGHTS[i] * (fp + fm)
        if i in _G7_WEIGHTS:
            gauss += _G7_WEIGHTS[i] * (fp + fm)
    err = abs(half) * min((200.0 * abs(kronrod - gauss)) ** 1.5,
                          abs(kronrod - gauss) * 200.0)
    return kronrod * half, err


def _adaptive(f, a: float, b: float, tol_abs: float,
              max_panels: int = 4000) -> tuple[complex, float]:
    """Bisection-adaptive GK15 for a complex integrand on [a, b]."""
    val, err = _gk15(f, a, b)
    heap = [(-err, a, b, val, err)]
    total_val, total_err = val, err
    panels = 1
    while total_err > tol_abs and panels < max_panels:
        neg, lo, hi, v, e = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        v1, e1 = _gk15(f, lo, mid)
        v2, e2 = _gk15(f, mid, hi)
        total_val += v1 + v2 - v
        total_err += e1 + e2 - e
        heapq.heappush(heap, (-e1, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, mid, hi, v2, e2))
        panels += 1
    return total_val, total_err


def euler_integral(n: int, alpha: Alpha, z: complex,
                   rel_tol: float = 1e-12) -> ContourIntegral:
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

    tol = max(rel_tol * u_max, 1e-280)
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
                             shift: float) -> tuple[complex, float]:
    """``int g^n dt`` along a traced polyline, scaled by ``exp(-shift)``.

    Branch values from the trace anchor the continuation inside each
    segment, so the integrand is evaluated on the correct sheet even where
    the polyline winds around a branch point.
    """
    total = 0j
    err = 0.0
    length = 0.0
    for i in range(len(points) - 1):
        p0, p1 = points[i], points[i + 1]
        anchor = phases[i]
        seg = p1 - p0
        length += abs(seg)

        def f(s: float, p0=p0, seg=seg, anchor=anchor) -> complex:
            br = phase(p0 + s * seg, z, alpha, branch=anchor)
            w = n * br.value - shift
            if w.real < -745.0:
                return 0j
            return cmath.exp(w)

        v, e = _gk15(f, 0.0, 1.0)
        if e > 1e-15 * max(1.0, abs(v)):
            v, e = _adaptive(f, 0.0, 1.0, max(1e-16, 0.05 * e), max_panels=64)
        total += v * seg
        err += e * abs(seg)
    # scaled integrand is at most ~1 (the shift is its contour maximum); the
    # roundoff floor grows with n because exp(n*phase) amplifies phase
    # rounding n-fold
    err += (4.0 + 2.0 * n) * 1e-16 * length
    return total, err


def _trace_to_inverse(start: complex, z: complex, alpha: Alpha,
                      stop: StopRule,
                      initial_branch: BranchTrackedValue | None = None
                      ) -> PathTrace:
    """Descent trace from ``start`` stopped at the tight radius
    ``1e-9 (1 + |1/z|)`` (or ``stop``'s, if smaller) of a branch point."""
    tight = min(stop.branch_radius, 1e-9 * (1.0 + abs(1.0 / z)))
    return trace_flow(start, z, alpha, DESCENT,
                      stop=replace(stop, branch_radius=tight),
                      corrector_tol=1e-10, initial_branch=initial_branch)


def _log_tail_at_inverse(trace: PathTrace, z: complex, n: int) -> float:
    """Log bound on ``int g^n`` from the end of ``trace`` to 1/z: inside the
    stop radius ``|g|^n`` decays like ``dist^n``."""
    dist = abs(trace.points[-1] - 1.0 / z)
    return n * trace.phases[-1].value.real + math.log(dist / (n + 1.0) + 1e-300)


def descent_integral(n: int, alpha: Alpha, z: complex, epsilon: float,
                     check_region: bool = True,
                     stop: StopRule = StopRule(),
                     saddle_offset: float = 1e-6) -> ContourIntegral:
    """``int g^n dt`` from the origin to 1/z along the steepest-descent contour.

    The two descent legs are traced from the saddle; the leg into the origin
    is truncated at radius ``epsilon`` and the omitted spiral start
    contributes only the analytic budget ``M eps^(eta+1) / (eta+1)``.
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
    rho = saddle_offset * min(abs(t0), abs(1.0 / z - t0))

    legs = {}
    for d in dirs:
        start = t0 + rho * d
        # per-leg stop radius: coarse first to identify the endpoint
        probe = trace_flow(start, z, alpha, DESCENT,
                           stop=replace(stop, branch_radius=max(epsilon, stop.branch_radius)),
                           corrector_tol=1e-10, initial_branch=anchor)
        legs[probe.terminal] = (d, probe)
    if set(legs) != {ENDPOINT_0, ENDPOINT_1}:
        raise TracingError("descent legs did not reach both branch points",
                           {"terminals": sorted(legs)})
    _, leg0 = legs[ENDPOINT_0]
    d1, _ = legs[ENDPOINT_1]
    # re-trace the 1/z leg to a tight radius
    leg1 = _trace_to_inverse(t0 + rho * d1, z, alpha, stop, anchor)
    if leg1.terminal != ENDPOINT_1:
        raise TracingError("tight re-trace lost the 1/z endpoint",
                           {"terminal": leg1.terminal})

    shift = n * anchor.value.real

    # legs are traced outward from the saddle; orient the contour 0 -> 1/z
    v0, e0 = _polyline_power_integral(leg0.points, leg0.phases, z, alpha, n, shift)
    v1, e1 = _polyline_power_integral(leg1.points, leg1.phases, z, alpha, n, shift)
    # short straight gap across the saddle between the two leg starts
    gap_pts = (leg0.points[0], leg1.points[0])
    gap_phs = (phase(leg0.points[0], z, alpha, branch=anchor),)
    vg, eg = _polyline_power_integral(gap_pts, gap_phs, z, alpha, n, shift)
    total = -v0 + vg + v1
    quad_err = e0 + e1 + eg

    # budget for the omitted segment from 0 to the truncation point
    w_eps = leg0.points[-1]
    br_eps = leg0.phases[-1]
    log_m = -math.inf
    for tau in (1.0, 0.6, 0.3, 0.1, 0.03, 0.01):
        t = w_eps * tau
        br = phase(t, z, alpha, branch=br_eps)
        log_m = max(log_m, n * br.value.real - alpha.eta * math.log(abs(t)))
    log_eps_budget = (log_m + (alpha.eta + 1.0) * math.log(abs(w_eps))
                      - math.log(alpha.eta + 1.0))

    trunc = _log_add(log_eps_budget, _log_tail_at_inverse(leg1, z, n))
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
    junction_phase_gap: float | None
    path: tuple[complex, ...]       # trace vertices, t = 1 first


def endpoint_integral(n: int, alpha: Alpha, z: complex,
                      check_region: bool = True,
                      junction_branch: BranchTrackedValue | None = None
                      ) -> EndpointIntegral:
    """``int g^n dt`` from 1/z to 1 along the steepest-descent path from 1.

    On that path ``g(t) / g(1)`` is real and falls from 1 to 0, so it is
    the implicit path ``g(t) = s g(1)``, s in [0, 1].  It is traced by
    :func:`trace_flow` to the tight 1/z radius of :func:`descent_integral`
    and integrated by the same polyline rule; a trace that does not end at
    1/z (z outside E) raises :class:`RegionError`.  The integral is
    returned as ``(1-z)^n * K``; K is explicit because its n-th root
    magnitude is a convergence diagnostic.  ``junction_branch`` (the
    continued phase at the 1/z end of the descent contour) enables a
    sheet-consistency check across the junction.
    """
    if n <= 0:
        raise DomainError("endpoint_integral: n must be positive")
    if z == 1.0:
        raise DomainError("endpoint_integral: z=1 collapses the path")
    if check_region:
        label = classify_region(z, alpha)
        if label.label != IN_E:
            raise RegionError(f"endpoint_integral: z={z} classifies {label.label}")

    trace = _trace_to_inverse(1.0 + 0j, z, alpha, StopRule())
    if trace.terminal != ENDPOINT_1:
        raise RegionError(f"endpoint_integral: descent from t=1 ends "
                          f"{trace.terminal}, not at 1/z")

    junction_gap = None
    if junction_branch is not None:
        junction_gap = abs(trace.phases[-1].imag_phase - junction_branch.imag_phase)

    # the trace runs 1 -> 1/z; |g(1)|^n is the contour maximum
    g1 = 1.0 - z
    log_mod_end = n * math.log(abs(g1))
    total, err = _polyline_power_integral(trace.points, trace.phases, z, alpha,
                                          n, log_mod_end)
    k_total = -total * cmath.exp(-1j * n * cmath.phase(g1))
    log_tail = _log_tail_at_inverse(trace, z, n)
    k_err = err + math.exp(log_tail - log_mod_end)

    integral = ContourIntegral(
        log_modulus=log_mod_end + _log_abs(k_total),
        phase=n * cmath.phase(g1) + (cmath.phase(k_total) if k_total != 0 else 0.0),
        abs_error_bound=log_mod_end + (math.log(k_err) if k_err > 0 else -math.inf),
        truncation_log=log_tail,
    )
    return EndpointIntegral(integral=integral, endpoint_log_modulus=log_mod_end,
                            k_value=k_total, k_error=k_err,
                            junction_phase_gap=junction_gap,
                            path=trace.points)


def moment_nth_roots(f, n_list, rel_tol: float = 1e-12) -> list[float]:
    """``|int_0^1 f(s) s^(n-1) ds|^(1/n)`` for each n.

    These magnitudes tend to 1 for any nonzero f analytic on a neighborhood
    of [0, 1]; callers use the returned sequence to check that convergence.
    """
    out = []
    for n in n_list:
        if n < 1:
            raise DomainError("moment_nth_roots: n must be >= 1")

        def fn(s: float) -> complex:
            return complex(f(s)) * s ** (n - 1)

        # the mass concentrates in an O(1/n) layer below s = 1
        split = max(0.0, 1.0 - 8.0 / n)
        v1, e1 = _adaptive(fn, 0.0, split, 1e-16, max_panels=400)
        v2, e2 = _adaptive(fn, split, 1.0, 1e-16, max_panels=400)
        val = v1 + v2
        if val == 0:
            raise AccuracyError("moment integral evaluated to exact zero")
        if (e1 + e2) > rel_tol * abs(val):
            raise AccuracyError("moment integral tolerance not reached",
                                achieved=(e1 + e2) / abs(val))
        out.append(abs(val) ** (1.0 / n))
    return out
