"""Steepest paths and level lines of the phase, and the basin partition.

Every path traced here is the preimage under the phase phi(t) = alpha
log(t) + log(1 - z*t) of a straight segment: a steepest descent or ascent
path (Im phi fixed) of a horizontal ray, a level line of Re phi of a
vertical segment.  :func:`trace_flow` lifts the segment by Newton in disks
where phi is one-to-one, so the phase at every vertex is known by
construction.  The w-plane phase, w = z*t, is the one with z = 1; a point
z belongs to the admissible region exactly when the w-plane descent from
it ends at the branch point w = 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import (DomainError, IndeterminateRegionError, TracingError)
from .kernel import (Alpha, BranchTrackedValue, phase, phase_derivative,
                     phase_second_derivative)

DESCENT = -1        # headings of the phase segment a trace lifts; a level
ASCENT = 1          # line is lifted along +1j or -1j

ENDPOINT_0 = "Endpoint0"
ENDPOINT_1 = "Endpoint1"
ENDPOINT_INFINITY = "EndpointInfinity"
SADDLE_REACHED = "SaddleReached"

IN_E = "InE"
NOT_IN_E = "NotInE"
BOUNDARY = "Boundary"

# largest step radius, as a fraction of |t| and |t - 1/z|: near a branch
# point, where L(r) ~ |alpha|/(|t| - r)^2, 2 - sqrt(3) = (1 - _SPAN)^2/2
# is also the radius that the bound on phi'' allows (see trace_flow)
_SPAN = 2.0 - math.sqrt(3.0)


@dataclass(frozen=True)
class PathTrace:
    points: tuple[complex, ...]
    phases: tuple[BranchTrackedValue, ...]
    direction: complex      # the heading: DESCENT, ASCENT or +-1j
    terminal: str
    im_phase_drift: float   # largest move of the phase off its segment's line
    min_saddle_distance: float

    def to_json_dict(self) -> dict:
        return {
            "direction": self.direction,
            "terminal": self.terminal,
            "points": [[p.real, p.imag] for p in self.points],
            "im_phase_drift": self.im_phase_drift,
        }


@dataclass(frozen=True)
class RegionLabel:
    label: str
    margin: float


@dataclass(frozen=True)
class SaddleDirections:
    descent: tuple[complex, complex]
    ascent: tuple[complex, complex]


def branch_ends(z: complex, *disks):
    """The stop of a steepest path: a vertex at ``|t| >= 10 (1 + |1/z|)``
    ends it at infinity, one in the first disk ``(centre, radius,
    terminal)`` of ``disks`` that holds it with that terminal, and one
    within 1e-8 of 0 or 1/z there."""
    bp1 = 1.0 / z
    far = 10.0 * (1.0 + abs(bp1))
    ends = (*disks, (0.0, 1e-8, ENDPOINT_0), (bp1, 1e-8, ENDPOINT_1))

    def stop(previous, t, branch):
        if abs(t) >= far:
            return ENDPOINT_INFINITY
        for c, r, end in ends:
            if abs(t - c) <= r:
                return end
        return None
    return stop


def _step_radius(t: complex, bp1: complex, alpha: Alpha, ad: float) -> float:
    """Radius r of the univalence disk of the step from t (see
    :func:`trace_flow`), with ``bp1`` = 1/z and ``ad`` = |phi'(t)|."""
    a = abs(alpha.value)
    # r0 and r in units of rho, which keeps every factor in double range
    d0, d1 = abs(t), abs(t - bp1)
    rho = min(d0, d1)
    x0, x1, g = d0 / rho, d1 / rho, 0.5 * ad * rho
    u = min(_SPAN, g / (a / (x0 * x0) + 1.0 / (x1 * x1)))
    u = min(u, g / (a / ((x0 - u) * (x0 - u)) + 1.0 / ((x1 - u) * (x1 - u))))
    return u * rho


def _solve(z: complex, alpha: Alpha, goal: complex, t: complex, branch,
           centre: complex, radius: float, what: str = "trace_flow:"):
    """Newton on phi(t) = goal from t, with phi continued from ``branch``
    and every iterate in D(centre, radius), to a relative step of 1e-15 or
    the rounding of phi (its logarithms and 1 - z t) over |phi'| at the
    first iterate; returns the root, its branch and that stopping step.  A
    failure raises :class:`TracingError` led by ``what``."""
    tol = None
    for _ in range(8):
        branch = phase(t, z, alpha, branch=branch)
        dp = phase_derivative(t, z, alpha)
        if tol is None:
            log_t, log_u = branch.parts
            tol = 1e-15 * (abs(t) + (
                abs(alpha.value) * abs(log_t) + abs(log_u) + abs(goal)
                + (1.0 + abs(z * t)) / abs(1.0 - z * t)) / abs(dp))
        step = (branch.value - goal) / dp
        t -= step
        if abs(t - centre) > radius:
            raise TracingError(f"{what} Newton left its univalence disk",
                               {"t": t, "centre": centre, "radius": radius})
        if abs(step) <= tol:
            return t, branch, tol
    raise TracingError(f"{what} Newton did not converge", {"t": t})


def trace_flow(start: complex, z: complex, alpha: Alpha, heading,
               stop=None,
               initial_branch: BranchTrackedValue | None = None) -> PathTrace:
    """The lift of the phase segment from phi(start) along ``heading``:
    DESCENT or ASCENT for a steepest path, +-1j for a level line.  ``z`` is
    the polynomial parameter of the t-plane phase, 1 for the w-plane one;
    the phase at ``start`` is continued from ``initial_branch`` (principal
    if None), which lets several traces share one sheet.

    From each vertex p the phase moves by s = 0.6 |phi'(p)| r.  On D(p, r),
    |phi''| <= L(r) = |alpha|/(|p| - r)^2 + 1/(|p - 1/z| - r)^2, which
    grows with r; r0 = min(_SPAN rho, |phi'(p)|/(2 L(0))), rho =
    min(|p|, |p - 1/z|), and r = min(r0, |phi'(p)|/(2 L(r0))), so
    L(r) r <= |phi'(p)|/2: phi is one-to-one on D(p, r) (Noshiro-
    Warschawski) and its image contains the disk of radius |phi'(p)| r -
    L r^2/2 >= 0.75 |phi'(p)| r around phi(p).  :func:`_solve` finds the
    one preimage in D(p, r) from p + s/phi' - phi'' s^2/(2 phi'^3).  On
    D(p, r), |phi'(w)| >= |phi'(p)| (1 - |w - p|/(2r)), so the lift of the
    step, a phase move of x |phi'(p)| r from phi(p) with x = |goal -
    phi(p)|/(|phi'(p)| r) (0.6 up to the solve residual at p), stays within
    2r (1 - sqrt(1 - x)) of p.  Widened by the stopping step of the solve
    that placed p, this is the step's reach, and the least |p - t0| - reach
    over the steps, ``min_saddle_distance``, bounds the path's closest
    approach to the saddle t0 from below.

    The trace ends at the first vertex for which ``stop(previous vertex,
    vertex, its phase)`` returns a terminal (:func:`branch_ends` of z if
    None).  A failed solve raises :class:`TracingError`, as does a step
    below the rounding of the segment parameter (a path into the saddle).
    """
    if heading not in (DESCENT, ASCENT, 1j, -1j):
        raise DomainError("trace_flow: heading must be -1, +1, 1j or -1j")
    bp1 = 1.0 / z
    if start == 0 or start == bp1:
        raise DomainError("trace_flow: start lies on a branch point")
    stop = stop or branch_ends(z)
    a = alpha.value
    t_saddle = a / ((a + 1.0) * z)
    br = phase(start, z, alpha, branch=initial_branch)
    phi0 = br.value
    points, phases = [start], [br]
    t, tau, drift, min_saddle = start, 0.0, 0.0, math.inf
    tol = 0.0       # stopping step of the solve that placed t; start is exact
    terminal = None
    while terminal is None:
        dp = phase_derivative(t, z, alpha)
        ad = abs(dp)
        r = _step_radius(t, bp1, alpha, ad)
        s = 0.6 * ad * r
        # s is 0 at the saddle and nan where phi' overflows (t far out)
        if not tau + s > tau:
            raise TracingError("trace_flow: step collapsed", {"t": t})
        tau += s
        goal = phi0 + heading * tau
        x = min(1.0, abs(goal - br.value) / (ad * r))
        reach = 2.0 * r * (1.0 - math.sqrt(1.0 - x)) + tol
        min_saddle = min(min_saddle, abs(t - t_saddle) - reach)
        ds = heading * s
        guess = t + ds / dp - phase_second_derivative(t, z, alpha) * ds * ds / (
            2.0 * dp * dp * dp)
        t, br, tol = _solve(z, alpha, goal, guess, br, t, r)
        points.append(t)
        phases.append(br)
        drift = max(drift, abs(((br.value - phi0) / heading).imag))
        terminal = stop(points[-2], t, br)
    return PathTrace(points=tuple(points), phases=tuple(phases),
                     direction=heading, terminal=terminal,
                     im_phase_drift=drift, min_saddle_distance=min_saddle)


def saddle_directions(z: complex, alpha: Alpha) -> SaddleDirections:
    """Descent and ascent tangent directions at the saddle, from the local
    quadratic model with the numerically evaluated second derivative."""
    if z == 0:
        raise DomainError("saddle_directions: z=0")
    a = alpha.value
    t0 = a / ((a + 1.0) * z)
    beta = cmath.phase(phase_second_derivative(t0, z, alpha))
    d = cmath.exp(1j * (math.pi - beta) / 2.0)
    u = cmath.exp(1j * (-beta) / 2.0)
    return SaddleDirections(descent=(d, -d), ascent=(u, -u))


def capture_radius(alpha: Alpha) -> float:
    """Radius ``r_c`` of the two disks, around w = 0 and w = 1, that the
    w-plane descent flow cannot leave once it has entered them.

    Along dw/ds = -conj(psi')/|psi'| of psi(w) = alpha*log(w) + log(1 - w),
    the distance to a point c changes as d|w - c|^2/ds = -2 Re((w-c) psi')
    / |psi'|.  Here (w-1) psi' = 1 + alpha (w-1)/w has a positive real part
    wherever |w - 1| < r1 = 1/(1+|alpha|), and w psi' = alpha - w/(1-w)
    wherever |w| < r0 = eta/(1+eta).  So a descent path that enters either
    disk moves strictly closer to its centre and ends there.  The saddle
    w0 = alpha/(alpha+1) has |1 - w0| >= r1 and |w0| >= r0, and
    r0 + r1 <= 1, so with r_c = min(r0, r1)/2 the two capture disks are
    disjoint and w0 stays at least r_c away from both, also for a real
    parameter, where |1 - w0| = r1.
    """
    r0 = alpha.eta / (1.0 + alpha.eta)
    r1 = 1.0 / (1.0 + abs(alpha.value))
    return 0.5 * min(r0, r1)


def classify_region(z: complex, alpha: Alpha,
                    boundary_tol: float = 1e-6) -> RegionLabel:
    """Basin label of ``z`` under the w-plane descent flow.

    Descent from ``w = z`` terminating at the branch point 1 means z is in
    the admissible region; terminating at 0 means it is not.  The trace
    stops as soon as a vertex enters one of the two capture disks of
    :func:`capture_radius`, from which the flow provably goes on to that
    disk's centre; a start inside one is labelled without a trace.  A trace
    that reaches the w-plane saddle within ``boundary_tol`` is split along
    both local descent directions: agreement of the two restarts decides
    the label, disagreement reports the boundary.

    The margin is a lower bound on the closest approach of the descent path
    to the saddle w0, a proxy for the distance to the separatrix that
    degrades to 0 on the boundary itself: the smaller of the trace's
    ``min_saddle_distance`` and |c - w0| - |t_last - c|, where c is the
    branch point reached and t_last the last vertex.  The untraced rest of
    the path stays within |t_last - c| of c, because the distance to c keeps
    falling inside the disk.  The margin is at most 2 r_c below the
    ``min_saddle_distance`` of a trace run on to 1e-8 of the branch point.
    """
    if z == 0 or z == 1:
        raise DomainError("classify_region: z on a branch point of the w-plane flow")
    w0 = alpha.saddle_base
    if abs(z - w0) <= boundary_tol:
        return RegionLabel(label=BOUNDARY, margin=0.0)
    r_c = capture_radius(alpha)
    centres = {NOT_IN_E: 0.0, IN_E: 1.0}
    for label, c in centres.items():
        if abs(z - c) <= r_c:
            return RegionLabel(label=label, margin=abs(c - w0) - abs(z - c))
    # no narrower than the branch radius, which r_c is below for tiny eta
    reach = max(r_c, 1e-8)
    stop = branch_ends(1.0, (0.0, reach, NOT_IN_E), (1.0, reach, IN_E),
                       (w0, boundary_tol, SADDLE_REACHED))
    trace = trace_flow(z, 1.0, alpha, DESCENT, stop)
    if trace.terminal in centres:
        c = centres[trace.terminal]
        bound = abs(c - w0) - abs(trace.points[-1] - c)
        return RegionLabel(label=trace.terminal,
                           margin=min(trace.min_saddle_distance, bound))
    if trace.terminal == SADDLE_REACHED:
        labels = []
        for d in saddle_directions(1.0, alpha).descent:
            restart = w0 + 4.0 * max(boundary_tol, 1e-8) * d
            try:
                sub = trace_flow(restart, 1.0, alpha, DESCENT, stop)
            except TracingError:
                continue
            if sub.terminal in (IN_E, NOT_IN_E):
                labels.append(sub.terminal)
        if len(set(labels)) == 1:
            return RegionLabel(label=labels[0], margin=trace.min_saddle_distance)
        return RegionLabel(label=BOUNDARY, margin=0.0)
    raise IndeterminateRegionError(
        f"classify_region: trace ended {trace.terminal} without classification")


def separatrices(alpha: Alpha) -> tuple[PathTrace, PathTrace]:
    """The two ascent traces of the w-plane phase from its saddle.

    Together they form the boundary between the two basins.  Each trace
    starts 1e-7 away from the saddle along an ascent direction of the
    local quadratic model.
    """
    w0 = alpha.saddle_base
    return tuple(trace_flow(w0 + 1e-7 * d, 1.0, alpha, ASCENT)
                 for d in saddle_directions(1.0, alpha).ascent)
