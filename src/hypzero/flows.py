"""Steepest ascent/descent tracing and the basin partition.

The gradient of the real part of an analytic phase is the conjugate of its
derivative, so steepest paths solve the unit-speed flow

    dt/ds = +- conj(phase'(t)) / |phase'(t)|,

and are simultaneously level lines of the imaginary part of the phase.  The
tracer below integrates the flow with an embedded Heun predictor and then
projects each point back onto the level line with a Newton corrector, which
keeps the tracked imaginary phase pinned to its initial value instead of
letting the predictor drift near the logarithmic spiral at the origin.

Two phase functions are traced: the t-plane phase with parameter z, and the
w-plane phase obtained by the rescaling w = z*t, which is the same function
with parameter 1.  The basin partition of the w-plane flow decides region
membership: a point belongs to the admissible region exactly when its
descent trace terminates at the branch point w = 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import (DomainError, IndeterminateRegionError, TracingError)
from .kernel import (Alpha, BranchTrackedValue, phase, phase_derivative,
                     phase_second_derivative)

ASCENT = "ascent"
DESCENT = "descent"

ENDPOINT_0 = "Endpoint0"
ENDPOINT_1 = "Endpoint1"
ENDPOINT_INFINITY = "EndpointInfinity"
SADDLE_REACHED = "SaddleReached"
TRUNCATED = "Truncated"

IN_E = "InE"
NOT_IN_E = "NotInE"
BOUNDARY = "Boundary"

_MAX_STEPS = 400_000        # accepted and rejected steps per trace
_MAX_ARCLENGTH = 400.0


@dataclass(frozen=True)
class StopRule:
    """Termination bundle for a single trace.

    ``branch_radius`` stops the trace near each branch point; with a complex
    parameter the descent path winds around the origin on a logarithmic
    spiral with infinite winding number, so the radius rule (not a step
    budget) must be what fires there.  Every trace also ends at
    ``|t| >= 10 (1 + |1/z|)``, after an arclength of ``_MAX_ARCLENGTH`` or
    after ``_MAX_STEPS`` steps.

    ``capture_radius`` widens only the terminal test at each branch point:
    a vertex that comes that close ends the trace there.  It is meant for a
    disk the flow provably cannot leave (see :func:`capture_radius`), so
    it stays out of the step-size scale, the start check and everything
    else, and the vertices up to the stop are those of a trace without it.
    """

    branch_radius: float = 1e-8
    capture_radius: float = 0.0
    saddle_radius: float | None = None


@dataclass(frozen=True)
class PathTrace:
    points: tuple[complex, ...]
    phases: tuple[BranchTrackedValue, ...]
    direction: str
    terminal: str
    arclength: float
    im_phase_drift: float
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


def _flow_sign(direction: str) -> float:
    if direction == ASCENT:
        return 1.0
    if direction == DESCENT:
        return -1.0
    raise DomainError(f"direction must be {ASCENT!r} or {DESCENT!r}")


def trace_flow(start: complex, z: complex, alpha: Alpha, direction: str,
               stop: StopRule = StopRule(), corrector_tol: float = 1e-9,
               initial_branch: BranchTrackedValue | None = None) -> PathTrace:
    """Trace the steepest path of the phase through ``start``.

    ``z`` selects the phase function: the t-plane phase for the polynomial
    parameter z, or the w-plane phase when ``z == 1``.  The phase at the
    start point is continued from ``initial_branch`` when given (principal
    otherwise), which lets several traces share one sheet.  The trace stops
    with a terminal label from the stop rule; corrector failure raises
    :class:`TracingError` with the last accepted state attached.
    """
    sign = _flow_sign(direction)
    bp1 = 1.0 / z
    a = alpha.value
    t_saddle = a / ((a + 1.0) * z)
    inf_radius = 10.0 * (1.0 + abs(bp1))

    if abs(start) <= stop.branch_radius or abs(start - bp1) <= stop.branch_radius:
        raise DomainError("trace_flow: start lies on a branch point")
    end_radius = max(stop.branch_radius, stop.capture_radius)

    def local_scale(t: complex) -> float:
        # shrink steps near the branch points and near the saddle hairpin
        return min(abs(t), abs(t - bp1),
                   abs(t - t_saddle) + 4.0 * stop.branch_radius)

    def unit_field(t: complex) -> complex:
        d = phase_derivative(t, z, alpha)
        ad = abs(d)
        if ad == 0.0:
            raise TracingError("trace_flow: stationary point hit exactly",
                               {"t": t})
        return sign * d.conjugate() / ad

    br = phase(start, z, alpha, branch=initial_branch)
    target_im = br.value.imag
    points = [start]
    phases = [br]
    t = start
    arclength = 0.0
    drift = 0.0
    min_saddle = abs(start - t_saddle)

    h = 0.05 * local_scale(start)
    h_floor = 1e-14 * (1.0 + abs(start))
    terminal = None
    steps = 0

    while terminal is None:
        steps += 1
        if steps > _MAX_STEPS:
            terminal = TRUNCATED
            break
        h = min(h, 0.2 * local_scale(t))
        if h < h_floor:
            raise TracingError("trace_flow: step size collapsed",
                               {"t": t, "h": h, "arclength": arclength})

        # embedded Heun predictor: accept only smooth direction changes
        k1 = unit_field(t)
        k2 = unit_field(t + h * k1)
        turn = abs(k2 - k1)
        if turn > 0.25:
            h *= 0.5
            continue
        t_new = t + 0.5 * h * (k1 + k2)

        # Newton corrector back onto the level line of the imaginary phase
        ok = False
        br_new = br
        for _ in range(8):
            br_new = phase(t_new, z, alpha, branch=br)
            err = br_new.value.imag - target_im
            # rounding floor: the phase is O(log|t|) near the branch points,
            # and forming 1 - z*t loses digits to cancellation near t = 1/z
            u = 1.0 - z * t_new
            cancel = abs(z * t_new) / abs(u) if u != 0 else math.inf
            floor = (1e-14 * (1.0 + abs(br_new.value.real) + abs(target_im))
                     + 2e-15 * (1.0 + abs(alpha.value)) * (1.0 + cancel))
            if abs(err) <= corrector_tol * min(1.0, h) + floor:
                ok = True
                break
            d = phase_derivative(t_new, z, alpha)
            ad2 = abs(d) ** 2
            if ad2 == 0.0:
                break
            delta = -err * 1j * d.conjugate() / ad2
            cap = 0.5 * h + 0.1 * local_scale(t_new)
            if abs(delta) > cap:
                delta *= cap / abs(delta)
            t_new = t_new + delta
        if not ok:
            h *= 0.5
            continue

        # strict monotonicity of the real part along the accepted polyline
        d_re = br_new.value.real - br.value.real
        if sign * d_re <= 0.0:
            h *= 0.5
            continue

        step_len = abs(t_new - t)
        arclength += step_len
        t = t_new
        br = br_new
        points.append(t)
        phases.append(br)
        drift = max(drift, abs(br.value.imag - target_im))
        min_saddle = min(min_saddle, abs(t - t_saddle))

        if abs(t) <= end_radius:
            terminal = ENDPOINT_0
        elif abs(t - bp1) <= end_radius:
            terminal = ENDPOINT_1
        elif abs(t) >= inf_radius:
            terminal = ENDPOINT_INFINITY
        elif (stop.saddle_radius is not None
              and abs(t - t_saddle) <= stop.saddle_radius):
            terminal = SADDLE_REACHED
        elif arclength >= _MAX_ARCLENGTH:
            terminal = TRUNCATED

        if turn < 0.05:
            h *= 1.5

    return PathTrace(points=tuple(points), phases=tuple(phases),
                     direction=direction, terminal=terminal,
                     arclength=arclength, im_phase_drift=drift,
                     min_saddle_distance=min_saddle)


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
    degrades to 0 on the boundary itself: the smaller of the traced
    vertices' closest approach and |c - w0| - |t_last - c|, where c is the
    branch point reached and t_last the last vertex.  The untraced rest of
    the path stays within |t_last - c| of c, because the distance to c keeps
    falling inside the disk.  The bound is at most 2 r_c below the closest
    approach of a trace run on to ``branch_radius``.
    """
    if z == 0 or z == 1:
        raise DomainError("classify_region: z on a branch point of the w-plane flow")
    w0 = alpha.saddle_base
    if abs(z - w0) <= boundary_tol:
        return RegionLabel(label=BOUNDARY, margin=0.0)
    r_c = capture_radius(alpha)
    for c, label in ((0.0, NOT_IN_E), (1.0, IN_E)):
        if abs(z - c) <= r_c:
            return RegionLabel(label=label, margin=abs(c - w0) - abs(z - c))
    rule = StopRule(saddle_radius=boundary_tol, capture_radius=r_c)
    trace = trace_flow(z, 1.0, alpha, DESCENT, stop=rule)
    if trace.terminal in (ENDPOINT_0, ENDPOINT_1):
        c, label = ((1.0, IN_E) if trace.terminal == ENDPOINT_1
                    else (0.0, NOT_IN_E))
        bound = abs(c - w0) - abs(trace.points[-1] - c)
        return RegionLabel(label=label,
                           margin=min(trace.min_saddle_distance, bound))
    if trace.terminal == SADDLE_REACHED:
        labels = []
        for d in saddle_directions(1.0, alpha).descent:
            restart = w0 + 4.0 * max(boundary_tol, rule.branch_radius) * d
            try:
                sub = trace_flow(restart, 1.0, alpha, DESCENT, stop=rule)
            except TracingError:
                continue
            if sub.terminal == ENDPOINT_1:
                labels.append(IN_E)
            elif sub.terminal == ENDPOINT_0:
                labels.append(NOT_IN_E)
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
    dirs = saddle_directions(1.0, alpha).ascent
    out = []
    for d in dirs:
        out.append(trace_flow(w0 + 1e-7 * d, 1.0, alpha, ASCENT))
    return out[0], out[1]
