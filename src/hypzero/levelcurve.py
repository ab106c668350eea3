"""Tracing the clustering level set and measuring distances to it.

The set ``{z : |z^alpha (1 - z)| = c}`` with c the level constant is the
level line ``Re psi = log c`` of the w-plane phase, and c is chosen so the
line passes through the saddle w0 = alpha/(alpha+1), where it self-intersects
along four local branches.  Each branch is followed by a tangent predictor
(level lines are orthogonal to the gradient) with a Newton corrector on
``Re psi``; arcs close when they return to the saddle.  Arcs are labelled by
the basin classifier: an arc can meet the basin boundary only at the saddle
itself, since the real part strictly grows along the separatrix away from
it, so one label per arc is well defined.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, IndeterminateRegionError, SelectionError,
                     TracingError)
from .flows import BOUNDARY, classify_region
from .kernel import Alpha, phase, phase_derivative, phase_second_derivative
from .saddle import level_constant

_MAX_STEPS = 400_000    # corrector steps per branch
_CORRECTOR_TOL = 1e-9   # largest |Re psi - log c| at a vertex, beside rounding


@dataclass(frozen=True)
class Arc:
    points: tuple[complex, ...]
    closed: bool
    region: str           # InE | NotInE | Boundary (label of the whole arc)
    crossed_cut: bool     # needed phase continuation across the negative axis


@dataclass(frozen=True)
class LevelCurve:
    constant: float
    arcs: tuple[Arc, ...]
    crossing_point: complex

    def to_json_dict(self) -> dict:
        return {
            "constant": self.constant,
            "crossing_point": [self.crossing_point.real, self.crossing_point.imag],
            "arcs": [{
                "points": [[p.real, p.imag] for p in a.points],
                "closed": a.closed,
                "region": a.region,
                "crossed_cut": a.crossed_cut,
            } for a in self.arcs],
        }


def _branch_directions(alpha: Alpha) -> list[complex]:
    """The four tangents of the level set at its self-intersection."""
    w0 = alpha.saddle_base
    beta = cmath.phase(phase_second_derivative(w0, 1.0, alpha))
    return [cmath.exp(1j * ((s * 0.5 * math.pi - beta) / 2.0 + k * math.pi))
            for s in (1.0, -1.0) for k in (0, 1)]


def level_free_radius(alpha: Alpha) -> float:
    """Radius ``rho1`` of a disk around w = 1 that the level line
    ``Re psi = log c`` of :func:`trace_level_curve` does not enter.

    For w = 1 + rho e^(i theta) with 0 < rho < 1, |w| <= 1 + rho and the
    principal arg w lies within asin(rho) of 0, so

        Re psi(w) = eta log|w| - zeta arg w + log rho
                  <= U(rho) = log rho + eta log(1 + rho) + |zeta| asin(rho).

    U increases strictly from -inf, so Re psi < log c wherever
    |w - 1| < rho1 with U(rho1) = log c.  Bisection keeps the end of its
    bracket where U <= log c, so the radius returned is at most rho1; it is
    1 if U stays below log c on (0, 1).  The bound holds on the principal
    sheet, which a branch of a non-real parameter never leaves (it stops at
    the cut), and a real parameter has zeta = 0.
    """
    target = math.log(level_constant(alpha))
    eta, zeta = alpha.eta, abs(alpha.zeta)
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if math.log(mid) + eta * math.log1p(mid) + zeta * math.asin(mid) <= target:
            lo = mid
        else:
            hi = mid
    return lo if hi < 1.0 else 1.0


def _trace_branch(alpha: Alpha, direction: complex, target: float,
                  resolution: float, corrector_tol: float,
                  max_arclength: float):
    """One branch of the level line from the saddle.

    Closes on return to the saddle.  For a non-real parameter the curve of
    the principal ``z^alpha`` ends on the negative real axis: the branch
    stops at its last vertex before the cut, with ``crossed_cut=True``, as
    beyond it the continued line spirals off the principal sheet.  A real
    parameter's modulus is single-valued, so its loop around 0 crosses the
    axis on the same sheet and closes.  A radius window ends branches that
    run into 0 or 1 or out to infinity with ``closed=False``; the window
    around 1 lies inside the disk of :func:`level_free_radius`, which the
    line never enters.  A branch still open after ``_MAX_STEPS`` steps
    raises :class:`TracingError`.
    """
    w0 = alpha.saddle_base
    blowup = 4.0 * (1.0 + abs(w0))
    pit = 40.0 * resolution
    pit_one = min(pit, 0.5 * level_free_radius(alpha))

    def correct(w, br, h):
        for _ in range(10):
            br = phase(w, 1.0, alpha, branch=br)
            err = br.value.real - target
            dp = phase_derivative(w, 1.0, alpha)
            ad = abs(dp)
            if ad == 0:
                return w, br, err
            cancel = abs(w) / abs(1.0 - w) if w != 1.0 else math.inf
            floor = (1e-14 * (1.0 + abs(br.value.real))
                     + 2e-15 * (1.0 + abs(alpha.value)) * (1.0 + cancel))
            if abs(err) <= corrector_tol + floor:
                return w, br, err
            step = -err / ad
            if abs(step) > h:
                step = math.copysign(h, step)
            w = w + step * dp.conjugate() / ad
        return w, br, err

    w = w0 + 2.0 * resolution * direction
    br = phase(w, 1.0, alpha)
    w, br, _ = correct(w, br, resolution)
    points = [w0, w]
    prev_tangent = direction
    arclength = abs(w - w0)
    crossed_cut = False
    closed = False

    steps = 0
    while arclength < max_arclength:
        steps += 1
        if steps > _MAX_STEPS:
            raise TracingError(f"level-curve branch still open after {_MAX_STEPS} "
                               "steps", {"w": w, "arclength": arclength})
        dp = phase_derivative(w, 1.0, alpha)
        ad = abs(dp)
        if ad == 0:
            raise TracingError("level-curve branch hit a stationary point",
                               {"w": w})
        tangent = 1j * dp.conjugate() / ad
        if (tangent.real * prev_tangent.real
                + tangent.imag * prev_tangent.imag) < 0.0:
            tangent = -tangent
        # limit steps near the saddle node and near the branch points
        h = min(resolution,
                0.5 * abs(w - w0) + 0.25 * resolution,
                0.35 * abs(w) + 0.1 * resolution,
                0.35 * abs(w - 1.0) + 0.1 * resolution)
        w_new = w + h * tangent
        w_new, br_new, err = correct(w_new, br, h)
        if abs(err) > 100.0 * corrector_tol + 1e-10:
            raise TracingError("level-curve corrector diverged",
                               {"w": w, "err": err})
        if w_new.real < 0.0 and w.imag * w_new.imag < 0.0:
            crossed_cut = True
            if not alpha.is_real_regime:
                break
        prev_tangent = w_new - w
        arclength += abs(w_new - w)
        w = w_new
        br = br_new
        points.append(w)
        if arclength > 10.0 * resolution and abs(w - w0) < 1.5 * h:
            points.append(w0)
            closed = True
            break
        if abs(w) > blowup or abs(w) < pit or abs(w - 1.0) < pit_one:
            break
    return points, closed, crossed_cut


def trace_level_curve(alpha: Alpha, boundary_tol: float = 1e-6) -> LevelCurve:
    """Polyline arcs of the level set through the saddle.

    The arclength step is ``1e-3 * |w0|``.  Four branch traces start at the
    self-intersection; traces that traverse the same loop in opposite
    directions are deduplicated, and every surviving arc is labelled with
    its basin.
    """
    w0 = alpha.saddle_base
    resolution = 1e-3 * abs(w0)
    if 2.0 * abs(1.0 - w0) > _MAX_STEPS * resolution:
        raise DomainError(f"trace_level_curve: the InE loop through {w0:.3g} "
                          f"around 1 needs over {_MAX_STEPS} steps of {resolution:.3g}")
    constant = level_constant(alpha)
    target = math.log(constant)
    max_arclength = 40.0 * (1.0 + abs(w0))

    arcs: list[Arc] = []
    for d in _branch_directions(alpha):
        pts, closed, crossed = _trace_branch(alpha, d, target, resolution,
                                             _CORRECTOR_TOL, max_arclength)
        mid = np.array([pts[len(pts) // 2]])
        if not any(_min_dist_to_polyline(mid, np.asarray(a.points, dtype=complex))[0]
                   < 3.0 * resolution for a in arcs):
            arcs.append(Arc(points=tuple(pts), closed=closed,
                            region=_label_arc(pts, alpha, boundary_tol),
                            crossed_cut=crossed))
    return LevelCurve(constant=constant, arcs=tuple(arcs), crossing_point=w0)


def _label_arc(pts, alpha: Alpha, boundary_tol: float) -> str:
    idx = [len(pts) // 4, len(pts) // 2, (3 * len(pts)) // 4]
    labels = []
    for i in idx:
        w = pts[i]
        if w == 0 or w == 1:
            continue
        try:
            lab = classify_region(w, alpha, boundary_tol=boundary_tol)
        except IndeterminateRegionError:
            continue
        if lab.label != BOUNDARY:
            labels.append(lab.label)
    if not labels:
        return BOUNDARY
    if all(l == labels[0] for l in labels):
        return labels[0]
    return BOUNDARY


def _project(points, vertices: np.ndarray) -> list[tuple]:
    """Nearest point of a polyline to each point, by segment projection:
    ``(distance, segment index, parameter in [0, 1] along that segment)``.
    One point at a time: a points-by-segments array would cost megabytes
    on long arcs."""
    a = vertices[:-1]
    ab = np.diff(vertices)
    ab2 = np.abs(ab) ** 2
    ab2 = np.where(ab2 == 0, 1e-300, ab2)
    out = []
    for p in points:
        t = np.clip(((p - a) * np.conj(ab)).real / ab2, 0.0, 1.0)
        d = np.abs(p - (a + t * ab))
        i = int(np.argmin(d))
        out.append((d[i], i, t[i]))
    return out


def _min_dist_to_polyline(points: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Distance from each point to a polyline via segment projection."""
    return np.array([d for d, _, _ in _project(points, vertices)])


def _admissible(points, curve: LevelCurve, caller: str):
    """The points as an array and the admissible-region arcs on the
    principal sheet: an arc inside the region can never reach the negative
    real axis (the left half-plane lies outside it), so arcs that continued
    across the cut are off-sheet artifacts even when individual far-out
    samples of them classify as admissible."""
    arcs = [a for a in curve.arcs if a.region == "InE" and not a.crossed_cut]
    if not arcs:
        raise SelectionError(f"{caller}: no admissible arcs")
    pts = np.asarray(list(points), dtype=complex)
    if pts.size == 0:
        raise SelectionError(f"{caller}: no points")
    return pts, arcs


def coverage_gap(points, curve: LevelCurve) -> float:
    """Largest fraction of the admissible arcs left unvisited by ``points``.

    Each point is matched to its nearest arclength parameter on the selected
    arcs; the result is the largest parameter gap between consecutive
    matches (closed arcs wrap around), normalized by total arc length.
    Clustering that fills the whole arc drives this to zero.
    """
    pts, arcs = _admissible(points, curve, "coverage_gap")
    worst = 0.0
    for arc in arcs:
        verts = np.asarray(arc.points, dtype=complex)
        seg_len = np.abs(np.diff(verts))
        cum = np.concatenate([[0.0], np.cumsum(seg_len)])
        total = cum[-1]
        params = sorted(cum[i] + t * seg_len[i]
                        for _, i, t in _project(pts, verts))
        gaps = np.diff(params)
        if arc.closed:
            wrap = params[0] + total - params[-1]
            gap = max(gaps.max(initial=0.0), wrap)
        else:
            gap = max(gaps.max(initial=0.0), params[0],
                      total - params[-1])
        worst = max(worst, gap / total if total > 0 else 1.0)
    return float(worst)


def distance_to_curve(points, curve: LevelCurve):
    """Per-point distance to the admissible arcs, with its max and mean."""
    pts, arcs = _admissible(points, curve, "distance_to_curve")
    dists = np.full(len(pts), np.inf)
    for arc in arcs:
        arr = np.asarray(arc.points, dtype=complex)
        dists = np.minimum(dists, _min_dist_to_polyline(pts, arr))
    return dists, float(np.max(dists)), float(np.mean(dists))
