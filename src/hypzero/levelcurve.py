"""Tracing the clustering level set and measuring distances to it.

The set ``{z : |z^alpha (1 - z)| = c}`` is the level line ``Re psi = log c``
of psi(w) = alpha log w + log(1 - w); c puts it through the saddle
w0 = alpha/(alpha+1), where four branches meet.  Im psi is monotone along
the line, so each branch is traced as the psi-preimage of a vertical
segment by :func:`~hypzero.flows.trace_flow`, and each closed loop once.
An arc can meet the basin boundary only at the saddle (the real part grows
along the separatrix away from it), so one basin label per arc is well
defined.  The zeros cluster on :attr:`LevelCurve.loop`, the closed InE arc
through w0 around w = 1 (not 0): Im psi grows by 2 pi around it, so the
limiting zero density d(Im psi)/2 pi puts all its mass there.  Distances and
coverage are measured to that loop alone.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, IndeterminateRegionError, SelectionError
from .flows import (BOUNDARY, IN_E, _solve, classify_region,
                    saddle_directions, trace_flow)
from .kernel import Alpha, phase
from .saddle import level_constant


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

    @property
    def loop(self) -> Arc | None:
        """The closed InE arc that does not cross the cut, or None: the one
        curve that distances and coverage are measured to."""
        return next((a for a in self.arcs if a.closed and a.region == IN_E
                     and not a.crossed_cut), None)

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


def _lift_branch(alpha: Alpha, direction: complex, heading: complex,
                 target: float, h: float):
    """One branch of the level line: the lift of psi = target + i y along
    ``heading`` from w0 + h d corrected onto the line.  Near w0,
    |y - Im psi(w0)| grows as |w - w0|^2, so the vertices move away from w0
    and the first one back within h of it closes the branch.  A non-real
    parameter's branch stops before the negative axis (``crossed_cut``),
    where the principal curve ends; a real one's loop around 0 crosses it
    on the same sheet.  A window stops branches open near 0, near 1 (inside
    the disk of :func:`level_free_radius`, which the line never enters) and
    far out.  A failed solve raises :class:`TracingError`, never returning
    an arc cut short.
    """
    w0 = alpha.saddle_base
    blowup = 4.0 * (1.0 + abs(w0))
    pit = 0.04 * abs(w0)
    pit_one = min(pit, 0.5 * level_free_radius(alpha))
    w = w0 + h * direction
    goal = complex(target, phase(w, 1.0, alpha).value.imag)
    w = _solve(1.0, alpha, goal, w, None, w, 0.5 * h, "level-curve")[0]
    crossed = False

    def stop(previous, w, branch):
        nonlocal crossed
        if w.real < 0.0 and previous.imag * w.imag < 0.0:
            crossed = True
            if not alpha.is_real_regime:
                return "cut"
        if abs(w - w0) < h:
            return "closed"
        if abs(w) > blowup or abs(w) < pit or abs(w - 1.0) < pit_one:
            return "window"
        return None

    trace = trace_flow(w, 1.0, alpha, heading, stop)
    points = [w0, *trace.points]
    if trace.terminal == "cut":
        points.pop()
    if trace.terminal == "closed":
        points.append(w0)
    return points, trace.terminal == "closed", crossed


def trace_level_curve(alpha: Alpha, boundary_tol: float = 1e-6) -> LevelCurve:
    """Polyline arcs of the level set through the saddle, each labelled
    with its basin.  A closed arc comes back along the tangent of another
    branch, which is then not lifted, so each loop is traced once."""
    w0 = alpha.saddle_base
    constant = level_constant(alpha)
    # the four tangents d at w0, half way between the ascent and descent
    # directions, each with the heading of Im psi along it: +-1j as
    # Im(psi''(w0) d^2) is +-|psi''(w0)|
    directions = [(u * cmath.exp(s * 0.25j * math.pi), s * 1j)
                  for s in (1.0, -1.0)
                  for u in saddle_directions(1.0, alpha).ascent]
    arcs: list[Arc] = []
    done = set()
    for k, (d, heading) in enumerate(directions):
        if k in done:
            continue
        pts, closed, crossed = _lift_branch(alpha, d, heading,
                                            math.log(constant), 1e-3 * abs(w0))
        if closed:
            done.add(max(range(4), key=lambda j: (
                directions[j][0].conjugate() * (pts[-2] - w0)).real))
        arcs.append(Arc(points=tuple(pts), closed=closed,
                        region=_label_arc(pts, alpha, boundary_tol),
                        crossed_cut=crossed))
    return LevelCurve(constant=constant, arcs=tuple(arcs), crossing_point=w0)


def _label_arc(pts, alpha: Alpha, boundary_tol: float) -> str:
    # the vertices a quarter, a half and three quarters of the way along
    cum = np.cumsum(np.abs(np.diff(np.asarray(pts, dtype=complex))))
    labels = set()
    for i in 1 + np.searchsorted(cum, cum[-1] * np.array([0.25, 0.5, 0.75])):
        try:
            label = classify_region(pts[i], alpha, boundary_tol=boundary_tol).label
        except IndeterminateRegionError:
            continue
        if label != BOUNDARY:
            labels.add(label)
    return labels.pop() if len(labels) == 1 else BOUNDARY


def _project(points, vertices: np.ndarray) -> list[np.ndarray]:
    """Nearest point of a polyline to each point, by segment projection:
    arrays of the distances, the segment indices and the parameters in
    [0, 1] along those segments.  One point at a time: a points-by-segments
    array would cost megabytes on long arcs."""
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
    return [np.array(column) for column in zip(*out)]


def _min_dist_to_polyline(points: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Distance from each point to a polyline via segment projection."""
    return _project(points, vertices)[0]


def _on_loop(points, curve: LevelCurve, caller: str):
    """The points as an array, the vertices of ``curve.loop`` and the
    :func:`_project` of each point onto them."""
    if curve.loop is None:
        raise SelectionError(f"{caller}: no closed InE loop")
    pts = np.asarray(list(points), dtype=complex)
    if pts.size == 0:
        raise SelectionError(f"{caller}: no points")
    vertices = np.asarray(curve.loop.points, dtype=complex)
    return pts, vertices, _project(pts, vertices)


def coverage_gap(points, curve: LevelCurve) -> float:
    """Largest fraction of the loop left unvisited by ``points``.

    Each point is matched to its nearest arclength parameter on the loop;
    the result is the largest parameter gap between consecutive matches,
    wrapping around through w0, normalized by the loop's length.
    Clustering that fills the whole loop drives this to zero.  Raises
    :class:`SelectionError` without a loop or without points.
    """
    _, v, (_, seg, t) = _on_loop(points, curve, "coverage_gap")
    seg_len = np.abs(np.diff(v))
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    params = np.sort(cum[seg] + t * seg_len[seg])
    gap = max(np.diff(params).max(initial=0.0), params[0] + cum[-1] - params[-1])
    return float(gap / cum[-1])


def distance_to_curve(points, curve: LevelCurve):
    """Per-point distance to the loop, with its max and mean.

    Each point z starts at its nearest polyline point x; where that is the
    loop's end, the saddle w0, the distance is exact.  Each round moves
    the other x onto the level set by Newton on F = Re psi - log c along
    grad F = conj psi' (alpha = w0/(1 - w0), principal sheet), then along
    the tangent until z - x is normal, dividing by 1 - kappa s for the
    curvature kappa and the normal offset s of z (exact on a circle).  A
    foot that does not converge raises :class:`AccuracyError`; no loop or
    no points raise :class:`SelectionError`.
    """
    pts, v, (dists, seg, t) = _on_loop(points, curve, "distance_to_curve")
    inner = ~(((seg == 0) & (t == 0.0)) | ((seg == len(v) - 2) & (t == 1.0)))
    seg, t = seg[inner], t[inner]
    z, x = pts[inner], v[seg] + t * (v[seg + 1] - v[seg])
    a = curve.crossing_point / (1.0 - curve.crossing_point)
    log_c = math.log(curve.constant)
    for _ in range(30):
        normal = ((a * np.log(x)).real + np.log(np.abs(1.0 - x)) - log_c) / (
            a / x - 1.0 / (1.0 - x))
        x = x - normal
        dp = a / x - 1.0 / (1.0 - x)
        tangent = 1j * np.conj(dp) / np.abs(dp)
        # curvature of w(y) with psi(w(y)) = log c + i y: w' = i/psi',
        # w'' = psi''/psi'^3
        kappa = ((a / x ** 2 + 1.0 / (1.0 - x) ** 2) / dp ** 2).real * np.abs(dp)
        off = np.conj(tangent) * (z - x)
        slide = tangent * off.real / np.maximum(1.0 - kappa * off.imag, 0.25)
        x = x + slide
        if np.all(np.abs(normal) + np.abs(slide) <= 1e-12 * (1.0 + np.abs(x))):
            dists[inner] = np.abs(z - x)
            return dists, float(np.max(dists)), float(np.mean(dists))
    raise AccuracyError("distance_to_curve: a foot on the level set did not "
                        "converge")
