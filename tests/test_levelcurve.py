import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypzero.errors import HypzeroError, SelectionError
from hypzero.kernel import Alpha
from hypzero.levelcurve import (LevelCurve, _min_dist_to_polyline,
                                distance_to_curve, level_free_radius,
                                trace_level_curve)
from hypzero.saddle import level_constant, saddle_point
from hypzero.verify import ExperimentConfig, run_theorem_check

A1 = Alpha(1.0)
# parameters whose InE loop passes within 40 steps (0.04 |w0|) of w = 1
LARGE = [(8.0, 0.0), (8.0, 2.0), (12.0, 0.0), (20.0, -5.0), (2.0, 8.0),
         (1.0, 12.0)]


def modulus_at(alpha: Alpha, w: complex) -> float:
    return abs(cmath.exp(alpha.value * cmath.log(w)) * (1 - w))


def test_real_lemniscate_structure():
    lc = trace_level_curve(A1)
    assert lc.constant == pytest.approx(0.25)
    assert lc.crossing_point == pytest.approx(0.5)
    in_e = [a for a in lc.arcs if a.region == "InE"]
    assert len(in_e) == 1
    loop = in_e[0]
    assert loop.closed and not loop.crossed_cut
    # the admissible loop lies right of the node and surrounds 1; its
    # rightmost point on the axis solves x(x-1) = 1/4
    xs = [p.real for p in loop.points]
    assert min(xs) >= 0.5 - 1e-9
    assert max(xs) == pytest.approx((1 + math.sqrt(2)) / 2, abs=1e-3)


def test_second_parameter_constant_and_node():
    lc = trace_level_curve(Alpha(2.0))
    assert lc.constant == pytest.approx(4.0 / 27.0, abs=1e-12)
    assert lc.crossing_point == pytest.approx(2.0 / 3.0)


def test_vertex_residuals_meet_corrector_tolerance():
    for a in (A1, Alpha(1.0, 1.0), Alpha(2.0, -1.0)):
        lc = trace_level_curve(a)
        for arc in lc.arcs:
            if arc.crossed_cut:
                continue
            rel = [abs(modulus_at(a, p) - lc.constant) / lc.constant
                   for p in arc.points if p != 0]
            assert max(rel) < 2e-9, a.value


@pytest.mark.parametrize("av", [(1.0, 0.0), (2.0, 0.0), (1.0, 1.0),
                                (2.0, -1.0), (0.5, 1.0), (3.0, 0.5),
                                (1.5, -2.0)])
def test_every_vertex_on_the_principal_level_curve(av):
    # arcs that reach the cut end there, so every vertex, crossed_cut arcs
    # included, lies on the curve of the principal power
    a = Alpha(*av)
    lc = trace_level_curve(a)
    for arc in lc.arcs:
        rel = [abs(modulus_at(a, p) - lc.constant) / lc.constant
               for p in arc.points if p != 0]
        assert max(rel) < 2e-9, (av, arc.region, arc.crossed_cut)


def test_conjugation_symmetry_real_parameter():
    lc = trace_level_curve(A1)
    for arc in lc.arcs:
        pts = np.asarray(arc.points, dtype=complex)
        conj = np.conj(pts)
        d = _min_dist_to_polyline(conj, pts)
        assert d.max() < 2e-3


def test_complex_parameters_have_closed_admissible_loop():
    for av in (Alpha(1.0, 1.0), Alpha(2.0, -1.0), *(Alpha(*p) for p in LARGE)):
        lc = trace_level_curve(av)
        good = [a for a in lc.arcs if a.region == "InE" and not a.crossed_cut]
        assert len(good) == 1
        assert good[0].closed
        assert min(p.real for p in good[0].points) > 0.0


@pytest.mark.parametrize("av", LARGE)
def test_level_free_radius_against_circles_around_one(av):
    # Re psi - log c over 4096 points of each circle |w - 1| = rho: below 0
    # on every circle inside rho1, and reaching 0 within 10% outside it
    a = Alpha(*av)
    rho1 = level_free_radius(a)
    theta = np.linspace(-math.pi, math.pi, 4096, endpoint=False)

    def highest(rho):
        w = 1.0 + rho * np.exp(1j * theta)
        return float(np.max((a.value * np.log(w) + np.log(1.0 - w)).real))

    target = math.log(level_constant(a))
    assert all(highest(rho1 * k / 256) < target for k in range(1, 256))
    assert any(highest(rho1 * (1.0 + k / 256)) >= target for k in range(26))


@given(st.floats(0.01, 5.0), st.floats(-3.0, 3.0))
@example(0.01, 0.0)
@example(0.02, 0.0)
@example(0.1, 0.0)
@example(0.01, 0.01)
@settings(max_examples=25, deadline=3000, derandomize=True)
def test_one_closed_ine_loop_or_a_named_error(eta, zeta):
    # the InE loop around 1 closes also for small parameters, where it is
    # hundreds of |w0| long; a lift that cannot close it raises instead of
    # returning it cut short
    try:
        lc = trace_level_curve(Alpha(eta, zeta))
    except HypzeroError:
        return
    loops = [a for a in lc.arcs
             if a.region == "InE" and a.closed and not a.crossed_cut]
    assert len(loops) == 1


@pytest.mark.parametrize("av, regions", [
    ((1.0, 0.0), ["InE", "NotInE"]),
    ((1.0, 1.0), ["NotInE", "InE", "NotInE"]),
    ((2.0, -1.0), ["InE", "NotInE", "NotInE"])])
def test_each_loop_is_traced_once(av, regions):
    # a closed arc returns to w0 along another branch, which is not traced
    # again: no two arcs share a vertex but w0
    lc = trace_level_curve(Alpha(*av))
    assert [a.region for a in lc.arcs] == regions
    seen = set()
    for arc in lc.arcs:
        own = set(arc.points) - {lc.crossing_point}
        assert not own & seen
        seen |= own


def test_saddle_identity_on_admissible_arc():
    # every point of the curve satisfies |g(t0(z)) z^alpha| = constant
    for av in (A1, Alpha(1.0, 1.0)):
        lc = trace_level_curve(av)
        arc = [a for a in lc.arcs if a.region == "InE" and not a.crossed_cut][0]
        step = max(1, len(arc.points) // 5)
        for p in arc.points[1:-1:step]:
            sd = saddle_point(p, av)
            val = abs(cmath.exp(sd.log_g_at_t0.value
                                + av.value * cmath.log(p)))
            assert val == pytest.approx(level_constant(av), rel=1e-8)


def test_distance_self_points():
    lc = trace_level_curve(A1)
    arc = [a for a in lc.arcs if a.region == "InE"][0]
    sample = list(arc.points[:: max(1, len(arc.points) // 37)])
    d, mx, mean = distance_to_curve(sample, lc)
    assert mx <= 1e-3 * abs(lc.crossing_point)


def test_distance_matches_dense_ray_oracle():
    # the InE loop of alpha = 1, |w (1 - w)| = 1/4 around 1, is star-shaped
    # around 1: bisect its radius on 20,000 rays w = 1 + rho e^(i theta),
    # below the first maximum of |w (1 - w)| on rays close to w0 = 1/2
    theta = -math.pi + 2.0 * math.pi * (np.arange(20_000) + 0.5) / 20_000
    c = np.cos(theta)
    disc = 9.0 * c * c - 8.0
    hi = np.where((disc >= 0) & (c < 0),
                  (-3.0 * c - np.sqrt(np.maximum(disc, 0.0))) / 4.0, 2.0)
    lo = np.zeros_like(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        w = 1.0 + mid * np.exp(1j * theta)
        inside = np.abs(w * (1.0 - w)) < 0.25
        lo, hi = np.where(inside, mid, lo), np.where(inside, hi, mid)
    ring = 1.0 + lo * np.exp(1j * theta)
    ring = np.append(ring, ring[0])
    pts = np.array([3.0 + 2.0j, 0.2 - 1.5j, 1.0 + 0.05j, 1.2 + 0.5j,
                    0.6 + 0.3j, 0.55 - 0.02j, 1.9 + 0.01j, 1.0 - 0.7j])
    d, _, _ = distance_to_curve(pts, trace_level_curve(A1))
    oracle = _min_dist_to_polyline(pts, ring)
    assert np.abs(d - oracle).max() <= 1e-6


def test_distance_empty_selection_raises():
    lc = trace_level_curve(A1)
    only_outer = LevelCurve(constant=lc.constant,
                            arcs=tuple(a for a in lc.arcs
                                       if a.region != "InE"),
                            crossing_point=lc.crossing_point)
    with pytest.raises(SelectionError):
        distance_to_curve([1.0 + 1.0j], only_outer)
    with pytest.raises(SelectionError):
        distance_to_curve([], lc)


def test_coverage_gap_fills_with_degree():
    from hypzero.hyperpoly import coefficients
    from hypzero.levelcurve import coverage_gap
    from hypzero.roots import find_roots
    lc = trace_level_curve(A1)
    gaps = {}
    for n in (10, 50):
        zs = find_roots(coefficients(n, A1))
        gaps[n] = coverage_gap(zs.zeros, lc)
    assert gaps[50] < gaps[10]
    assert gaps[50] < 0.2
    # a single point leaves almost the whole closed arc uncovered
    assert coverage_gap([1.2 + 0.0j], lc) > 0.9
    with pytest.raises(SelectionError):
        coverage_gap([], lc)


def test_serialization_shape():
    lc = trace_level_curve(Alpha(1.0, 1.0))
    d = lc.to_json_dict()
    assert set(d) == {"constant", "crossing_point", "arcs"}
    assert all(set(a) == {"points", "closed", "region", "crossed_cut"}
               for a in d["arcs"])


@pytest.mark.parametrize("av", [(0.159, 1.329), (0.4784, -2.8299)])
def test_an_open_ine_arc_leaves_the_loop_as_the_curve(av):
    # the zeros cluster on the closed InE loop alone (Im psi grows by 2 pi
    # around it); an open InE arc beside it is not measured to, so the
    # coverage gap closes with n as it does for the standard parameters
    rep = run_theorem_check(ExperimentConfig(Alpha(*av), (15, 60)))
    assert rep.passed
    assert any(a.region == "InE" and not a.closed and not a.crossed_cut
               for a in rep.curve.arcs)
    gaps = [rec.coverage_gap for rec in rep.records]
    assert gaps[0] < 0.5 and gaps[1] < gaps[0]
    loop_only = dataclasses.replace(rep.curve, arcs=(rep.curve.loop,))
    for rec in rep.records:
        dists, _, _ = distance_to_curve(rec.zeros.zeros, loop_only)
        assert list(rec.distances) == dists.tolist()
