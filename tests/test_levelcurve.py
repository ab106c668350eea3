import cmath
import math

import numpy as np
import pytest

from hypzero.errors import SelectionError, TracingError
from hypzero.kernel import Alpha
from hypzero import levelcurve
from hypzero.levelcurve import (LevelCurve, _min_dist_to_polyline,
                                distance_to_curve, trace_level_curve)
from hypzero.saddle import level_constant, saddle_point

A1 = Alpha(1.0)


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
    for av in (Alpha(1.0, 1.0), Alpha(2.0, -1.0)):
        lc = trace_level_curve(av)
        good = [a for a in lc.arcs if a.region == "InE" and not a.crossed_cut]
        assert len(good) == 1
        assert good[0].closed
        assert min(p.real for p in good[0].points) > 0.0


def test_branch_open_at_the_step_cap_raises(monkeypatch):
    # for 1+i the refusal before tracing asks for 1,414 steps of 1e-3 |w0|,
    # while the InE loop takes 2,522 vertices and the first NotInE branch
    # 4,605: under a cap of 2,000 steps they are still open, which must not
    # come back as truncated arcs
    a = Alpha(1.0, 1.0)
    resolution = 1e-3 * abs(a.saddle_base)
    assert 2.0 * abs(1.0 - a.saddle_base) / resolution < 2000
    in_e = [arc for arc in trace_level_curve(a).arcs if arc.region == "InE"]
    assert in_e[0].closed and len(in_e[0].points) > 2000
    monkeypatch.setattr(levelcurve, "_MAX_STEPS", 2000)
    with pytest.raises(TracingError, match="still open after 2000 steps"):
        trace_level_curve(a)


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
    d, mx, mean = distance_to_curve(sample, lc, restrict_to_E=True)
    assert mx <= 1e-3 * abs(lc.crossing_point)


def test_distance_matches_bruteforce_vertex_oracle():
    lc = trace_level_curve(A1)
    arcs = [a for a in lc.arcs if a.region == "InE" and not a.crossed_cut]
    verts = np.concatenate([np.asarray(a.points, dtype=complex) for a in arcs])
    pts = [3.0 + 2.0j, 0.2 - 1.5j, 1.0 + 0.05j]
    d, _, _ = distance_to_curve(pts, lc, restrict_to_E=True)
    for i, p in enumerate(pts):
        brute = np.min(np.abs(verts - p))
        assert d[i] <= brute + 1e-12
        assert d[i] >= brute - 1.1e-3 * abs(lc.crossing_point)


def test_distance_empty_selection_raises():
    lc = trace_level_curve(A1)
    only_outer = LevelCurve(constant=lc.constant,
                            arcs=tuple(a for a in lc.arcs
                                       if a.region != "InE"),
                            crossing_point=lc.crossing_point)
    with pytest.raises(SelectionError):
        distance_to_curve([1.0 + 1.0j], only_outer, restrict_to_E=True)
    with pytest.raises(SelectionError):
        distance_to_curve([], lc, restrict_to_E=True)


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
