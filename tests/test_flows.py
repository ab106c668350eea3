import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypzero import flows
from hypzero.errors import DomainError
from hypzero.flows import (ASCENT, BOUNDARY, DESCENT, ENDPOINT_0, ENDPOINT_1,
                           ENDPOINT_INFINITY, IN_E, NOT_IN_E, StopRule,
                           capture_radius, classify_region,
                           saddle_directions, separatrices, trace_flow)
from hypzero.kernel import Alpha, phase_derivative
from hypzero.levelcurve import _min_dist_to_polyline

A1 = Alpha(1.0)
AI = Alpha(1.0, 1.0)


def test_real_case_descent_runs_along_axis():
    left = trace_flow(0.5 - 1e-3, 1.0, A1, DESCENT)
    assert left.terminal == ENDPOINT_0
    assert max(abs(p.imag) for p in left.points) < 1e-6
    right = trace_flow(0.5 + 1e-3, 1.0, A1, DESCENT)
    assert right.terminal == ENDPOINT_1
    assert max(abs(p.imag) for p in right.points) < 1e-6


def test_descent_real_part_strictly_decreases():
    tr = trace_flow(0.4 + 0.2j, 1.3 + 0.2j, AI, DESCENT)
    re = [p.value.real for p in tr.phases]
    assert all(b < a for a, b in zip(re, re[1:]))


def test_ascent_reaches_infinity():
    for start in (0.9 + 0.3j, 0.2 - 0.4j, 2.0 + 0.1j):
        tr = trace_flow(start, 1.3 + 0.2j, AI, ASCENT)
        assert tr.terminal == ENDPOINT_INFINITY
        re = [p.value.real for p in tr.phases]
        assert all(b > a for a, b in zip(re, re[1:]))


def test_complex_descent_spirals_into_origin_by_radius():
    stop = StopRule(branch_radius=1e-8)
    tr = trace_flow(0.4 + 0.2j, 1.3 + 0.2j, AI, DESCENT, stop=stop)
    assert tr.terminal == ENDPOINT_0
    assert abs(tr.points[-1]) <= 1e-8
    # winding: the continued argument of t keeps moving on the spiral
    args = [p.parts[0].imag for p in tr.phases]
    assert abs(args[-1] - args[0]) > math.pi
    # branch continuity: no tracked quantity jumps by pi between steps
    for seq in (args, [p.parts[1].imag for p in tr.phases]):
        assert max(abs(b - a) for a, b in zip(seq, seq[1:])) < math.pi


def test_imaginary_phase_pinned_along_traces():
    for (start, z) in ((0.5 - 1e-3, 1.0), (0.4 + 0.2j, 1.3 + 0.2j)):
        tr = trace_flow(start, z, AI, DESCENT)
        assert tr.im_phase_drift <= 1e-9 * (1.0 + tr.arclength)


def test_trace_rejects_branch_point_start():
    with pytest.raises(DomainError):
        trace_flow(0.0, 1.0, A1, DESCENT)
    with pytest.raises(DomainError):
        trace_flow(1.0 + 0j, 1.0, A1, DESCENT)
    with pytest.raises(DomainError):
        trace_flow(0.5, 1.0, A1, "sideways")


def test_saddle_directions_real_case():
    d = saddle_directions(1.0, A1)
    # descent along the real axis, ascent vertical
    assert sorted((round(x.real, 9), round(x.imag, 9)) for x in d.descent) \
        == [(-1.0, 0.0), (1.0, 0.0)]
    assert sorted((round(x.real, 9), round(x.imag, 9)) for x in d.ascent) \
        == [(0.0, -1.0), (0.0, 1.0)]


def test_saddle_directions_structure():
    for (z, a) in ((1.2 + 0.4j, AI), (0.8 - 0.3j, Alpha(2.0, -1.0))):
        d = saddle_directions(z, a)
        assert d.descent[1] == pytest.approx(-d.descent[0])
        assert d.ascent[1] == pytest.approx(-d.ascent[0])
        # orthogonal pairs
        dot = (d.descent[0] * d.ascent[0].conjugate()).real
        assert abs(dot) < 1e-12


def test_descent_legs_reach_both_branch_points_on_grid():
    alphas = [Alpha(1.0), Alpha(2.0), Alpha(1.0, 1.0), Alpha(0.5, 1.0),
              Alpha(2.0, -1.0)]
    for a in alphas:
        for re in np.linspace(0.3, 1.8, 10):
            for im in np.linspace(-0.9, 0.9, 10):
                z = complex(re, im)
                t0 = a.value / ((a.value + 1) * z)
                rho = 1e-6 * min(abs(t0), abs(1 / z - t0))
                terms = set()
                for d in saddle_directions(z, a).descent:
                    tr = trace_flow(t0 + rho * d, z, a, DESCENT)
                    terms.add(tr.terminal)
                assert terms == {ENDPOINT_0, ENDPOINT_1}, (a.value, z)


def test_classify_region_examples():
    assert classify_region(0.9, A1).label == IN_E
    assert classify_region(-0.5 + 0j, A1).label == NOT_IN_E
    assert classify_region(A1.saddle_base, A1).label == BOUNDARY
    assert classify_region(A1.saddle_base, A1).margin == 0.0


def test_classify_region_rejects_branch_points():
    with pytest.raises(DomainError):
        classify_region(0.0, A1)
    with pytest.raises(DomainError):
        classify_region(1.0 + 0j, A1)


@pytest.mark.parametrize("alpha", [A1, AI])
@pytest.mark.parametrize("z, label", [(1 + 1e-9j, IN_E), (1e-9 + 0j, NOT_IN_E),
                                      (1 - 5e-9 + 0j, IN_E)])
def test_classify_region_next_to_branch_points(alpha, z, label):
    # closer to 0 or 1 than a trace may start, yet inside a capture disk
    got = classify_region(z, alpha)
    assert got.label == label
    assert got.margin > 0.0


@given(st.floats(0.05, 4.0), st.floats(-3.0, 3.0),
       st.floats(1e-6, 1.0), st.floats(-math.pi, math.pi))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_capture_disks_trap_the_descent_flow(eta, zeta, rho, theta):
    # d|w - c|^2/ds = -2 Re((w - c) psi') / |psi'| along the descent flow;
    # rho stays off 0, where 1 + u would round to the branch point itself
    a = Alpha(eta, zeta)
    r_c = capture_radius(a)
    u = r_c * rho * cmath.exp(1j * theta)
    near_one = 1.0 + u
    assert ((near_one - 1.0) * phase_derivative(near_one, 1.0, a)).real > 0.0
    assert (u * phase_derivative(u, 1.0, a)).real > 0.0
    w0 = a.saddle_base
    assert 2.0 * r_c < 1.0
    assert abs(w0) > r_c and abs(1.0 - w0) > r_c


@pytest.mark.parametrize("alpha", [A1, AI, Alpha(2.0, -1.0), Alpha(0.2),
                                   Alpha(1.5, -2.0)])
def test_capture_stop_matches_full_trace(alpha):
    # the label of a trace run on to the 1e-8 branch radius, and a margin
    # below its closest approach to w0 by at most twice the capture radius
    slack = 2.0 * capture_radius(alpha)
    for re in np.linspace(-0.5, 2.0, 12):
        for im in np.linspace(-1.2, 1.2, 12):
            z = complex(re, im)
            full = trace_flow(z, 1.0, alpha, DESCENT,
                              StopRule(saddle_radius=1e-6))
            assert full.terminal in (ENDPOINT_0, ENDPOINT_1), (alpha, z)
            got = classify_region(z, alpha)
            want = IN_E if full.terminal == ENDPOINT_1 else NOT_IN_E
            assert got.label == want, (alpha, z)
            old = full.min_saddle_distance
            assert old - slack <= got.margin <= old, (alpha, z)
            assert got.margin >= min(old, slack / 2.0)


def test_classify_region_traces_through_module_attribute(monkeypatch):
    # per-layer timing wraps flows.trace_flow at the module attribute
    starts = []
    original = flows.trace_flow

    def counting(start, *args, **kwargs):
        starts.append(start)
        return original(start, *args, **kwargs)

    monkeypatch.setattr(flows, "trace_flow", counting)
    assert classify_region(-0.5 + 0.3j, AI).label == NOT_IN_E
    assert starts == [-0.5 + 0.3j]


def test_left_halfplane_outside_for_real_parameter():
    # for a real parameter the basin of the origin contains the whole left
    # half-plane; 20-point grid per parameter
    pts = [complex(re, im)
           for re in (-1.5, -0.75, -0.1, 0.0)
           for im in (-1.2, -0.4, 0.3, 0.9, 1.5)]
    for a in (A1, Alpha(2.0), Alpha(3.0)):
        for z in pts:
            if z == 0:
                continue
            assert classify_region(z, a).label == NOT_IN_E, (a.value, z)


def test_left_halfplane_certificate_vs_basin_complex_parameter():
    # with a complex parameter the basin of w = 1 reaches into the left
    # half-plane, so Re z <= 0 does not decide the label: the zero-free
    # claim rests on each zero's inclusion disk instead.  Freeze one
    # verified example of each label so the classifier's geometry stays
    # visible.
    assert classify_region(-1.2j, AI).label == IN_E
    assert classify_region(-0.6j, AI).label == NOT_IN_E


def test_scaling_equivalence_of_flows():
    # the t-plane descent trace, scaled by z, is the w-plane descent trace
    cases = [(AI, 1.3 + 0.2j, 0.4 + 0.2j),
             (Alpha(2.0, -1.0), 0.9 - 0.4j, 0.3 - 0.1j),
             (A1, 1.5 + 0j, 0.45 + 0.25j)]
    for a, z, t_start in cases:
        tr_t = trace_flow(t_start, z, a, DESCENT, corrector_tol=1e-11)
        tr_w = trace_flow(z * t_start, 1.0, a, DESCENT, corrector_tol=1e-11)
        scaled = np.array([p * z for p in tr_t.points])
        other = np.array(tr_w.points)
        h = max(_min_dist_to_polyline(scaled, other).max(),
                _min_dist_to_polyline(other, scaled).max())
        assert h < 1e-6, (a.value, z, h)


def test_separatrices_structure():
    s1, s2 = separatrices(AI)
    assert s1.terminal == ENDPOINT_INFINITY
    assert s2.terminal == ENDPOINT_INFINITY
    # points on the separatrix classify as boundary at matching tolerance
    mid = s1.points[len(s1.points) // 3]
    assert classify_region(mid, AI, boundary_tol=1e-6).label == BOUNDARY


def test_separatrices_real_case_vertical_line():
    # for parameter 1 the basin boundary is exactly the vertical line
    s1, s2 = separatrices(A1)
    for s in (s1, s2):
        assert max(abs(p.real - 0.5) for p in s.points) < 1e-6
    # conjugation symmetry: one goes up, the other down
    tops = sorted(s.points[-1].imag for s in (s1, s2))
    assert tops[0] < -1 and tops[1] > 1


def test_basin_label_matches_unscaled_flow():
    # membership is defined by where the t-plane descent from t=1 ends
    # (Endpoint1 is the branch point 1/z); the classifier computes it in
    # the rescaled w-plane, so the two must agree everywhere off-boundary
    cases = [(A1, 0.9 + 0.2j), (A1, 0.3 - 0.4j), (AI, 1.2 + 0.3j),
             (AI, 0.3 + 0.3j), (Alpha(2.0, -1.0), 1.1 - 0.2j),
             (Alpha(2.0, -1.0), 0.4 + 0.6j), (Alpha(0.5, 1.0), 1.5 + 0.5j)]
    for a, z in cases:
        direct = trace_flow(1.0 + 0j, z, a, DESCENT)
        label = classify_region(z, a)
        want = IN_E if direct.terminal == ENDPOINT_1 else NOT_IN_E
        assert label.label == want, (a.value, z, direct.terminal)


def test_classify_margin_tracks_distance_scale():
    near = classify_region(0.52, A1).margin
    far = classify_region(0.95, A1).margin
    assert near < far
    assert near > 1e-3


def test_path_trace_serialization():
    tr = trace_flow(0.5 + 1e-3, 1.0, A1, DESCENT)
    d = tr.to_json_dict()
    assert d["terminal"] == ENDPOINT_1
    assert d["direction"] == DESCENT
    assert len(d["points"]) == len(tr.points)
    assert isinstance(d["im_phase_drift"], float)
