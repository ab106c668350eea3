import cmath
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypzero.errors import DomainError, SingularPointError, TracingError
from hypzero.flows import DESCENT, saddle_directions, trace_flow
from hypzero.kernel import (Alpha, continued_log, phase, phase_derivative,
                            phase_parts, phase_second_derivative,
                            principal_log)
from hypzero.saddle import saddle_point


def test_principal_log_basics():
    assert principal_log(1.0) == 0.0
    assert principal_log(-1.0) == pytest.approx(1j * math.pi)
    assert principal_log(2j) == pytest.approx(math.log(2) + 1j * math.pi / 2)


def test_principal_log_zero_rejected():
    with pytest.raises(DomainError):
        principal_log(0.0)


@given(st.complex_numbers(min_magnitude=1e-6, max_magnitude=1e6,
                          allow_nan=False, allow_infinity=False))
@settings(max_examples=80, deadline=None)
def test_principal_log_conjugation(w):
    # conjugation symmetry holds away from the cut on the negative reals
    if w.imag == 0 and w.real < 0:
        return
    assert principal_log(w.conjugate()) == pytest.approx(
        principal_log(w).conjugate())


def test_alpha_requires_positive_eta():
    with pytest.raises(DomainError):
        Alpha(0.0, 1.0)
    with pytest.raises(DomainError):
        Alpha(-1.0)
    assert Alpha(2.0).is_real_regime
    assert not Alpha(1.0, -1.0).is_real_regime


def test_second_derivative_rejects_a_pole_its_square_underflows_at():
    # eta = 1e-200 puts the saddle t = alpha/(alpha+1) at about 1e-200
    alpha = Alpha(1e-200)
    with pytest.raises(SingularPointError):
        phase_second_derivative(alpha.saddle_base, 1.0, alpha)


@pytest.mark.parametrize("eta,zeta", [(math.inf, 0.0), (math.nan, 1.0),
                                      (1.0, math.inf), (1.0, -math.inf),
                                      (1.0, math.nan)])
def test_alpha_requires_finite_components(eta, zeta):
    with pytest.raises(DomainError, match="eta"):
        Alpha(eta, zeta)


def test_phase_real_positive_arguments():
    val = phase(0.5, 1.0, Alpha(1.0)).value
    assert val == pytest.approx(-2.0 * math.log(2.0))


def test_phase_z_zero_reduces_to_power():
    a = Alpha(1.0, 2.0)
    val = phase(0.5, 0.0, a).value
    assert val == pytest.approx(a.value * cmath.log(0.5))


def test_phase_real_on_unit_interval():
    # with real parameters the phase restricted to (0, 1) is real
    a = Alpha(1.0)
    for k in range(1, 40):
        t = k / 40.0
        v = phase(t, 0.5, a)
        assert abs(v.value.imag) == 0.0
        assert v.value.real == pytest.approx(math.log(t) + math.log(1 - 0.5 * t))


def test_phase_branch_points_rejected():
    a = Alpha(1.0)
    with pytest.raises(SingularPointError):
        phase(0.0, 1.0, a)
    with pytest.raises(SingularPointError):
        phase(0.5, 2.0, a)   # t = 1/z


def test_phase_derivative_examples():
    a = Alpha(1.0)
    assert phase_derivative(0.25, 1.0, a) == pytest.approx(8.0 / 3.0)
    assert phase_derivative(1.0, 0.0, a) == pytest.approx(1.0)
    # saddle point is the unique zero
    ai = Alpha(1.0, 1.0)
    z = 1.2 + 0.4j
    t0 = ai.value / ((ai.value + 1) * z)
    assert abs(phase_derivative(t0, z, ai)) < 1e-14


def test_phase_derivative_pole():
    with pytest.raises(SingularPointError):
        phase_derivative(0.0, 1.0, Alpha(1.0))
    with pytest.raises(SingularPointError):
        phase_derivative(0.5, 2.0, Alpha(1.0))


@given(st.tuples(
    st.floats(min_value=-1.5, max_value=1.5),
    st.floats(min_value=-1.5, max_value=1.5),
    st.floats(min_value=-1.2, max_value=1.6),
    st.floats(min_value=-1.2, max_value=1.2),
    st.floats(min_value=0.3, max_value=2.5),
    st.floats(min_value=-1.5, max_value=1.5)))
@settings(max_examples=100, deadline=None)
def test_phase_derivative_matches_finite_difference(params):
    tr, ti, zr, zi, eta, zeta = params
    t = complex(tr, ti)
    z = complex(zr, zi)
    a = Alpha(eta, zeta)
    if abs(t) < 0.05 or abs(1 - z * t) < 0.05:
        return
    h = 1e-6 * max(abs(t), 1.0)
    base = phase(t, z, a)
    num = ((phase(t + h, z, a, branch=base).value
            - phase(t - h, z, a, branch=base).value) / (2 * h))
    exact = phase_derivative(t, z, a)
    assert num == pytest.approx(exact, rel=1e-6, abs=1e-9)


def test_second_derivative_matches_finite_difference():
    a = Alpha(1.3, -0.7)
    z = 0.9 + 0.4j
    t = 0.6 - 0.2j
    h = 1e-5
    num = (phase_derivative(t + h, z, a) - phase_derivative(t - h, z, a)) / (2 * h)
    assert num == pytest.approx(phase_second_derivative(t, z, a), rel=1e-8)


def test_continued_log_unwinds_full_turn():
    # follow w = exp(i theta) around the origin; the continued imaginary
    # part must track theta past the principal cut
    prev = None
    steps = 100
    for j in range(steps + 1):
        theta = 2.0 * math.pi * j / steps
        prev = continued_log(cmath.exp(1j * theta), prev)
    assert prev.imag == pytest.approx(2.0 * math.pi)


def test_phase_continuation_around_origin():
    a = Alpha(1.0, 1.0)
    z = 0.1 + 0.1j
    br = None
    steps = 200
    r = 0.3
    for j in range(steps + 1):
        theta = 2.0 * math.pi * j / steps
        br = phase(r * cmath.exp(1j * theta), z, a, branch=br)
    start = phase(r, z, a)
    # one positive loop adds 2*pi*i to log t, hence 2*pi*i*alpha to the phase
    assert br.value - start.value == pytest.approx(2j * math.pi * a.value,
                                                   abs=1e-9)
    assert br.parts[0].imag == pytest.approx(2.0 * math.pi)


@functools.cache
def _traced_paths():
    # the paths the split integrals run along: both descent legs from the
    # saddle, and the descent path from t = 1
    paths = []
    for a, z in ((Alpha(1.0), 1.2 + 0.3j), (Alpha(1.0, 1.0), 1.2 + 0.3j),
                 (Alpha(2.0, -1.0), 1.2 - 0.3j)):
        sd = saddle_point(z, a)
        rho = 1e-6 * min(abs(sd.t0), abs(1.0 / z - sd.t0))
        starts = [(sd.t0 + rho * d, sd.log_g_at_t0)
                  for d in saddle_directions(z, a).descent]
        for start, branch in (*starts, (1.0 + 0j, None)):
            paths.append((a, z, trace_flow(start, z, a, DESCENT,
                                           initial_branch=branch)))
    return paths


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_phase_parts_match_the_scalar_phase_on_traced_chords(data):
    a, z, trace = data.draw(st.sampled_from(_traced_paths()))
    i = data.draw(st.integers(0, len(trace.points) - 2))
    j = min(i + data.draw(st.integers(1, 2)), len(trace.points) - 1)
    s = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=1,
                                    max_size=15)))
    t = trace.points[i] + s * (trace.points[j] - trace.points[i])
    anchor = trace.phases[i]
    log_t, log_u = phase_parts(t, z, *anchor.parts)
    for k, tk in enumerate(t):
        ref = phase(complex(tk), z, a, branch=anchor)
        assert abs(a.value * log_t[k] + log_u[k] - ref.value) <= (
            1e-14 * abs(ref.value))
        # each logarithm on the scalar continuation's branch
        for got, want in zip((log_t[k], log_u[k]), ref.parts):
            assert abs(got - want) <= 1e-14 * max(1.0, abs(want))


@pytest.mark.parametrize("center", [0.0, 1.0])
def test_phase_parts_refuse_a_chord_past_a_quarter_turn(center):
    # z = 1 puts the branch points at 0 and 1; each chord runs from
    # center + 1/2 to the point a given turn around the center
    a = Alpha(1.0, 1.0)
    anchor = phase(center + 0.5, 1.0, a)
    s = np.linspace(0.0, 1.0, 15)

    def chord(turn):
        return center + 0.5 + s * 0.5 * (cmath.exp(1j * turn) - 1.0)

    log_t, log_u = phase_parts(chord(0.45 * math.pi), 1.0, *anchor.parts)
    ref = phase(complex(chord(0.45 * math.pi)[-1]), 1.0, a, branch=anchor)
    assert a.value * log_t[-1] + log_u[-1] == pytest.approx(ref.value,
                                                            rel=1e-14)
    with pytest.raises(TracingError):
        phase_parts(chord(0.55 * math.pi), 1.0, *anchor.parts)


def test_phase_parts_reject_a_node_on_a_branch_point():
    anchor = phase(0.25, 2.0, Alpha(1.0))
    with pytest.raises(SingularPointError):
        phase_parts(np.array([0.25, 0.0]), 2.0, *anchor.parts)
    with pytest.raises(SingularPointError):
        phase_parts(np.array([0.25, 0.5]), 2.0, *anchor.parts)   # t = 1/z
