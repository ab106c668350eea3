import math

import mpmath as mp
import pytest

from hypzero.errors import DomainError, RegionError
from hypzero.hyperpoly import coefficients, evaluate
from hypzero.kernel import Alpha
from hypzero.quadrature import (_trace_to_inverse, descent_integral,
                                endpoint_integral, euler_integral)
from hypzero.roots import find_roots
from hypzero.saddle import descent_integral_estimate, saddle_point

A1 = Alpha(1.0)
AI = Alpha(1.0, 1.0)
A2I = Alpha(2.0, -1.0)


def test_euler_integral_unit_integrand():
    ci = euler_integral(0, AI, 0.7 + 0.2j)
    assert ci.value == pytest.approx(1.0, rel=1e-12)


def test_euler_integral_linear_case_antiderivative():
    # n=1, alpha=1: the exact value is 1/2 - z/3
    for z in (0.3 + 0.4j, 1.5 + 0j, -0.2 + 0.9j):
        ci = euler_integral(1, A1, z)
        want = 0.5 - z / 3.0
        if want == 0:
            assert math.exp(ci.log_modulus) < 1e-14
        else:
            assert ci.value == pytest.approx(want, rel=1e-12)


def test_euler_integral_real_axis_zero_of_integrand():
    # z real > 1 puts the zero of (1 - z t) inside the interval; for
    # integer n the integrand is a polynomial and the value is still exact
    ci = euler_integral(2, A1, 1.5)
    # int_0^1 t^2 (1 - 1.5 t)^2 dt = 1/3 - 2*1.5/4 + 1.5^2/5
    want = 1.0 / 3.0 - 0.75 + 0.45
    assert ci.value == pytest.approx(want, rel=1e-10)


def test_euler_matches_polynomial_sample():
    for (n, a, z) in ((5, AI, 0.8 + 0.3j), (12, A2I, 1.1 - 0.2j),
                      (30, AI, 0.9 + 0.1j)):
        ci = euler_integral(n, a, z)
        lhs = ci.value * (a.value * n + 1.0)
        rhs = evaluate(coefficients(n, a), z, bits=200)
        assert abs(lhs - rhs) <= abs(rhs) * 1e-10


def test_euler_error_bound_is_honest():
    # compare against a high-precision reference
    n, a, z = 18, A2I, 1.2 + 0.4j
    ci = euler_integral(n, a, z)
    with mp.workprec(200):
        f = lambda t: mp.e ** (mp.mpc(a.value) * n * mp.log(t)
                               + n * mp.log(1 - mp.mpc(z) * t))
        ref = complex(mp.quad(f, [0, 1]))
    assert abs(ci.value - ref) <= math.exp(ci.abs_error_bound)


def test_euler_against_reference_random_sweep():
    # seeded random (n, alpha, z) sweep against a 60-digit reference
    import random
    rng = random.Random(20260808)
    for _ in range(6):
        n = rng.randint(1, 24)
        a = Alpha(rng.uniform(0.4, 2.5), rng.uniform(-1.5, 1.5))
        z = complex(rng.uniform(-0.5, 1.8), rng.uniform(-1.0, 1.0))
        ci = euler_integral(n, a, z)
        with mp.workprec(200):
            f = lambda t: mp.e ** (mp.mpc(a.value) * n * mp.log(t)
                                   + n * mp.log(1 - mp.mpc(z) * t))
            ref = complex(mp.quad(f, [0, 1]))
        assert abs(ci.value - ref) <= math.exp(ci.abs_error_bound) + 1e-30, \
            (n, a.value, z)


def test_descent_integral_real_case_equals_euler():
    # z = 1 puts the whole contour on [0, 1]: the endpoint piece is empty
    n = 10
    eu = euler_integral(n, A1, 1.0)
    i1 = descent_integral(n, A1, 1.0, check_region=False)
    assert i1.value == pytest.approx(eu.value, rel=1e-8)


def test_descent_integral_region_check():
    with pytest.raises(RegionError):
        descent_integral(8, A1, 0.2 + 0.1j)
    with pytest.raises(DomainError):
        descent_integral(0, A1, 1.2)


def test_contour_split_matches_euler():
    cases = [(10, A1, 1.2 + 0.3j), (12, AI, 1.1 + 0.4j),
             (16, A2I, 1.1 - 0.3j)]
    for (n, a, z) in cases:
        eu = euler_integral(n, a, z)
        i1 = descent_integral(n, a, z, check_region=False)
        i2 = endpoint_integral(n, a, z, check_region=False)
        diff = abs(eu.value - (i1.value + i2.integral.value))
        budget = (math.exp(eu.abs_error_bound) + math.exp(i1.abs_error_bound)
                  + math.exp(i2.integral.abs_error_bound))
        assert diff <= budget, (n, a.value, z, diff, budget)


def test_descent_ratio_to_leading_term():
    for (n, a, z) in ((20, A1, 1.2 + 0.3j), (20, AI, 1.1 + 0.4j)):
        i1 = descent_integral(n, a, z, check_region=False)
        est = descent_integral_estimate(n, z, a)
        ratio = math.exp(i1.log_modulus - est.log_modulus)
        assert abs(ratio - 1.0) <= 6.0 / n
    # the all-real configuration at n=20 sits within 1 +- 5/n
    i1 = descent_integral(20, A1, 1.0, check_region=False)
    est = descent_integral_estimate(20, 1.0, A1)
    ratio = math.exp(i1.log_modulus - est.log_modulus)
    assert abs(ratio - 1.0) <= 5.0 / 20.0


def test_descent_nth_root_tends_to_saddle_magnitude():
    a, z = AI, 1.2 + 0.3j
    sd = saddle_point(z, a)
    errs = []
    for n in (10, 40):
        i1 = descent_integral(n, a, z, check_region=False)
        errs.append(abs(i1.log_modulus / n - sd.log_g_at_t0.value.real))
    assert errs[1] < errs[0]


def test_endpoint_path_endpoints():
    for (n, a, z) in ((10, A1, 1.2 + 0.3j), (14, AI, 1.1 + 0.4j)):
        res = endpoint_integral(n, a, z, check_region=False)
        assert res.path[0] == 1.0
        assert abs(res.path[-1] - 1.0 / z) < 1e-4
        assert res.integral.log_modulus == pytest.approx(
            res.endpoint_log_modulus + math.log(abs(res.k_value)))


def test_endpoint_rejects_collapsed_path():
    with pytest.raises(DomainError):
        endpoint_integral(5, A1, 1.0, check_region=False)


@pytest.mark.parametrize("a, z", [(A1, 0.3 + 0.1j), (AI, 0.2 + 0.5j),
                                  (A2I, 0.4 - 0.1j)])
def test_endpoint_refuses_z_outside_region(a, z):
    # outside E the descent from t = 1 ends at the origin, not at 1/z; its
    # integral would be the one over [0, 1], not the endpoint piece
    with pytest.raises(RegionError):
        endpoint_integral(10, a, z, check_region=False)


@pytest.mark.parametrize("a, z", [(A1, 1.2 + 0.3j), (AI, 1.2 + 0.3j),
                                  (A2I, 1.2 - 0.3j)])
def test_endpoint_k_matches_straight_segment_oracle(a, z):
    # K = int_{1/z}^1 g^n dt / (1-z)^n along the straight segment, at 100
    # digits: the segment leaves the descent path, where g^n cancels, so the
    # oracle needs the digits, and 32 and 64 panels must agree
    for n in (10, 40, 160):
        res = endpoint_integral(n, a, z, check_region=False)
        with mp.workdps(100):
            zz, an = mp.mpc(z), mp.mpc(a.value) * n
            f = lambda t: mp.exp(an * mp.log(t)) * ((1 - zz * t) / (1 - zz)) ** n
            refs = [mp.quad(f, [1 / zz + (1 - 1 / zz) * mp.mpf(k) / panels
                                for k in range(panels + 1)],
                            method="gauss-legendre", maxdegree=4)
                    for panels in (32, 64)]
            assert abs(refs[0] - refs[1]) <= 1e-30 * abs(refs[1])
        ref = complex(refs[1])
        assert abs(res.k_value - ref) <= res.k_error, (n, a.value, z)
        assert abs(res.k_value - ref) <= 1e-12 * abs(ref), (n, a.value, z)


def test_junction_branch_consistency():
    a, z = AI, 1.1 + 0.4j
    # the descent contour and the endpoint path from t = 1 meet at 1/z; on
    # the acceptance domain their continued phases sit on the same sheet
    from hypzero.flows import DESCENT, ENDPOINT_1, saddle_directions, trace_flow
    end = _trace_to_inverse(1.0 + 0j, z, a).phases[-1]
    sd = saddle_point(z, a)
    rho = 1e-6 * min(abs(sd.t0), abs(1 / z - sd.t0))
    for d in saddle_directions(z, a).descent:
        tr = trace_flow(sd.t0 + rho * d, z, a, DESCENT,
                        initial_branch=sd.log_g_at_t0)
        if tr.terminal == ENDPOINT_1:
            gap = abs(tr.phases[-1].value.imag - end.value.imag)
            assert gap < math.pi / 2
            break
    else:
        pytest.fail("no descent leg reached 1/z")


def test_split_cancels_at_computed_zero():
    a = AI
    zs = find_roots(coefficients(12, a))
    z = zs.zeros[len(zs.zeros) // 2]
    i1 = descent_integral(12, a, z, check_region=False)
    i2 = endpoint_integral(12, a, z, check_region=False)
    total = abs(i1.value + i2.integral.value)
    budget = (math.exp(i1.abs_error_bound)
              + math.exp(i2.integral.abs_error_bound))
    assert total <= budget
    # at a zero the two pieces have equal magnitude
    assert i1.log_modulus == pytest.approx(i2.integral.log_modulus, abs=1e-8)


# the geometry benchmark's integrals, as the rule evaluating one node at a
# time gave them: (alpha, z, n, descent and endpoint (log|I|, arg I))
_PINNED = [
    ((1.0, 0.0), 1.2 + 0.3j, 10, (-17.510286297049774, -2.6947652943955056),
     (-14.008969988497684, -20.99499050162737)),
    ((1.0, 0.0), 1.2 + 0.3j, 40, (-66.1442825866404, 2.522245426157743),
     (-45.95037757682079, -85.77017950132897)),
    ((1.0, 0.0), 1.2 + 0.3j, 160, (-258.7018585030921, -1.7424529203476073),
     (-169.73778629848334, -344.8289530319751)),
    ((1.0, 1.0), 1.2 + 0.3j, 10, (-17.03172128689691, 1.4587989559192207),
     (-13.894224977049497, -21.18823294027461)),
    ((1.0, 1.0), 1.2 + 0.3j, 40, (-64.27040089537091, 1.1326735621578152),
     (-45.836230133179185, -85.9861569321346)),
    ((1.0, 1.0), 1.2 + 0.3j, 160, (-251.23021160285987, -0.12544928806823424),
     (-169.6243206617485, -345.05086559562125)),
    ((2.0, -1.0), 1.2 - 0.3j, 10, (-23.45626778960668, -1.2082529015397894),
     (-14.094737932261133, 21.27341760192013)),
    ((2.0, -1.0), 1.2 - 0.3j, 40, (-89.13293203085395, -0.003940336911050508),
     (-46.055170825004694, 86.06305682975255)),
    ((2.0, -1.0), 1.2 - 0.3j, 160, (-349.81729873690324, -1.4945829498829675),
     (-169.84764667518868, 345.12521145496925)),
]


@pytest.mark.parametrize("alpha, z, n, descent, endpoint", _PINNED)
def test_split_integrals_keep_their_pinned_values(alpha, z, n, descent,
                                                  endpoint):
    a = Alpha(*alpha)
    got = (descent_integral(n, a, z, check_region=False),
           endpoint_integral(n, a, z, check_region=False).integral)
    for ci, (log_mod, arg) in zip(got, (descent, endpoint)):
        # relative error of the value exp(log_mod + i arg), to first order
        rel = complex(ci.log_modulus - log_mod,
                      math.remainder(ci.phase - arg, 2.0 * math.pi))
        assert abs(rel) <= 1e-12, (n, alpha, z)


# the quadrature's values where arg w0 - arg z leaves (-pi, pi] (3.49 and
# -3.31): there Log t0 - Log w0 = -Log z -+ 2 pi i, and the naive factor
# z^-b is off by 2 pi |zeta| n in log modulus
_OFF_SHEET = [
    ((0.5, 1.0), -1.77 - 0.31j, 10, (15.061428878743552, -2.6997704282919277)),
    ((0.5, 1.0), -1.77 - 0.31j, 40, (64.63389164149805, 0.03651215053661231)),
    ((0.5, -1.0), -1.69 + 0.62j, 10, (16.83312281244563, -2.4962235183218437)),
    ((0.5, -1.0), -1.69 + 0.62j, 40, (71.72600009697061, -2.5056398279621086)),
]


@pytest.mark.parametrize("alpha, z, n, descent", _OFF_SHEET)
def test_descent_closed_form_takes_the_saddle_sheet(alpha, z, n, descent):
    a = Alpha(*alpha)
    got = descent_integral(n, a, z)
    log_mod, arg = descent
    rel = complex(got.log_modulus - log_mod,
                  math.remainder(got.phase - arg, 2.0 * math.pi))
    assert abs(rel) <= 1e-12, (n, alpha, z)
