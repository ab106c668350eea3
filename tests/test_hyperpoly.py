import math
from fractions import Fraction

import mpmath as mp
import pytest

from hypzero.errors import DomainError, HypzeroError
from hypzero.hyperpoly import (coefficients, coefficients_exact,
                               coefficients_mp, evaluate,
                               pfaff_coefficients_mp, real_family_coefficients)
from hypzero.kernel import Alpha, Precision
from hypzero.roots import find_roots


def rising(a: Fraction, k: int) -> Fraction:
    out = Fraction(1)
    for j in range(k):
        out *= a + j
    return out


def series_coefficient(n: int, alpha: Fraction, k: int) -> Fraction:
    """Independent oracle: the raw ratio of rising factorials."""
    num = rising(Fraction(-n), k) * rising(alpha * n + 1, k)
    den = rising(alpha * n + 2, k) * Fraction(math.factorial(k))
    return num / den


def double_coefficients(p) -> list[complex]:
    with mp.workprec(53):
        return [complex(c) for c in
                coefficients_mp(p.degree, p.alpha.value, p.b_offset)]


@pytest.mark.parametrize("alpha", [Fraction(1), Fraction(2), Fraction(1, 2),
                                   Fraction(3, 2)])
def test_closed_form_matches_rising_factorial_oracle(alpha):
    for n in range(0, 21):
        exact = coefficients_exact(n, alpha)
        for k in range(n + 1):
            assert exact[k] == series_coefficient(n, alpha, k)


def test_float_coefficients_match_exact():
    for n in (1, 5, 12, 20):
        for alpha in (Fraction(1), Fraction(3, 2)):
            got_all = double_coefficients(coefficients(n, Alpha(float(alpha))))
            for got, exact in zip(got_all, coefficients_exact(n, alpha)):
                assert got.real == pytest.approx(float(exact), rel=1e-13)
                assert abs(got.imag) < 1e-15 * abs(got.real or 1.0)


def test_small_degree_examples():
    assert double_coefficients(coefficients(0, Alpha(1.0))) == [1.0]

    true1 = double_coefficients(coefficients(1, Alpha(1.0)))
    assert true1[0] == pytest.approx(1.0)
    assert true1[1] == pytest.approx(-2.0 / 3.0)

    true2 = double_coefficients(coefficients(2, Alpha(1.0)))
    assert true2[1] == pytest.approx(-1.5)
    assert true2[2] == pytest.approx(0.6)


def test_constant_term_normalization():
    for n in (0, 3, 17, 40):
        c = double_coefficients(coefficients(n, Alpha(1.0, 1.0)))
        assert c[0] == pytest.approx(1.0)
        assert len(c) == n + 1
        assert c[-1] != 0


def test_evaluate_examples():
    assert evaluate(coefficients(1, Alpha(1.0)), 1.5) == pytest.approx(0.0, abs=1e-15)
    assert evaluate(coefficients(2, Alpha(1.0)), 1.0) == pytest.approx(0.1)
    for n, a in ((5, Alpha(2.0)), (9, Alpha(1.0, 1.0))):
        assert evaluate(coefficients(n, a), 0.0) == pytest.approx(1.0)


def test_extended_evaluation_resolves_double_cancellation():
    # deep inside the zero cluster the double value is pure rounding noise;
    # the rebuilt-coefficient extended value must match an independent
    # high-precision series sum
    n, a, z = 30, Alpha(1.0, 1.0), 0.9 + 0.1j
    p = coefficients(n, a)
    got = evaluate(p, z, Precision(bits=220))
    with mp.workprec(300):
        raw = coefficients_mp(n, a.value)
        want = mp.mpc(0)
        for c in reversed(raw):
            want = want * mp.mpc(z) + c
        want = complex(want)
        mass = float(sum(abs(c) * abs(z) ** k for k, c in enumerate(raw)))
    assert got == pytest.approx(want, rel=1e-12)
    assert abs(want) < 1e-14          # far below double resolution of the mass
    assert mass > 1e4


def test_real_family_matches_main_family_at_zero_shift():
    assert coefficients(12, Alpha(2.0)) == real_family_coefficients(12, 2.0, 0.0)


def test_real_family_shift_oracle():
    # k=1, l=3, n=2: b = 6, coefficients 1, -2*6/7, 6/8
    p = real_family_coefficients(2, 1.0, 3.0)
    true = double_coefficients(p)
    assert true[1] == pytest.approx(-12.0 / 7.0)
    assert true[2] == pytest.approx(6.0 / 8.0)
    assert p.b_offset == 4.0


def test_validation_errors():
    with pytest.raises(DomainError):
        coefficients(-1, Alpha(1.0))
    with pytest.raises(DomainError):
        real_family_coefficients(5, 0.0)
    with pytest.raises(DomainError):
        real_family_coefficients(5, 1.0, -2.0)
    with pytest.raises(DomainError):
        real_family_coefficients(-1, 1.0)


@pytest.mark.parametrize("n,alpha,b_offset", [(12, 1.0 + 1.0j, 1.0),
                                              (25, 2.0 - 1.0j, 1.0),
                                              (20, 1.0, 4.0),
                                              (9, 0.5, 1.75)])
def test_pfaff_identity(n, alpha, b_offset):
    # p(z) = (1-z)^n q(z/(z-1)), DLMF 15.8.1, for the main family and the
    # shifted real family b = k*n + l + 1
    with mp.workprec(256):
        raw = coefficients_mp(n, alpha, b_offset)
        d = pfaff_coefficients_mp(n, alpha, b_offset)
        assert d[0] == 1
        for z in (0.3 + 0.2j, 0.9 - 0.4j, 1.4 + 0.7j, -0.8 + 1.1j, 2.5j):
            zm = mp.mpc(z)
            want = mp.polyval(raw[::-1], zm)
            got = (1 - zm) ** n * mp.polyval(d[::-1], zm / (zm - 1))
            assert abs(got - want) <= mp.mpf(2) ** -200 * abs(want)


def test_coefficients_beyond_double_range_raise():
    # the double Aberth pass overflows from n = 803 (alpha = 1) on, and the
    # w-basis coefficients themselves from n = 1596; the error is the
    # toolkit's own, and no numpy warning escapes
    for n in (803, 1100, 2000):
        with pytest.raises(HypzeroError, match=f"degree {n}"):
            find_roots(coefficients(n, Alpha(1.0)))
