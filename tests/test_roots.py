import json

import mpmath as mp
import numpy as np
import pytest

from hypzero.errors import DomainError, HypzeroError
from hypzero.hyperpoly import (coefficients, coefficients_mp,
                               real_family_coefficients)
from hypzero.kernel import Alpha, Precision
from hypzero.roots import (_certify_bits, _distinct, _fixed_horner, _to_fixed,
                           find_roots)

A1 = Alpha(1.0)
AI = Alpha(1.0, 1.0)

# quadratic-formula roots of 1 - (3/2) z + (3/5) z^2, frozen
N2_ROOT = 1.25 + 0.3227486121839514j


def test_linear_root_closed_form():
    zs = find_roots(coefficients(1, A1))
    assert zs.zeros == (pytest.approx(1.5),)
    # general linear root is (alpha+2)/(alpha+1)
    a = AI
    zs = find_roots(coefficients(1, a))
    want = (a.value + 2) / (a.value + 1)
    assert zs.zeros[0] == pytest.approx(want, rel=1e-13)


def test_quadratic_roots_closed_form():
    zs = find_roots(coefficients(2, A1))
    got = sorted(zs.zeros, key=lambda z: z.imag)
    assert got[0] == pytest.approx(N2_ROOT.conjugate(), rel=1e-12)
    assert got[1] == pytest.approx(N2_ROOT, rel=1e-12)


def test_degree_zero_rejected():
    with pytest.raises(DomainError):
        find_roots(coefficients(0, A1))


@pytest.mark.parametrize("n,alpha", [(10, A1), (25, AI), (40, Alpha(2.0, -1.0)),
                                     (60, A1)])
def test_root_count_and_residuals(n, alpha):
    zs = find_roots(coefficients(n, alpha))
    assert len(zs.zeros) == n
    assert max(zs.residuals) <= 1e-10
    assert all(z != 0 for z in zs.zeros)
    # pairwise distinct
    zl = list(zs.zeros)
    for i in range(n):
        for j in range(i + 1, n):
            assert abs(zl[i] - zl[j]) > 1e-6


@pytest.mark.slow
def test_extended_mode_large_degree():
    # the extended regime handles degree 200
    zs = find_roots(coefficients(200, A1), precision=Precision(bits=160))
    assert len(zs.zeros) == 200
    assert max(zs.residuals) <= 1e-10
    assert min(z.real for z in zs.zeros) > 0.5


def test_conjugation_symmetry_real_parameter():
    for n in (9, 24):
        zs = find_roots(coefficients(n, A1))
        zl = list(zs.zeros)
        for z in zl:
            assert min(abs(z.conjugate() - w) for w in zl) < 1e-9


def test_left_halfplane_exclusion():
    for (n, a) in ((20, A1), (30, AI), (30, Alpha(2.0, -1.0)),
                   (15, Alpha(0.5, 1.0))):
        zs = find_roots(coefficients(n, a))
        assert min(z.real for z in zs.zeros) > 0.0


def test_shifted_family_roots():
    zs = find_roots(real_family_coefficients(20, 1.0, 3.0))
    assert len(zs.zeros) == 20
    assert max(zs.residuals) <= 1e-10


def test_determinism():
    a = find_roots(coefficients(24, AI))
    b = find_roots(coefficients(24, AI))
    assert a.zeros == b.zeros
    assert a.residuals == b.residuals


def test_seed_independence_of_certified_roots():
    # the jitter seed moves the starting circle, not the zeros
    a = find_roots(coefficients(18, AI))
    b = find_roots(coefficients(18, AI), seed=7)
    for za, zb in zip(a.zeros, b.zeros):
        assert abs(za - zb) < 1e-12


def test_serialization():
    zs = find_roots(coefficients(7, AI))
    d = zs.to_json_dict()
    assert d["n"] == 7
    assert len(d["zeros"]) == 7
    json.dumps(d)   # serializable
    csv_text = zs.to_csv()
    lines = csv_text.strip().split("\n")
    assert lines[0] == "re,im,residual"
    assert len(lines) == 8


def test_escalation_recorded_for_large_degree():
    zs = find_roots(coefficients(50, A1))
    # double cannot certify n=50; the solver must have moved to wide mantissas
    assert zs.iterations["bits_solve"] > 53
    assert zs.iterations["max_displacement"] < 0.2 / 50


def test_solve_precision_below_certification_precision():
    # the w-basis solve runs well below the z-basis certification width
    zs = find_roots(coefficients(60, AI))
    assert zs.iterations["bits_solve"] < zs.iterations["bits_certify"]
    assert zs.iterations["escalations"] == 0


def test_zeros_agree_with_z_basis_newton_polish():
    n = 40
    zs = find_roots(coefficients(n, AI))
    with mp.workprec(zs.iterations["bits_certify"]):
        raw = coefficients_mp(n, AI.value)
        draw = [raw[k] * k for k in range(1, n + 1)]
        polished = []
        for z0 in zs.zeros:
            z = mp.mpc(z0)
            for _ in range(12):
                z -= mp.polyval(raw[::-1], z) / mp.polyval(draw[::-1], z)
            polished.append(complex(z))
    for z0, z in zip(zs.zeros, polished):
        assert abs(z0 - z) <= 1e-12 * abs(z)
    assert _distinct(polished, 1e-3 / n)


@pytest.mark.parametrize("bits", [200, 600])
@pytest.mark.parametrize("n", [5, 30, 60])
def test_fixed_horner_matches_polyval(n, bits):
    # the kernel is within (n+1) 2^(2-bits) of the coefficient mass of
    # mpmath's Horner at the same bits, for p and for p'
    rng = np.random.default_rng(n * bits)
    with mp.workprec(bits):
        c = coefficients_mp(n, AI.value)
        fixed = [_to_fixed(v, bits) for v in reversed(c)]
        for r in (0.3, 0.8, 1.0, 1.25, 1.6):
            z = mp.mpc(r * np.exp(1j * rng.uniform(-np.pi, np.pi)))  # exact
            p, dp = mp.polyval(c[::-1], z, derivative=True)
            mass = sum(abs(ck) * abs(z) ** k for k, ck in enumerate(c))
            pr, pm, dr, dm = _fixed_horner(fixed, *_to_fixed(z, bits), bits)
            with mp.workprec(4 * bits):
                unit = mp.mpf(2) ** -bits
                bound = (n + 1) * 4 * unit * mass
                assert abs(mp.mpc(pr, pm) * unit - p) <= bound
                assert abs(mp.mpc(dr, dm) * unit - dp) <= bound


def test_certify_bits_ceiling_raises():
    # degree 900 at alpha = 3 + 0.5i needs more than the 6000-bit ceiling;
    # the error names the bit count and comes before any solve
    p = coefficients(900, Alpha(3.0, 0.5))
    with pytest.raises(HypzeroError, match=r"needs \d+ bits"):
        _certify_bits(p)
    with pytest.raises(HypzeroError, match=r"needs \d+ bits"):
        find_roots(p)
    assert _certify_bits(coefficients(60, A1)) < 6000


def _distinct_pairs(points, min_gap):
    # reference: the plain O(n^2) pair loop
    pts = [complex(z) for z in points]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if abs(pts[i] - pts[j]) < min_gap:
                return False
    return True


def test_distinct_matches_pairwise_loop():
    rng = np.random.default_rng(3)
    for trial in range(40):
        pts = rng.normal(size=12) + 1j * rng.normal(size=12)
        if trial % 2:
            pts[5] = pts[2] + 10.0 ** -rng.integers(1, 6)
        for gap in (1e-4, 1e-2, 0.3):
            assert _distinct(pts, gap) == _distinct_pairs(pts, gap)
    assert _distinct([1.0 + 1.0j], 1.0)


def test_polish_stops_before_the_step_cap(monkeypatch):
    # a Newton step that no longer shrinks by 2^16 sits at the rounding
    # floor, so the polish stops there instead of running all 8 steps
    import hypzero.roots as roots
    kernel = roots._fixed_horner
    bits = []
    monkeypatch.setattr(roots, "_fixed_horner",
                        lambda c, x, y, f: bits.append(f) or kernel(c, x, y, f))
    zs = find_roots(coefficients(30, AI))
    assert zs.iterations["escalations"] == 0
    # the polish is the kernel's only caller at the certification bits;
    # the cap alone costs one evaluation per step and zero
    polish_calls = bits.count(zs.iterations["bits_certify"])
    assert 30 <= polish_calls < 8 * 30
