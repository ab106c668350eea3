import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypzero.roots
from hypzero.errors import DomainError
from hypzero.hyperpoly import (coefficients, coefficients_mp,
                               pfaff_coefficients_mp, real_family_coefficients)
from hypzero.kernel import Alpha
from hypzero.roots import (_SOLVE_MARGIN, _aberth, _distinct, _fixed_horner,
                           _inclusion_disks, _pfaff_basis, _scaled_fixed,
                           _to_fixed, find_roots)
from hypzero.verify import ExperimentConfig, emit_report, run_theorem_check

A1 = Alpha(1.0)
AI = Alpha(1.0, 1.0)
A2I = Alpha(2.0, -1.0)

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
    zs = find_roots(coefficients(200, A1))
    assert len(zs.zeros) == 200
    assert max(zs.residuals) <= 1e-10
    assert min(z.real for z in zs.zeros) > 0.5
    # the fixed-point pass runs on until the roots have migrated
    assert zs.iterations["escalations"] == 0


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
    assert a.radii == b.radii
    assert a.residuals == b.residuals


_SOLVE_60 = """
import json
from hypzero.hyperpoly import coefficients
from hypzero.kernel import Alpha
from hypzero.roots import find_roots
print(json.dumps(find_roots(coefficients(60, Alpha(1.0, 1.0))).to_json_dict()))
"""


def test_report_does_not_depend_on_lapack_threads():
    # the start comes from LAPACK, which may split its work over threads:
    # one thread and the library's default must give the same dump
    src = str(Path(hypzero.roots.__file__).parents[1])
    dumps = []
    for threads in ("1", None):
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        if threads:
            env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = threads
        run = subprocess.run([sys.executable, "-c", _SOLVE_60], env=env,
                             capture_output=True, text=True, check=True)
        dumps.append(run.stdout)
    assert dumps[0] == dumps[1] and json.loads(dumps[0])["n"] == 60


def test_serialization():
    zs = find_roots(coefficients(7, AI))
    d = zs.to_json_dict()
    assert d["n"] == 7
    assert len(d["zeros"]) == 7
    json.dumps(d)   # serializable


def test_escalation_recorded_for_large_degree():
    zs = find_roots(coefficients(50, A1))
    # double cannot certify n=50; the solver must have moved to wide mantissas
    assert zs.iterations["bits_solve"] > 53
    assert zs.iterations["max_displacement"] < 0.2 / 50


def test_a_failed_certificate_goes_on_at_doubled_bits(monkeypatch):
    # at 60 bits the pass cannot certify n = 30; the solve doubles them once
    # and certifies the same zeros as at the bits of _pfaff_basis
    p = coefficients(30, AI)
    want = find_roots(p)
    basis = hypzero.roots._pfaff_basis

    def short(p):
        radius, q, _ = basis(p)
        return radius, q, 60

    monkeypatch.setattr(hypzero.roots, "_pfaff_basis", short)
    zs = find_roots(p)
    assert zs.iterations["escalations"] == 1
    assert zs.iterations["bits_solve"] == 120
    assert "sweeps_mp_1" in zs.iterations
    assert max(zs.radii) <= 0.2 / 30
    assert zs.zeros == want.zeros


@pytest.mark.parametrize("n,alpha", [(15, AI), (24, A1)])
def test_residuals_are_the_radius_bound_of_their_own_zero(tmp_path, n, alpha):
    # residuals[i] is rho sum k|c_k|(|z|+rho)^(k-1) / sum |c_k||z|^k at
    # (zeros[i], radii[i]), recomputed here from the exact coefficients,
    # and row i of the emitted zeros_n<N>.csv carries it
    report = run_theorem_check(ExperimentConfig(alpha=alpha, n_list=(n,)))
    emit_report(report, str(tmp_path), ("csv",))
    zs = report.records[0].zeros
    with open(tmp_path / f"zeros_n{n}.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    with mp.workprec(200):
        c = [abs(ck) for ck in coefficients_mp(n, alpha.value)]
        for i, (z, rho) in enumerate(zip(zs.zeros, zs.radii)):
            az, rho = abs(mp.mpc(z)), mp.mpf(rho)
            num = rho * sum(k * c[k] * (az + rho) ** (k - 1) for k in range(1, n + 1))
            want = num / sum(ck * az ** k for k, ck in enumerate(c))
            assert zs.residuals[i] == pytest.approx(float(want), rel=1e-9)
            assert complex(float(rows[i][0]), float(rows[i][1])) == z
            assert float(rows[i][2]) == zs.residuals[i]


def _assert_disks_hold(n, alpha):
    # an oracle independent of the solver: Newton at 8n + 200 bits on the
    # monomial basis from each reported double; the true zero must lie in
    # D(zeros[i], radii[i]) and the true normalized residual at zeros[i]
    # must be at most residuals[i]
    zs = find_roots(coefficients(n, alpha))
    with mp.workprec(8 * n + 200):
        raw = coefficients_mp(n, alpha.value)[::-1]
        mass = [abs(c) for c in raw]
        for z0, rho, resid in zip(zs.zeros, zs.radii, zs.residuals):
            z = mp.mpc(z0)
            for _ in range(8):
                v, dv = mp.polyval(raw, z, derivative=True)
                z -= v / dv
            assert abs(v / dv) < mp.mpf(2) ** (-4 * n - 100)
            assert abs(z - z0) <= rho, (n, alpha, z0)
            true_resid = (abs(mp.polyval(raw, mp.mpc(z0)))
                          / mp.polyval(mass, abs(mp.mpc(z0))))
            assert true_resid <= resid, (n, alpha, z0)


@pytest.mark.parametrize("alpha", [A1, AI, A2I])
def test_each_reported_disk_holds_its_zero(alpha):
    for n in (15, 60):
        _assert_disks_hold(n, alpha)


@given(st.floats(0.05, 5.0), st.floats(-3.0, 3.0), st.integers(1, 20))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_reported_disks_hold_their_zeros_over_a_parameter_box(eta, zeta, n):
    _assert_disks_hold(n, Alpha(eta, zeta))


def _exact_u(p, radius, u0, bits=400):
    # zeros of q(r*u), polished by Newton from u0 far below the solve floor
    with mp.workprec(bits):
        r = mp.mpf(radius)
        d = pfaff_coefficients_mp(p.degree, p.alpha.value, p.b_offset)
        qs = [c * r ** k for k, c in enumerate(d)][::-1]
        out = []
        for u in u0:
            u = mp.mpc(u)
            for _ in range(8):
                v, dv = mp.polyval(qs, u, derivative=True)
                u -= v / dv
            out.append(u)
    return out


def test_inclusion_disks_hold_their_zero_and_refuse_bad_approximations():
    n = 30
    p = coefficients(n, AI)
    radius, _, bits = _pfaff_basis(p)
    fixed = _scaled_fixed(p, radius, bits)
    zs = find_roots(p)
    exact = _exact_u(p, radius, [z / (z - 1) / radius for z in zs.zeros])
    with mp.workprec(400):
        true_z = [radius * v / (radius * v - 1) for v in exact]
    rng = np.random.default_rng(30)
    for shift in (1e-20, 1e-8, 1e-3 / n):
        with mp.workprec(400):
            moved = [v + shift * mp.expjpi(2 * rng.random()) for v in exact]
        radii, disjoint = _inclusion_disks(p, radius, bits, fixed, moved)
        assert disjoint
        with mp.workprec(bits):
            centres = [radius * v / (radius * v - 1) for v in moved]
        for zc, zt, rho in zip(centres, true_z, radii):
            assert abs(zc - zt) <= rho
    # two approximations merged: their disks meet
    merged = list(exact)
    merged[1] = merged[0]
    assert not _inclusion_disks(p, radius, bits, fixed, merged)[1]
    # one approximation moved by 0.5/n: refused by the gates
    far = list(exact)
    far[3] = far[3] + 0.5 / n
    radii, disjoint = _inclusion_disks(p, radius, bits, fixed, far)
    assert not disjoint and radii[3] > 0.2 / n
    # the solve reaches these disks without escalating
    assert find_roots(coefficients(60, AI)).iterations["escalations"] == 0


def test_zeros_agree_with_z_basis_newton_polish():
    n = 40
    zs = find_roots(coefficients(n, AI))
    # an oracle independent of the solver: Newton on the monomial basis, at
    # bits well above what that basis needs at this degree
    with mp.workprec(600):
        raw = coefficients_mp(n, AI.value)
        draw = [raw[k] * k for k in range(1, n + 1)]
        polished = []
        for z0 in zs.zeros:
            z = mp.mpc(z0)
            for _ in range(12):
                z -= mp.polyval(raw[::-1], z) / mp.polyval(draw[::-1], z)
            polished.append(complex(z))
    for z0, z, rho in zip(zs.zeros, polished, zs.radii):
        assert abs(z0 - z) <= 1e-12 * abs(z)
        assert abs(z0 - z) <= rho + 2.0 ** -52 * abs(z0)
    assert _distinct(polished, 1e-3 / n)


def test_fixed_point_pass_from_certified_approximations_ends_at_once():
    # the pass of find_roots at n = 30 from q's companion eigenvalues, then
    # one more fixed-point pass from where it ended: every root leaves in
    # the first sweep
    p = coefficients(30, AI)
    radius, q, bits = _pfaff_basis(p)
    fixed = _scaled_fixed(p, radius, bits)
    tol = 2.0 ** (-_SOLVE_MARGIN // 2)
    with mp.workprec(bits):
        u = np.array([mp.mpc(v) for v in np.roots(q[::-1])], dtype=object)
        u, _ = _aberth(fixed, bits, u, tol)
        again, sweeps = _aberth(fixed, bits, u, tol)
        moved = [float(abs(b - a) / abs(a)) for a, b in zip(u, again)]
    zs = find_roots(p)
    assert zs.iterations["bits_solve"] == bits and zs.iterations["escalations"] == 0
    assert sweeps == 1
    assert max(moved) < tol


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

