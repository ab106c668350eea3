"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  Shared expensive runs (degree-50/60 solves with their region
scans) are computed once per session in fixtures.
"""

import math
from fractions import Fraction

import pytest

from hypzero.flows import IN_E, classify_region
from hypzero.hyperpoly import coefficients, coefficients_exact, evaluate
from hypzero.kernel import Alpha
from hypzero.quadrature import (descent_integral, endpoint_integral,
                                euler_integral)
from hypzero.saddle import descent_integral_estimate, level_constant
from hypzero.verify import ExperimentConfig, run_theorem_check

A1 = Alpha(1.0)
AI = Alpha(1.0, 1.0)
A2I = Alpha(2.0, -1.0)


def _report(num: int, label: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {num:02d} {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


# ------------------------------------------------------------------ shared

@pytest.fixture(scope="session")
def realcase_report():
    return run_theorem_check(ExperimentConfig(Alpha(1.0), (10, 50)))


@pytest.fixture(scope="session")
def complex_reports():
    out = {}
    for a in (AI, A2I):
        cfg = ExperimentConfig(alpha=a, n_list=(15, 60))
        out[(a.eta, a.zeta)] = run_theorem_check(cfg)
    return out


# --------------------------------------------------------------- criteria

def test_criterion_01_coefficient_oracle():
    def rising(a, k):
        out = Fraction(1)
        for j in range(k):
            out *= a + j
        return out

    ok = True
    for alpha in (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 2)):
        for n in range(0, 21):
            closed = coefficients_exact(n, alpha)
            for k in range(n + 1):
                raw = (rising(Fraction(-n), k) * rising(alpha * n + 1, k)
                       / (rising(alpha * n + 2, k)
                          * Fraction(math.factorial(k))))
                if closed[k] != raw:
                    ok = False
    _report(1, "coefficient oracle exact (n<=20, 4 parameters)", ok)


def test_criterion_02_integral_identity():
    grid = [complex(re, im)
            for re in (0.3, 0.6, 0.9, 1.2, 1.5)
            for im in (0.1, 0.3, 0.5, 0.7, 0.9)]
    worst = 0.0
    for a in (A1, AI, A2I):
        for n in range(0, 31):
            p = coefficients(n, a)
            pref = a.value * n + 1.0
            for z in grid:
                lhs = euler_integral(n, a, z).value * pref
                rhs = evaluate(p, z, bits=220)
                worst = max(worst, abs(lhs - rhs) / abs(rhs))
    _report(2, "Euler integral matches polynomial (rel 1e-8)",
            worst <= 1e-8, f"worst rel {worst:.2e}")


def test_criterion_03_contour_split():
    triples = []
    z_for = {(1.0, 0.0): 1.2 + 0.3j, (1.0, 1.0): 1.1 + 0.4j,
             (2.0, -1.0): 1.1 - 0.3j, (1.5, 0.5): 1.0 + 0.4j}
    for a in (A1, AI, A2I, Alpha(1.5, 0.5)):
        for n in (8, 10, 12, 14, 16):
            triples.append((n, a, z_for[(a.eta, a.zeta)]))
    assert len(triples) == 20
    ok = True
    worst = 0.0
    for (n, a, z) in triples:
        label = classify_region(z, a)
        assert label.label == IN_E, (a.value, z)
        eu = euler_integral(n, a, z)
        i1 = descent_integral(n, a, z, check_region=False)
        i2 = endpoint_integral(n, a, z, check_region=False)
        diff = abs(eu.value - (i1.value + i2.integral.value))
        budget = (math.exp(eu.abs_error_bound)
                  + math.exp(i1.abs_error_bound)
                  + math.exp(i2.integral.abs_error_bound))
        worst = max(worst, diff / budget)
        ok = ok and diff <= budget
    _report(3, "contour split within summed budgets (20 triples)",
            ok, f"worst diff/budget {worst:.2e}")


def test_criterion_04_saddle_asymptotics():
    points = {(1.0, 0.0): [1.2 + 0.3j, 0.9 - 0.2j, 1.5 + 0.1j,
                           0.8 + 0.5j, 1.1 - 0.4j],
              (1.0, 1.0): [1.2 + 0.3j, 1.1 - 0.2j, 0.9 + 0.3j,
                           1.4 + 0.1j, 1.0 + 0.5j]}
    ok = True
    worst = 0.0
    for a in (A1, AI):
        for z in points[(a.eta, a.zeta)]:
            assert classify_region(z, a).label == IN_E, (a.value, z)
            for n in (20, 40, 80):
                i1 = descent_integral(n, a, z, check_region=False)
                est = descent_integral_estimate(n, z, a)
                ratio = math.exp(i1.log_modulus - est.log_modulus)
                dev = abs(ratio - 1.0) * n
                worst = max(worst, dev)
                ok = ok and abs(ratio - 1.0) <= 6.0 / n
    _report(4, "descent integral within 1 +- 6/n of leading term",
            ok, f"worst n*|ratio-1| {worst:.2f}")


def test_criterion_05_k_growth():
    pts = [0.67 + 0.25j, 0.66 + 0.16j, 0.69 + 0.20j,
           0.65 + 0.29j, 0.70 + 0.35j]
    ok = True
    detail = []
    for z in pts:
        assert classify_region(z, AI).label == IN_E, z
        roots = {n: abs(endpoint_integral(n, AI, z,
                                          check_region=False).k_value)
                 ** (1.0 / n)
                 for n in (50, 100, 200)}
        ok = ok and 0.95 <= roots[100] <= 1.05
        ok = ok and abs(roots[200] - 1.0) < abs(roots[50] - 1.0)
        detail.append(f"{roots[100]:.4f}")
    _report(5, "tail-factor n-th root in [0.95,1.05] at n=100, tightening",
            ok, "n=100 values " + ",".join(detail))


def test_criterion_06_real_crosscheck(realcase_report):
    recs = {r.n: r for r in realcase_report.records}
    ok = (recs[50].max_distance <= 0.05
          and recs[50].max_distance <= 0.5 * recs[10].max_distance)
    _report(6, "real case k=1: zeros of n=50 within 0.05 and half of n=10",
            ok, f"max10 {recs[10].max_distance:.4f} "
                f"max50 {recs[50].max_distance:.4f}")


def test_criterion_07_complex_clustering(complex_reports):
    # The worst zero is the one nearest the node w0 = alpha/(alpha+1), where
    # the saddle meets the endpoint t = 1; it sits at |z - w0| ~ c/sqrt(n),
    # so max distance ~ c n^(-1/2) (1 + b/sqrt(n) + ...), and the sign of b
    # is not fixed by the paper.  Its decay exponent from 15 to 60 is checked
    # in a band of half-width 0.05: that lets sqrt(n)*max drift by about
    # 13-16% between n = 15 and n = infinity, and rejects a faster or slower
    # rate.  The bulk of the zeros converges faster, so the mean must halve.
    ok = True
    details = []
    for key, rep in complex_reports.items():
        recs = {r.n: r for r in rep.records}
        e_max = (math.log(recs[15].max_distance / recs[60].max_distance)
                 / math.log(60 / 15))
        mean_ratio = recs[60].mean_distance / recs[15].mean_distance
        boundary_tol = rep.config.tolerances["boundary"]
        all_in = all(l == IN_E and m > boundary_tol
                     for r in rep.records
                     for l, m in zip(r.labels, r.margins))
        min_margin = min(m for r in rep.records for m in r.margins)
        ok = ok and 0.45 <= e_max <= 0.55 and mean_ratio <= 0.5 and all_in
        details.append(
            f"alpha={key}: max {recs[15].max_distance:.4f}->"
            f"{recs[60].max_distance:.4f} e_max {e_max:.3f}, "
            f"mean {recs[15].mean_distance:.4f}->"
            f"{recs[60].mean_distance:.4f} ratio {mean_ratio:.3f}, "
            f"inE={all_in} min margin {min_margin:.3f}")
    _report(7, "complex case: max distance ~ n^(-1/2) (exponent in "
               "[0.45,0.55]), mean halves 15->60, zeros inside",
            ok, "; ".join(details))


def test_criterion_08_zero_free(realcase_report, complex_reports):
    reports = [realcase_report] + list(complex_reports.values())
    lhp = sum(r.left_halfplane_violations
              for rep in reports for r in rep.records)
    bad_region = sum(r.region_violations
                     for rep in reports for r in rep.records)
    _report(8, "no zeros with Re z <= 0 and none outside the region",
            lhp == 0 and bad_region == 0,
            f"halfplane {lhp}, region {bad_region}")


def test_criterion_09_classifier_vs_real_boundary():
    # near-axis strip: the vertical-line description of the real-parameter
    # boundary is exact on the axis and the strip covers the zero-bearing
    # window; points the classifier puts near the boundary are excluded by
    # the margin filter
    res = [0.03 + j * 0.1 for j in range(20)]
    ims = [s * v for v in (0.01, 0.03, 0.05, 0.07, 0.09) for s in (1, -1)]
    ok = True
    checked = 0
    for k in (1.0, 2.0, 3.0):
        a = Alpha(k)
        b = k / (k + 1.0)
        for re in res:
            for im in ims:
                z = complex(re, im)
                lab = classify_region(z, a)
                if lab.margin <= 1e-3:
                    continue
                checked += 1
                want = IN_E if re > b else "NotInE"
                if lab.label != want:
                    ok = False
    _report(9, "region classifier matches real half-plane rule on strip",
            ok, f"{checked} points with margin > 1e-3")


def test_criterion_10_level_constants():
    e1 = abs(level_constant(A1) - 0.25)
    e2 = abs(level_constant(Alpha(2.0)) - 4.0 / 27.0)
    _report(10, "level constants 1/4 and 4/27 to 1e-12",
            e1 <= 1e-12 and e2 <= 1e-12, f"errors {e1:.1e}, {e2:.1e}")


def test_criterion_11_determinism(complex_reports):
    cfg = ExperimentConfig(alpha=AI, n_list=(15, 60))
    again = run_theorem_check(cfg)
    first = complex_reports[(AI.eta, AI.zeta)]
    _report(11, "re-running the complex case is bit-identical JSON",
            first.to_json() == again.to_json())
