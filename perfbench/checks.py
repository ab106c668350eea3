"""Output checks applied to every operation of every workload.

Each check returns a list of problems; an empty list means the operation's
outputs are correct.  The checks hold for any seed.  On seed 0 the outputs
are also compared with the stored reference in ``reference/``.
"""

from __future__ import annotations

import cmath
import json
import math
import os

import numpy as np

LABELS = ("InE", "NotInE", "Boundary")
# Relative tolerance of the Vieta identities.  Certified zeros reproduce
# both to about 1e-16; the margin covers the n-fold rounding of a product.
VIETA_RTOL = 1e-12
# Relative distance allowed between a zero and its stored reference.
REFERENCE_RTOL = 1e-12
# Level-curve vertices are corrected to 1e-9 in Re psi; the check allows
# for the rounding of log|z^alpha (1 - z)| near the branch points.
CURVE_TOL = 1e-7


def check_zeros(zeros, residuals, iterations: dict, n: int, b: complex,
                residual_tol: float) -> list[str]:
    """n pairwise distinct certified zeros that satisfy Vieta's identities.

    ``b`` is the constant of the family (alpha*n + 1, or k*n + l + 1 for
    the shifted real family).  Sum and product of the zeros of
    2F1(-n, b; b+1; z) are n(b+n)/(b+n-1) and (b+n)/b.
    """
    out = []
    z = np.asarray(zeros, dtype=complex)
    if len(z) != n:
        return [f"n={n}: {len(z)} zeros returned"]
    if not np.all(np.isfinite(z)):
        return [f"n={n}: non-finite zero"]
    if np.any(z.real <= 0.0):
        # the left half-plane is zero-free (the radial-ascent certificate)
        out.append(f"n={n}: zero with Re z <= 0")
    gap = np.abs(z[:, None] - z[None, :])
    np.fill_diagonal(gap, np.inf)
    if n > 1 and gap.min() < 1e-3 / n:
        out.append(f"n={n}: zeros closer than 1e-3/n ({gap.min():.3g})")
    disp = iterations.get("max_displacement", math.inf)
    if not disp <= 0.2 / n:
        out.append(f"n={n}: max_displacement {disp:.3g} > 0.2/n")
    worst = max(residuals) if len(residuals) else math.inf
    if len(residuals) != n or not worst <= residual_tol:
        out.append(f"n={n}: residual {worst:.3g} > {residual_tol:g}")
    want_sum = n * (b + n) / (b + n - 1)
    got_sum = complex(np.sum(z))
    if abs(got_sum - want_sum) > VIETA_RTOL * max(abs(want_sum), 1.0):
        out.append(f"n={n}: sum of zeros {got_sum:.17g} != {want_sum:.17g}")
    want_prod = (b + n) / b
    got_prod = complex(np.prod(z))
    if abs(got_prod - want_prod) > VIETA_RTOL * abs(want_prod):
        out.append(f"n={n}: product of zeros {got_prod:.17g} "
                   f"!= {want_prod:.17g}")
    return out


def match_reference(zeros, ref_zeros) -> list[str]:
    """Every zero within REFERENCE_RTOL of a distinct reference zero."""
    z = np.asarray(zeros, dtype=complex)
    ref = np.asarray([complex(re, im) for re, im in ref_zeros])
    if len(z) != len(ref):
        return [f"{len(z)} zeros, reference has {len(ref)}"]
    dist = np.abs(ref[:, None] - z[None, :])
    nearest = np.argmin(dist, axis=1)
    rel = dist[np.arange(len(ref)), nearest] / np.abs(ref)
    if len(set(nearest.tolist())) != len(ref):
        return ["zeros do not pair one-to-one with the reference"]
    if rel.max(initial=0.0) > REFERENCE_RTOL:
        return [f"zero differs from reference by {rel.max():.3g} relative"]
    return []


def check_report(out_dir: str, exit_code: int, alpha: complex,
                 n_list, residual_tol: float, ref: dict | None):
    """Checks for one ``hypzero check`` call; returns (problems, zeros, fingerprint).

    ``zeros`` counts the zeros of the records that passed every check.
    ``fingerprint`` maps each degree to its zeros and labels, the data a
    seed-0 reference stores.
    """
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    try:
        with open(os.path.join(out_dir, "report.json")) as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        return problems + [f"report.json unreadable: {exc}"], 0, {}
    if not report.get("passed"):
        problems.append("report not passed")
    certified = 0
    fingerprint = {}
    records = report.get("records", [])
    if [r["n"] for r in records] != list(n_list):
        problems.append("records do not match the degree list")
    for rec in records:
        n = rec["n"]
        rec_problems = [f"n={n}: flag {f}" for f in rec["flags"]]
        zs = rec["zeros"]
        if zs is None:
            problems += rec_problems + [f"n={n}: no zeros"]
            continue
        zeros = [complex(re, im) for re, im in zs["zeros"]]
        rec_problems += check_zeros(zeros, zs["residuals"], zs["iterations"],
                                    n, alpha * n + 1.0, residual_tol)
        labels = rec["labels"]
        if any(lab not in LABELS for lab in labels) or len(labels) != n:
            rec_problems.append(f"n={n}: bad labels")
        rec_problems += _check_tables(out_dir, n)
        fingerprint[str(n)] = {"zeros": zs["zeros"], "labels": labels}
        if ref is not None:
            want = ref.get(str(n), {})
            rec_problems += [f"n={n}: {p}" for p in
                             match_reference(zeros, want.get("zeros", []))]
            if labels != want.get("labels"):
                rec_problems.append(f"n={n}: labels differ from reference")
        if not rec_problems:
            certified += n
        problems += rec_problems
    return problems, certified, fingerprint


def _check_tables(out_dir: str, n: int) -> list[str]:
    """The CSV table has one row per zero and the SVG one circle per zero."""
    try:
        with open(os.path.join(out_dir, f"zeros_n{n}.csv")) as fh:
            rows = fh.read().count("\n")
        with open(os.path.join(out_dir, f"overlay_n{n}.svg")) as fh:
            circles = fh.read().count("<circle ")
    except OSError as exc:
        return [f"n={n}: {exc}"]
    if rows != n + 1 or circles != n:
        return [f"n={n}: csv rows {rows}, svg circles {circles}"]
    return []


def check_label(z: complex, alpha: complex, label: str,
                ref_label: str | None) -> list[str]:
    """A known label; NotInE in the left half-plane for a real parameter.

    For a complex parameter the basin of w = 1 does reach across the
    imaginary axis (tests/test_flows.py freezes -1.2i as InE for 1+i), so
    there the half-plane condition is not a property of correct output.
    """
    if label not in LABELS:
        return [f"z={z:.6g}: label {label!r}"]
    if alpha.imag == 0.0 and z.real <= 0.0 and label != "NotInE":
        return [f"z={z:.6g}: Re z <= 0 labelled {label}"]
    if ref_label is not None and label != ref_label:
        return [f"z={z:.6g}: label {label} != reference {ref_label}"]
    return []


def check_curve(curve, alpha: complex, constant: float) -> list[str]:
    """Principal-sheet admissible arcs lie on |z^alpha (1 - z)| = constant."""
    arcs = [a for a in curve.arcs if a.region == "InE" and not a.crossed_cut]
    if not arcs:
        return ["no admissible arc on the principal sheet"]
    if not math.isclose(curve.constant, constant, rel_tol=1e-12):
        return [f"level constant {curve.constant!r} != {constant!r}"]
    w = np.asarray([p for a in arcs for p in a.points], dtype=complex)
    level = (alpha * np.log(w)).real + np.log(np.abs(1.0 - w))
    worst = float(np.max(np.abs(level - math.log(constant))))
    if not worst <= CURVE_TOL:
        return [f"arc vertex off the level curve by {worst:.3g}"]
    return []


def level_constant(alpha: complex) -> float:
    """|w0^alpha| / |alpha + 1| with w0 = alpha/(alpha + 1), principal log.

    Computed here rather than by ``hypzero.saddle`` so that the curve check
    does not rely on the code it checks.
    """
    w0 = alpha / (alpha + 1.0)
    return math.exp((alpha * cmath.log(w0)).real) / abs(alpha + 1.0)


def check_integrals(n: int, z: complex, descent, endpoint,
                    estimate) -> list[str]:
    """Both contour pieces and the saddle estimate are finite and resolved."""
    out = []
    for name, integral in (("descent", descent), ("endpoint", endpoint)):
        vals = (integral.log_modulus, integral.phase,
                integral.abs_error_bound)
        if not all(math.isfinite(v) for v in vals):
            out.append(f"{name} n={n} z={z:.6g}: non-finite {vals}")
        elif not integral.abs_error_bound < integral.log_modulus:
            out.append(f"{name} n={n} z={z:.6g}: error bound not below value")
    if not math.isfinite(estimate.log_modulus):
        out.append(f"estimate n={n} z={z:.6g}: non-finite")
    return out
