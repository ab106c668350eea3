"""Simultaneous root finding with certified displacement and residuals.

Near the clustering curve ``|p|`` is about ``rho^n`` while the monomial
coefficient mass is about ``C(n, n/2)``: from n = 20 on, the zero annulus
evaluates to rounding noise in double precision.  The zeros are therefore
found in the Pfaff variable ``w = z/(z-1)``, whose coefficients are bounded
(Aberth-Ehrlich in double, then at the bits the w-basis dynamic range asks
for), and certified in ``z`` by a Newton polish at the precision the
monomial range ``mass / rho_min^n`` asks for: the polish displacement bounds
the solver error in the root metric, which residuals cannot see.  Past
double precision both evaluate through one fixed-point Horner kernel.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np
import mpmath as mp

from .errors import AccuracyError, DomainError
from .hyperpoly import Polynomial, coefficients_mp, pfaff_coefficients_mp
from .kernel import Alpha, DOUBLE, Precision
from .saddle import level_constant

_JITTER_SEED = 0x5EED
# bits of the w-basis solve beyond its estimated conditioning loss
_SOLVE_MARGIN = 96
_MAX_BITS = 6000


@dataclass(frozen=True)
class ZeroSet:
    """All n zeros of one polynomial plus solve diagnostics."""

    n: int
    alpha: Alpha
    zeros: tuple[complex, ...]
    residuals: tuple[float, ...]
    iterations: dict

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "alpha": [self.alpha.eta, self.alpha.zeta],
            "zeros": [[z.real, z.imag] for z in self.zeros],
            "residuals": list(self.residuals),
            "iterations": self.iterations,
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["re", "im", "residual"])
        for z, r in zip(self.zeros, self.residuals):
            w.writerow([repr(z.real), repr(z.imag), repr(r)])
        return buf.getvalue()


def _initial_circle(coeffs: np.ndarray, seed: int) -> np.ndarray:
    n = len(coeffs) - 1
    radius = 1.1 * (np.max(np.abs(coeffs)) / abs(coeffs[-1])) ** (1.0 / n)
    rng = np.random.default_rng(seed)
    jitter = (rng.random(n) - 0.5) * (0.6 * math.pi / n)
    angles = 2.0 * math.pi * np.arange(n) / n + math.pi / (2.0 * n) + jitter
    return radius * np.exp(1j * angles)


def _aberth_double(coeffs: np.ndarray, init: np.ndarray,
                   max_sweeps: int = 400) -> tuple[np.ndarray, int]:
    """Jacobi-style Aberth-Ehrlich sweeps in double precision.

    Stops on the relative-update tolerance or when the updates stagnate at
    the conditioning floor (they cannot shrink below roundoff-in-the-mass).
    """
    n = len(coeffs) - 1
    desc, ddesc = coeffs[::-1], (coeffs[1:] * np.arange(1, n + 1))[::-1]
    z = init.copy()
    best, stale = math.inf, 0
    for sweeps in range(1, max_sweeps + 1):
        pv = np.polyval(desc, z)
        dv = np.polyval(ddesc, z)
        newton = pv / np.where(dv == 0, 1e-300, dv)
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        repulse = np.sum(1.0 / diff, axis=1)
        denom = 1.0 - newton * repulse
        w = newton / np.where(denom == 0, 1e-300, denom)
        z = z - w
        wmax = float(np.max(np.abs(w) / (1.0 + np.abs(z))))
        if wmax < 5e-15:
            break
        if wmax < 0.7 * best:
            best, stale = wmax, 0
        else:
            stale += 1
            if stale >= 25:
                break
    return z, sweeps


def _to_fixed(c, f: int) -> tuple[int, int]:
    """``c`` as integers ``(re, im)`` with ``f`` fractional bits, truncated."""
    return int(mp.ldexp(c.real, f)), int(mp.ldexp(c.imag, f))


def _fixed_horner(fixed, x: int, y: int, f: int) -> tuple[int, int, int, int]:
    """``p`` and ``p'`` at ``x + iy`` from one Horner pass in binary fixed
    point: integer pairs scaled by ``2^f``, coefficients leading one first.

    Each step truncates its products by less than ``2^-f`` per component, so
    ``p`` is off by at most ``(n+1) 2^(1/2-f) max(1,|z|)^n`` (the
    coefficients taken as exact), ``p'`` by ``n`` times that.  With
    ``c_0 = 1`` and ``|c_n| = |b/(b+n)|`` the mass ``sum |c_k| |z|^k`` is at
    least ``max(1, |c_n| |z|^n)``, so the error is within about ``n 2^-f`` of
    the mass, the order of mpmath's rounding at ``f`` bits.
    """
    pr = pm = dr = dm = 0
    for cr, cm in fixed:
        dr, dm = ((dr * x - dm * y) >> f) + pr, ((dr * y + dm * x) >> f) + pm
        pr, pm = ((pr * x - pm * y) >> f) + cr, ((pr * y + pm * x) >> f) + cm
    return pr, pm, dr, dm


def _aberth_mp(coeffs_mp, init, max_sweeps: int = 120) -> tuple[list, int]:
    """Aberth-Ehrlich sweeps at the ambient mpmath precision, evaluating by
    :func:`_fixed_horner` with that many fractional bits.  The repulsion
    runs in double precision: it shapes the basins, not the fixed points.  A
    root stops once its relative update is below ``2^-(margin/2)``, which
    puts it at the ``2^-margin`` floor.
    """
    f = mp.mp.prec
    fixed = [_to_fixed(c, f) for c in reversed(coeffs_mp)]
    z = [mp.mpc(v) for v in init]
    tol = 2.0 ** (-_SOLVE_MARGIN // 2)
    active = range(len(coeffs_mp) - 1)
    best, stale = math.inf, 0
    for sweeps in range(1, max_sweeps + 1):
        zd = np.array([complex(zi) for zi in z])
        diff = zd[active, None] - zd[None, :]
        diff[np.arange(len(active)), active] = np.inf
        diff[np.abs(diff) < 1e-250] = 1e-250
        moved = []
        for i, rep in zip(active, np.sum(1.0 / diff, axis=1)):
            pr, pm, dr, dm = _fixed_horner(fixed, *_to_fixed(z[i], f), f)
            newton = mp.mpc(pr, pm) / (mp.mpc(dr, dm) if dr or dm else mp.mpf(1e-300))
            den = 1 - newton * mp.mpc(rep)
            w = newton / (den if den != 0 else mp.mpf(1e-300))
            moved.append(float(abs(w) / (1 + abs(z[i]))))
            z[i] -= w
        active = [i for i, m in zip(active, moved) if m >= tol]
        if not active:
            break
        if max(moved) < 0.5 * best:
            best, stale = max(moved), 0
        else:
            stale += 1
            if stale >= 4 and max(moved) < 1e-8:
                break
    return z, sweeps


def _certify_bits(p: Polynomial) -> int:
    """Working precision that resolves the zero annulus of ``p``.

    The polynomial dips to about ``rho^n`` near its zeros while the
    coefficient mass at the root radius is exponentially larger; the bit
    count covers that gap with margin.
    """
    n = p.degree
    radius = 1.3 * (max(abs(c) for c in p.coeffs) / abs(p.coeffs[-1])) ** (1.0 / n)
    log_mass = p.scale + max(
        math.log(abs(c) + 1e-300) + k * math.log(radius) for k, c in enumerate(p.coeffs))
    rho_min = 0.25 * level_constant(p.alpha)
    bits = int((log_mass - n * math.log(rho_min)) / math.log(2.0)) + 80
    if bits > _MAX_BITS:
        raise DomainError(f"find_roots: certifying degree {n} needs {bits} "
                          f"bits, above the {_MAX_BITS}-bit ceiling")
    return max(bits, 120)


def _polish_and_measure(p: Polynomial, approx, bits: int):
    """Newton-polish each approximation; report displacements and residuals
    ``|p(z)| / sum |c_k| |z|^k``, all by :func:`_fixed_horner` with ``bits``
    fractional bits: one pass per step, one for ``p(z)``, one for the mass.
    """
    with mp.workprec(bits):
        raw = coefficients_mp(p.degree, p.alpha.value, p.b_offset)
        fixed = [_to_fixed(c, bits) for c in reversed(raw)]
        mods = [(int(mp.ldexp(abs(c), bits)), 0) for c in reversed(raw)]
        start = [_to_fixed(z0, bits) for z0 in approx]
    one = 1 << bits
    polished, displacement, residuals = [], [], []
    for x0, y0 in start:
        x, y, floor = x0, y0, math.inf
        for _ in range(8):
            pr, pm, dr, dm = _fixed_horner(fixed, x, y, bits)
            den = dr * dr + dm * dm
            if den == 0:
                break
            sr = ((pr * dr + pm * dm) << bits) // den
            sm = ((pm * dr - pr * dm) << bits) // den
            x, y = x - sr, y - sm
            step = math.isqrt(sr * sr + sm * sm)
            # converged, or stalled at the rounding floor of the mass:
            # a Newton step that has not shrunk by 2^16 is noise
            if (step < (one + math.isqrt(x * x + y * y)) >> (bits - 16)
                    or step > floor):
                break
            floor = step >> 16
        pr, pm, _, _ = _fixed_horner(fixed, x, y, bits)
        mass = _fixed_horner(mods, math.isqrt(x * x + y * y), 0, bits)[0]
        polished.append(complex(x / one, y / one))
        displacement.append(math.isqrt((x - x0) ** 2 + (y - y0) ** 2) / one)
        residuals.append(math.hypot(pr / mass, pm / mass))
    return polished, displacement, residuals


def _pfaff_basis(p: Polynomial) -> tuple[float, np.ndarray, int]:
    """Radius ``r = |d_0/d_n|^(1/n)``, the coefficients of ``q(r*u)`` in
    double (``|q_0| = |q_n| = 1``: nothing under- or overflows) and the bits
    of the w-basis solve: the largest term of ``sum_k |q_k| 1.5^k``, on a
    circle just outside the zeros, exceeds the largest root condition number
    by 1-7 bits at n = 15..120 (about n bits; 4n in the monomial basis).
    """
    n = p.degree
    k = np.arange(n)
    ratio = (k - n) / (p.alpha.value * n + p.b_offset + 1 + k)
    radius = math.exp(-float(np.mean(np.log(np.abs(ratio)))))
    q = np.cumprod(np.concatenate(([1 + 0j], radius * ratio)))
    peak = np.max(np.log2(np.abs(q)) + np.arange(n + 1) * math.log2(1.5))
    return radius, q, int(peak) + _SOLVE_MARGIN


def find_roots(p: Polynomial, precision: Precision = DOUBLE,
               residual_tol: float = 1e-10, seed: int = _JITTER_SEED) -> ZeroSet:
    """All ``n`` zeros of ``p`` with certified residuals.

    Solved in ``w = z/(z-1)`` and certified in ``z`` at no less than
    ``precision`` plus 64 bits.  The solve escalates to doubled bits when the
    certification shows misplaced roots (large polish displacement, merged
    roots) or residuals above ``residual_tol``.  Fixed seed and sweep order
    make the result deterministic for a given input.
    """
    n = p.degree
    if n == 0:
        raise DomainError("find_roots: degree-0 polynomial has no roots")
    bits_cert = max(_certify_bits(p), precision.bits) + 64
    radius, q, solve_bits = _pfaff_basis(p)
    current, sweeps_double = _aberth_double(q, _initial_circle(q, seed))
    diag: dict = {"sweeps_double": sweeps_double, "escalations": 0}
    attempt = 0
    while True:
        with mp.workprec(solve_bits):
            r = mp.mpf(radius)
            d = pfaff_coefficients_mp(n, p.alpha.value, p.b_offset)
            current, sweeps_mp = _aberth_mp([c * r ** k for k, c in enumerate(d)],
                                            current)
            approx = [r * u / (r * u - 1) for u in current]
        diag[f"sweeps_mp_{attempt}" if attempt else "sweeps_mp"] = sweeps_mp
        diag["bits_solve"] = solve_bits
        diag["bits_certify"] = bits_cert
        polished, disp, resid = _polish_and_measure(p, approx, bits_cert)
        pairwise_ok = _distinct(polished, 1e-3 / n)
        disp_ok = max(disp) <= 0.2 / n
        resid_ok = max(resid) <= residual_tol
        if pairwise_ok and disp_ok and resid_ok:
            diag["max_displacement"] = max(disp)
            diag["max_residual"] = max(resid)
            return ZeroSet(n=n, alpha=p.alpha, zeros=_sorted_zeros(polished),
                           residuals=tuple(resid), iterations=diag)
        attempt += 1
        diag["escalations"] = attempt
        if attempt > 3:
            raise AccuracyError(
                "find_roots: certification failed after escalation",
                achieved={"max_residual": max(resid),
                          "max_displacement": max(disp),
                          "distinct": pairwise_ok})
        solve_bits *= 2
        bits_cert = 2 * bits_cert - 64   # twice the need, same 64-bit headroom


def _distinct(points, min_gap: float) -> bool:
    pts = np.array([complex(z) for z in points])
    gap = np.abs(pts[:, None] - pts[None, :])
    np.fill_diagonal(gap, np.inf)
    return not np.any(gap < min_gap)


def _sorted_zeros(zeros):
    return tuple(sorted(zeros, key=lambda z: (round(z.real, 12), round(z.imag, 12))))
