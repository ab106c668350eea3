"""Simultaneous root finding with certified inclusion disks.

Near the clustering curve ``|p|`` is about ``rho^n`` while the monomial
coefficient mass is about ``C(n, n/2)``: from n = 20 on, the zero annulus
evaluates to rounding noise in double precision.  The zeros are therefore
found and certified in the Pfaff variable ``w = z/(z-1)``, whose
coefficients are bounded: by Aberth-Ehrlich in fixed point, started from the
companion eigenvalues of the scaled w-basis polynomial, and by the
Gerschgorin-form inclusion test of MPSolve (Carstensen 1991): with
Weierstrass corrections ``W_i``, a disk ``D(u_i, n|W_i|)`` that meets no
other holds one zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import mpmath as mp

from .errors import AccuracyError, DomainError
# coefficients_mp is unused here, but perfbench/tracing.py wraps it by this name
from .hyperpoly import Polynomial, coefficients_mp, pfaff_coefficients_mp  # noqa: F401
from .kernel import Alpha

# bits of the w-basis solve beyond its estimated conditioning loss
_SOLVE_MARGIN = 96
_SLACK = 1e-6   # relative slack on the certificate's bounds, far above their rounding
_MAX_SWEEPS = 120    # per Aberth pass


@dataclass(frozen=True)
class ZeroSet:
    """All n zeros of one polynomial plus solve diagnostics."""

    n: int
    alpha: Alpha
    zeros: tuple[complex, ...]
    radii: tuple[float, ...]      # each disk around ``zeros[i]`` holds one zero
    residuals: tuple[float, ...]
    iterations: dict

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "alpha": [self.alpha.eta, self.alpha.zeta],
            "zeros": [[z.real, z.imag] for z in self.zeros],
            "radii": list(self.radii),
            "residuals": list(self.residuals),
            "iterations": self.iterations,
        }


def _to_fixed(c, f: int) -> tuple[int, int]:
    """``c`` as integers ``(re, im)`` with ``f`` fractional bits, truncated."""
    return int(mp.ldexp(c.real, f)), int(mp.ldexp(c.imag, f))


def _fixed_horner(fixed, x: int, y: int, f: int) -> tuple[int, int, int, int]:
    """``p`` and ``p'`` at ``x + iy`` from one Horner pass in binary fixed
    point: integer pairs scaled by ``2^f``, coefficients leading one first.

    Each step truncates its products by less than ``2^-f`` per component, so
    ``p`` is off by at most ``2^(1/2-f) sum_{k<n} |z|^k`` (the coefficients
    taken as exact), ``p'`` by ``n`` times that.
    """
    pr = pm = dr = dm = 0
    for cr, cm in fixed:
        dr, dm = ((dr * x - dm * y) >> f) + pr, ((dr * y + dm * x) >> f) + pm
        pr, pm = ((pr * x - pm * y) >> f) + cr, ((pr * y + pm * x) >> f) + cm
    return pr, pm, dr, dm


def _aberth(fixed, f: int, z: np.ndarray, tol: float) -> tuple[np.ndarray, int]:
    """Jacobi Aberth-Ehrlich sweeps on ``z``, an object array of ``mpc``,
    with ``p/p'`` by :func:`_fixed_horner` on ``fixed`` at ``f`` fractional
    bits.  The repulsion runs in double: it shapes the basins, not the fixed
    points.  A root leaves the sweep once its relative update is below
    ``tol``; the pass ends when none is left, or after ``_MAX_SWEEPS``.
    """
    z = z.copy()
    active = np.arange(len(z))
    for sweeps in range(1, _MAX_SWEEPS + 1):
        zd = z.astype(complex)
        diff = zd[active, None] - zd
        diff[np.arange(len(active)), active] = np.inf
        diff[np.abs(diff) < 1e-250] = 1e-250
        ratio = np.empty(len(active), dtype=object)
        for j, i in enumerate(active):
            pr, pm, dr, dm = _fixed_horner(fixed, *_to_fixed(z[i], f), f)
            ratio[j] = mp.mpc(pr, pm) / (mp.mpc(dr, dm) if dr or dm else mp.mpf(1e-300))
        den = 1 - ratio * np.sum(1.0 / diff, axis=1)
        w = ratio / np.where(den == 0, 1e-300, den)
        moved = (np.abs(w) / (1 + np.abs(z[active]))).astype(float)
        z[active] -= w
        keep = moved >= tol
        if not keep.any():
            break
        active = active[keep]
    return z, sweeps


def _pfaff_basis(p: Polynomial) -> tuple[float, np.ndarray, int]:
    """Radius ``r = |d_0/d_n|^(1/n)``, the coefficients of ``q(r*u)`` in
    double (``|q_0| = |q_n| = 1``, the largest ``|q_k|`` near ``2^(0.64 n)``
    at ``alpha = 1``) and the bits of the w-basis solve: the largest term of
    ``sum_k |q_k| 1.5^k``, on a circle just outside the zeros, exceeds the
    largest root condition number by 1-7 bits at n = 15..120 (about n bits;
    4n in the monomial basis).
    """
    n = p.degree
    k = np.arange(n)
    ratio = (k - n) / (p.alpha.value * n + p.b_offset + 1 + k)
    radius = math.exp(-float(np.mean(np.log(np.abs(ratio)))))
    with np.errstate(over="ignore", invalid="ignore"):
        q = np.cumprod(np.concatenate(([1 + 0j], radius * ratio)))
    if not np.all(np.isfinite(q)):
        raise DomainError(f"find_roots: at degree {n} the w-basis "
                          "coefficients leave the double range")
    peak = np.max(np.log2(np.abs(q)) + np.arange(n + 1) * math.log2(1.5))
    return radius, q, int(peak) + _SOLVE_MARGIN


def _scaled_fixed(p: Polynomial, radius: float, f: int) -> list:
    """Coefficients of ``q(r*u)`` with ``f`` fractional bits, leading first."""
    with mp.workprec(f):
        r = mp.mpf(radius)
        d = pfaff_coefficients_mp(p.degree, p.alpha.value, p.b_offset)
        return [_to_fixed(c * r ** k, f) for k, c in reversed(list(enumerate(d)))]


def _log2_abs(re: int, im: int) -> float:
    return 0.5 * math.log2(re * re + im * im) if re or im else -math.inf


def _inclusion_disks(p: Polynomial, radius: float, f: int, fixed, u):
    """Radii in ``z`` of disks around ``z_i = w_i/(w_i-1)``, ``w_i = r u_i``
    at ``f`` bits, that each hold a zero, and whether they are disjoint.

    ``|W_i|`` is bounded by the :func:`_fixed_horner` value, its error and
    the coefficient truncation (``2^(1/2-f)`` per term each), the rounding
    of :func:`pfaff_coefficients_mp` (``b``, ``b+1+k`` relative to its size,
    a product and a quotient per step, ``r^k`` and the product by it, each
    ``2^(1-f)`` relative) and below by ``prod |u_i - u_j|``.  ``D(w_i, R)``
    maps into ``D(z_i, R / (|w_i-1| (|w_i-1| - R)))`` if ``|w_i-1| > R``.
    """
    n, a = p.degree, p.alpha.value
    k = np.arange(n + 1)
    kappa = ((4 * abs(a) * n + 3 * abs(p.b_offset) + 3 * n + 3)
             / np.min(np.abs(a * n + p.b_offset + 1 + k)) / (1 - _SLACK))
    leta = np.log2(2 * (k * (2.02 + 1.01 * kappa) + 3) * (1 + _SLACK)) - f
    lq = np.logaddexp2([_log2_abs(*c) for c in reversed(fixed)], 0.5) - f
    lerr = np.logaddexp2(leta + lq, 1.5 - f)
    lval = np.array([_log2_abs(*_fixed_horner(fixed, *_to_fixed(v, f), f)[:2])
                     for v in u]) - f
    ud = np.array([complex(v) for v in u])
    lu = np.log2(np.abs(ud) * (1 + _SLACK))
    lnum = np.logaddexp2(lval, np.logaddexp2.reduce(lerr + k * lu[:, None], axis=1))
    llead = _log2_abs(*fixed[0]) - f     # |Q_n| = 1 to 2^-90: in the slack
    off = ~np.eye(n, dtype=bool)
    gap = np.abs(ud[:, None] - ud) - 2.0 ** -49 * (np.abs(ud[:, None]) + np.abs(ud))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lprod = np.sum(np.log2(np.where(off, np.maximum(gap, 0.0), 1.0)), axis=1)
        rho = np.exp2(math.log2(n * (1 + _SLACK)) + lnum - llead - lprod)
        w = radius * ud
        c = np.abs(w - 1) - 2.0 ** -49 * (np.abs(w) + 1)
        big = radius * rho
        disk = np.where(c > big, big / (c * (c - big)) * (1 + _SLACK), np.inf)
        rounding = np.ldexp((np.abs(w) + radius) / c ** 2 + 3 * np.abs(w) / c, 1 - f)
    disjoint = bool(np.all((gap > rho[:, None] + rho) | ~off))
    return np.maximum(disk + rounding, 5e-324), disjoint    # never rounds to 0


def _residual_bounds(p: Polynomial, zeros, radii) -> np.ndarray:
    """``|p(z)| / sum |c_k| |z|^k`` bounded through the zero within ``rho``
    of ``z`` by ``rho sum k |c_k| (|z| + rho)^(k-1)``: positive terms, so
    summed in log scale, with ``log |c_k|`` from the ratio
    ``c_{k+1}/c_k = (k-n)/(k+1) (b+k)/(b+k+1)`` and ``c_0 = 1``."""
    n = p.degree
    k = np.arange(n + 1)
    bk = np.abs(p.alpha.value * n + p.b_offset + k)
    ratio = (n - k[:-1]) / k[1:] * bk[:-1] / bk[1:]
    az, rho = np.abs(np.asarray(zeros))[:, None], radii[:, None]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lc = np.concatenate(([0.0], np.cumsum(np.log(ratio))))
        num = np.log(k[1:]) + lc[1:] + (k[1:] - 1) * np.log(az + rho)
        den = lc + k * np.log(az)
        top = den.max(axis=1, keepdims=True)
        return radii * np.exp(num - top).sum(axis=1) / np.exp(den - top).sum(axis=1)


def find_roots(p: Polynomial, residual_tol: float = 1e-10) -> ZeroSet:
    """All ``n`` zeros of ``p``, each certified in a disk of radius
    ``radii[i]``: one Aberth pass in fixed point at the bits of
    :func:`_pfaff_basis` to ``2^-(margin/2)``, which puts a root at the
    ``2^-margin`` floor, from the eigenvalues of the companion matrix of q,
    backward-stable roots in double (Edelman & Murakami 1995).  The disks
    must be disjoint with radii of at most ``0.2/n``, the zeros ``1e-3/n``
    apart and the residual bounds at most ``residual_tol``; else the solve
    goes on at doubled bits, up to three times.  Deterministic for a given
    input.  Raises :class:`DomainError` where q leaves the double range
    (from n = 1596 for ``alpha = 1``).
    """
    n = p.degree
    if n == 0:
        raise DomainError("find_roots: degree-0 polynomial has no roots")
    radius, q, bits = _pfaff_basis(p)
    current = np.roots(q[::-1])
    diag: dict = {"escalations": 0}
    for attempt in range(4):
        fixed = _scaled_fixed(p, radius, bits)
        with mp.workprec(bits):
            u = np.array([mp.mpc(v) for v in current], dtype=object)
            current, sweeps_mp = _aberth(fixed, bits, u,
                                         2.0 ** (-_SOLVE_MARGIN // 2))
            zeros = [complex(radius * v / (radius * v - 1)) for v in current]
        diag[f"sweeps_mp_{attempt}" if attempt else "sweeps_mp"] = sweeps_mp
        diag["bits_solve"] = bits
        radii, disjoint = _inclusion_disks(p, radius, bits, fixed, current)
        # the disks are certified around the f-bit centres: widen each by the
        # rounding of its centre to double, at most 2^-53 (|Re z| + |Im z|)
        # for |z| far above the subnormals, doubled to cover the rounding of
        # this sum and stepped up past the last one
        radii = np.nextafter(radii + 2.0 ** -52 * (np.abs(np.real(zeros))
                                                   + np.abs(np.imag(zeros))), np.inf)
        resid = _residual_bounds(p, zeros, radii)
        distinct = _distinct(zeros, 1e-3 / n)
        diag["max_displacement"] = float(np.max(radii))
        diag["max_residual"] = float(np.max(resid))
        if (disjoint and distinct and diag["max_displacement"] <= 0.2 / n
                and diag["max_residual"] <= residual_tol):
            rows = sorted(zip(zeros, radii.tolist(), resid.tolist()), key=lambda
                          t: (round(t[0].real, 12), round(t[0].imag, 12)))
            zeros, radii, resid = map(tuple, zip(*rows))
            return ZeroSet(n=n, alpha=p.alpha, zeros=zeros, radii=radii,
                           residuals=resid, iterations=diag)
        diag["escalations"] = attempt + 1
        bits *= 2
    raise AccuracyError("find_roots: certification failed after escalation",
                        achieved={"max_residual": diag["max_residual"],
                                  "max_displacement": diag["max_displacement"],
                                  "disjoint": disjoint, "distinct": distinct})


def _distinct(points, min_gap: float) -> bool:
    pts = np.array([complex(z) for z in points])
    gap = np.abs(pts[:, None] - pts[None, :])
    np.fill_diagonal(gap, np.inf)
    return not np.any(gap < min_gap)

