"""The three benchmark workloads, their seeded inputs and their passes.

A pass runs every input of a workload once, in a fixed order, from one
client in a closed loop: each call starts after the previous one returned.
``pass_s`` is the median program time of one pass at the first baseline
(2-core x86_64, Python 3.11, pure-Python mpmath); a run of ``--seconds`` makes
``seconds // pass_s`` passes, at least one, so both sides of a comparison do
the same work whatever their speed.
Seed 0 gives exactly the named inputs.  Any other seed moves each parameter
and sample point inside a small box around its named value, so a claim can
be re-checked on inputs nobody tuned on; the program only ever sees the
generated values.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field

import hypzero.cli as cli
import hypzero.hyperpoly as hyperpoly
import hypzero.levelcurve as levelcurve
import hypzero.quadrature as quadrature
import hypzero.roots as roots
import hypzero.saddle as saddle
import hypzero.verify as verify
from hypzero.kernel import Alpha

from checks import (check_curve, check_integrals, check_label, check_report,
                    check_zeros, level_constant, match_reference)

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")
RESIDUAL_TOL = verify.DEFAULT_TOLERANCES["residual"]
# Half-width of the box a nonzero seed draws each parameter component from.
# Real parameters stay real: that regime is a separate code path.
ALPHA_BOX = 0.02
POINT_BOX = 0.02


def _draw_alpha(rng, eta: float, zeta: float, seed: int) -> Alpha:
    if seed == 0:
        return Alpha(eta, zeta)
    eta += rng.uniform(-ALPHA_BOX, ALPHA_BOX)
    if zeta != 0.0:
        zeta += rng.uniform(-ALPHA_BOX, ALPHA_BOX)
    return Alpha(eta, zeta)


@dataclass
class PassResult:
    """What one pass measured and how many of its operations failed."""

    op_s: list = field(default_factory=list)   # unit-operation latencies
    busy_s: float = 0.0       # time inside program calls, checks excluded
    verified: int = 0         # certified zeros or labelled grid points
    attempted: int = 0
    failed: int = 0
    fingerprint: dict = field(default_factory=dict)

    def fail(self, what: str, problems: list):
        self.failed += 1
        for p in problems[:5]:
            print(f"FAIL {what}: {p}", file=sys.stderr)


def load_reference(name: str) -> dict:
    """Outputs of the seed-0 inputs, written by make_reference.py."""
    with open(os.path.join(REFERENCE_DIR, f"{name}.json")) as fh:
        return json.load(fh)


def _guarded(result: PassResult, what: str, fn):
    """Run one operation; an exception counts as a failed operation."""
    try:
        return fn()
    except Exception:
        result.fail(what, [traceback.format_exc(limit=3)])
        return None


class CheckLadder:
    """``hypzero check`` in-process for three parameters at n = 15, 60."""

    name = "check-ladder"
    reference = None
    ALPHAS = ((1.0, 0.0), (1.0, 1.0), (2.0, -1.0))
    N_LIST = (15, 60)
    ops_per_pass = len(ALPHAS)
    pass_s = 30.0
    verified_name = "certified_zeros_per_s"

    def __init__(self, seed: int, tmp_dir: str):
        rng = random.Random(seed)
        self.alphas = [_draw_alpha(rng, e, z, seed) for e, z in self.ALPHAS]
        self.tmp_dir = tmp_dir

    def _check(self, alpha: Alpha, n_text: str, out: str) -> int:
        argv = ["check", "--alpha-re", repr(alpha.eta),
                "--alpha-im", repr(alpha.zeta), "--n", n_text,
                "--out", out, "--format", "json,csv,svg"]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def warm_up(self):
        out = tempfile.mkdtemp(dir=self.tmp_dir)
        try:
            if self._check(Alpha(1.0, 1.0), "4,12", out) != 0:
                raise RuntimeError("warm-up check failed")
        finally:
            shutil.rmtree(out)

    def run_pass(self) -> PassResult:
        r = PassResult()
        n_text = ",".join(str(n) for n in self.N_LIST)
        for i, alpha in enumerate(self.alphas):
            r.attempted += 1
            out = tempfile.mkdtemp(dir=self.tmp_dir)
            try:
                t0 = time.perf_counter()
                rc = _guarded(r, f"check {alpha}",
                              lambda: self._check(alpha, n_text, out))
                dt = time.perf_counter() - t0
                r.op_s.append(dt)
                r.busy_s += dt
                if rc is None:
                    continue
                ref = None if self.reference is None else self.reference[str(i)]
                problems, zeros, fp = check_report(
                    out, rc, alpha.value, self.N_LIST, RESIDUAL_TOL, ref)
            finally:
                shutil.rmtree(out)
            r.fingerprint[str(i)] = fp
            r.verified += zeros
            if problems:
                r.fail(f"check {alpha}", problems)
        return r


class ManySmall:
    """``find_roots`` for n = 2..20 over six parameters and the shifted family."""

    name = "many-small"
    reference = None
    ALPHAS = ((1.0, 0.0), (1.0, 1.0), (2.0, -1.0), (0.5, 1.0), (3.0, 0.5),
              (1.5, -2.0))
    SHIFTED = ((1.0, 0.0), (1.0, 3.0))      # (k, l), b = k*n + l + 1
    DEGREES = tuple(range(2, 21))
    ops_per_pass = (len(ALPHAS) + len(SHIFTED)) * len(DEGREES)
    pass_s = 15.0
    verified_name = "certified_zeros_per_s"

    def __init__(self, seed: int, tmp_dir: str):
        rng = random.Random(seed)
        self.families = []
        for e, z in self.ALPHAS:
            a = _draw_alpha(rng, e, z, seed)
            self.families.append(
                (lambda n, a=a: hyperpoly.coefficients(n, a),
                 lambda n, a=a: a.value * n + 1.0))
        for k, l in self.SHIFTED:
            if seed != 0:
                k += rng.uniform(-ALPHA_BOX, ALPHA_BOX)
                l += rng.uniform(0.0, ALPHA_BOX)     # the family needs l >= 0
            self.families.append(
                (lambda n, k=k, l=l: hyperpoly.real_family_coefficients(n, k, l),
                 lambda n, k=k, l=l: complex(k * n + l + 1.0)))

    def warm_up(self):
        a = Alpha(1.0, 1.0)
        for n in (3, 12):       # the double path, then the mpmath path
            roots.find_roots(hyperpoly.coefficients(n, a))
        roots.find_roots(hyperpoly.real_family_coefficients(3, 1.0, 3.0))

    def run_pass(self) -> PassResult:
        r = PassResult()
        for f, (build, b_of) in enumerate(self.families):
            for n in self.DEGREES:
                r.attempted += 1
                t0 = time.perf_counter()
                p = _guarded(r, f"build {f}/{n}", lambda: build(n))
                t1 = time.perf_counter()
                zs = None if p is None else _guarded(
                    r, f"solve {f}/{n}", lambda: roots.find_roots(p))
                t2 = time.perf_counter()
                r.busy_s += t2 - t0
                if p is not None:
                    r.op_s.append(t2 - t1)
                if zs is None:
                    continue
                problems = check_zeros(zs.zeros, zs.residuals, zs.iterations,
                                       n, b_of(n), RESIDUAL_TOL)
                key = f"{f}/{n}"
                r.fingerprint[key] = [[z.real, z.imag] for z in zs.zeros]
                if self.reference is not None:
                    problems += match_reference(zs.zeros, self.reference[key])
                if problems:
                    r.fail(f"solve {key}", problems)
                else:
                    r.verified += n
        return r


@contextlib.contextmanager
def _timed_calls(module, attr: str):
    """Latency of each call through one module attribute (a unit operation)."""
    inner = getattr(module, attr)
    samples: list[float] = []

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            samples.append(time.perf_counter() - t0)

    setattr(module, attr, timed)
    try:
        yield samples
    finally:
        setattr(module, attr, inner)


class Geometry:
    """Region maps, level curves and contour integrals; no polynomial solve."""

    name = "geometry"
    reference = None
    GRID = (-0.5, 2.0, -1.2, 1.2, 30)
    GRID_ALPHAS = ((1.0, 1.0), (2.0, -1.0))
    CURVE_ALPHAS = ((1.0, 0.0), (1.0, 1.0), (2.0, -1.0))
    QUAD_POINTS = (((1.0, 0.0), 1.2 + 0.3j), ((1.0, 1.0), 1.2 + 0.3j),
                   ((2.0, -1.0), 1.2 - 0.3j))
    QUAD_N = (10, 40, 160)
    ops_per_pass = len(GRID_ALPHAS) * GRID[4] ** 2
    pass_s = 6.5
    verified_name = "classified_points_per_s"

    def __init__(self, seed: int, tmp_dir: str):
        rng = random.Random(seed)
        re0, re1, im0, im1, steps = self.GRID
        if seed != 0:
            # shift the grid by up to half a cell: same box, new points
            dre = (re1 - re0) / steps * rng.uniform(-0.5, 0.5)
            dim = (im1 - im0) / steps * rng.uniform(-0.5, 0.5)
            re0, re1, im0, im1 = re0 + dre, re1 + dre, im0 + dim, im1 + dim
        self.grid = verify.GridSpec(re0, re1, im0, im1, steps)
        self.grid_alphas = [_draw_alpha(rng, e, z, seed)
                            for e, z in self.GRID_ALPHAS]
        self.curve_alphas = [_draw_alpha(rng, e, z, seed)
                             for e, z in self.CURVE_ALPHAS]
        self.quad_points = []
        for (e, z), point in self.QUAD_POINTS:
            a = _draw_alpha(rng, e, z, seed)
            if seed != 0:
                point += complex(rng.uniform(-POINT_BOX, POINT_BOX),
                                 rng.uniform(-POINT_BOX, POINT_BOX))
            self.quad_points.append((a, point))

    def warm_up(self):
        a = Alpha(1.0, 1.0)
        verify.region_map(a, verify.GridSpec(-0.5, 2.0, -1.2, 1.2, 2))
        levelcurve.trace_level_curve(Alpha(1.0, 0.0))
        self._integrals(10, a, 1.2 + 0.3j)

    @staticmethod
    def _integrals(n: int, alpha: Alpha, z: complex):
        eps = 1e-4 * (1.0 + abs(1.0 / z))
        return (quadrature.descent_integral(n, alpha, z, epsilon=eps,
                                            check_region=False),
                quadrature.endpoint_integral(n, alpha, z, check_region=False),
                saddle.descent_integral_estimate(n, z, alpha))

    def run_pass(self) -> PassResult:
        r = PassResult()
        for g, alpha in enumerate(self.grid_alphas):
            with _timed_calls(verify, "classify_region") as samples:
                t0 = time.perf_counter()
                rows = _guarded(r, f"region_map {alpha}",
                                lambda: verify.region_map(alpha, self.grid))
                r.busy_s += time.perf_counter() - t0
            r.op_s += samples
            if rows is None:
                r.attempted += 1
                continue
            labels = [row["label"] for row in rows]
            r.fingerprint[f"grid{g}"] = labels
            ref = None if self.reference is None else self.reference[f"grid{g}"]
            if ref is not None and len(ref) != len(labels):
                r.fail(f"region_map {alpha}", ["grid size differs"])
                ref = None
            for i, row in enumerate(rows):
                r.attempted += 1
                z = complex(*row["z"])
                problems = check_label(z, alpha.value, row["label"],
                                       None if ref is None else ref[i])
                if problems:
                    r.fail(f"region_map {alpha}", problems)
                else:
                    r.verified += 1
        for alpha in self.curve_alphas:
            r.attempted += 1
            t0 = time.perf_counter()
            curve = _guarded(r, f"curve {alpha}",
                             lambda: levelcurve.trace_level_curve(alpha))
            r.busy_s += time.perf_counter() - t0
            if curve is None:
                continue
            problems = check_curve(curve, alpha.value,
                                   level_constant(alpha.value))
            if problems:
                r.fail(f"curve {alpha}", problems)
        for alpha, z in self.quad_points:
            for n in self.QUAD_N:
                r.attempted += 1
                t0 = time.perf_counter()
                got = _guarded(r, f"integrals n={n} z={z}",
                               lambda: self._integrals(n, alpha, z))
                r.busy_s += time.perf_counter() - t0
                if got is None:
                    continue
                problems = check_integrals(n, z, got[0], got[1].integral,
                                           got[2])
                if problems:
                    r.fail(f"integrals n={n} z={z}", problems)
        return r


WORKLOADS = {w.name: w for w in (CheckLadder, Geometry, ManySmall)}
