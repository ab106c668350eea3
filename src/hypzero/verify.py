"""Experiment orchestration: clustering runs, reports, and file emission.

A run builds the polynomial family over a list of degrees, finds all zeros,
measures their distances to the admissible arcs of the clustering level
curve, scans for zero-free violations (no zero may sit in the left
half-plane or classify outside the admissible region), and samples the
split-integral diagnostics at a few zeros, where the two contour pieces
must cancel and their n-th root magnitudes approach ``|1 - z|``.

Reports serialize deterministically: fixed seeds, fixed orderings, no
timestamps, so identical configurations produce bit-identical JSON.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, field

from . import quadrature
from .errors import ConfigError, HypzeroError
from .flows import (IN_E, NOT_IN_E, PathTrace, classify_region,
                    separatrices)
from .hyperpoly import Polynomial
# unused here, but perfbench/tracing.py wraps both names in this module
from .hyperpoly import coefficients, real_family_coefficients  # noqa: F401
from .kernel import Alpha
from .levelcurve import (LevelCurve, coverage_gap, distance_to_curve,
                         trace_level_curve)
from .roots import ZeroSet, find_roots
from .saddle import descent_integral_estimate

SCHEMA = "hypzero/1"

DEFAULT_TOLERANCES = {
    "residual": 1e-10,
    "boundary": 1e-6,
}
_SAMPLES_PER_N = 3      # zeros per degree receiving split-integral diagnostics


@dataclass(frozen=True)
class GridSpec:
    re0: float
    re1: float
    im0: float
    im1: float
    steps: int

    @staticmethod
    def parse(text: str) -> "GridSpec":
        parts = text.split(":")
        if len(parts) != 5:
            raise ConfigError(f"grid spec needs re0:re1:im0:im1:steps, got {text!r}")
        try:
            bounds = [float(v) for v in parts[:4]]
            steps = int(parts[4])
        except ValueError as exc:
            raise ConfigError(f"bad grid spec {text!r}: {exc}") from None
        if not all(math.isfinite(v) for v in bounds):
            raise ConfigError(f"grid bounds must be finite, got {text!r}")
        return GridSpec(*bounds, steps)

    def points(self) -> list[complex]:
        if self.steps < 1:
            raise ConfigError("grid steps must be >= 1")
        out = []
        for i in range(self.steps):
            re = self.re0 + (self.re1 - self.re0) * (i + 0.5) / self.steps
            for j in range(self.steps):
                im = self.im0 + (self.im1 - self.im0) * (j + 0.5) / self.steps
                out.append(complex(re, im))
        return out


@dataclass(frozen=True)
class ExperimentConfig:
    alpha: Alpha
    n_list: tuple[int, ...]
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))
    shift: float = 0.0          # l in b = alpha*n + 1 + l, finite and >= 0

    def __post_init__(self):
        if not self.n_list:
            raise ConfigError("n_list must be nonempty")
        if any(b <= a for a, b in zip(self.n_list, self.n_list[1:])):
            raise ConfigError("n_list must be strictly increasing")
        if not all(math.isfinite(v) and v > 0 for v in self.tolerances.values()):
            raise ConfigError("all tolerances must be positive and finite")
        if not (math.isfinite(self.shift) and self.shift >= 0):
            raise ConfigError(f"shift must be finite and >= 0, got {self.shift!r}")

    def to_json_dict(self) -> dict:
        return {
            "alpha": [self.alpha.eta, self.alpha.zeta],
            "n_list": list(self.n_list),
            "tolerances": {k: self.tolerances[k] for k in sorted(self.tolerances)},
            "shift": self.shift,
        }

    def hash(self) -> str:
        canon = json.dumps(self.to_json_dict(), sort_keys=True,
                           separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class RootSample:
    """Split-integral diagnostics at one zero."""

    z: complex
    descent_log_mod: float
    endpoint_log_mod: float
    descent_nth_root: float
    endpoint_nth_root: float
    one_minus_z_abs: float
    asym_ratio: float
    k_nth_root: float
    split_cancels: bool

    def to_json_dict(self) -> dict:
        return {**asdict(self), "z": [self.z.real, self.z.imag]}


@dataclass(frozen=True)
class DegreeRecord:
    n: int
    zeros: ZeroSet | None
    distances: tuple[float, ...]
    max_distance: float
    mean_distance: float
    coverage_gap: float
    labels: tuple[str, ...]
    margins: tuple[float, ...]
    left_halfplane_violations: int
    region_violations: int
    samples: tuple[RootSample, ...]
    flags: tuple[str, ...]

    def to_json_dict(self, config_hash: str) -> dict:
        return {
            "config_hash": config_hash,
            "n": self.n,
            "zeros": None if self.zeros is None else self.zeros.to_json_dict(),
            "distances": list(self.distances),
            "max_distance": self.max_distance,
            "mean_distance": self.mean_distance,
            "coverage_gap": self.coverage_gap,
            "labels": list(self.labels),
            "margins": list(self.margins),
            "left_halfplane_violations": self.left_halfplane_violations,
            "region_violations": self.region_violations,
            "samples": [s.to_json_dict() for s in self.samples],
            "flags": list(self.flags),
        }


@dataclass(frozen=True)
class VerificationReport:
    config: ExperimentConfig
    config_hash: str
    curve: LevelCurve
    separatrix_pair: tuple[PathTrace, PathTrace]
    records: tuple[DegreeRecord, ...]
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "config": self.config.to_json_dict(),
            "config_hash": self.config_hash,
            "passed": self.passed,
            "level_curve": self.curve.to_json_dict(),
            "separatrices": [s.to_json_dict() for s in self.separatrix_pair],
            "records": [r.to_json_dict(self.config_hash) for r in self.records],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def _sample_indices(count: int) -> list[int]:
    if count <= _SAMPLES_PER_N:
        return list(range(count))
    return [round(i * (count - 1) / (_SAMPLES_PER_N - 1))
            for i in range(_SAMPLES_PER_N)]


def diagnose_root(n: int, alpha: Alpha, z: complex, *,
                  l: float = 0) -> RootSample:
    """Split-integral diagnostics at ``z``, which the caller classified InE;
    the cancellation test runs in log scale, valid beyond double range."""
    i1 = quadrature.descent_integral(n, alpha, z, check_region=False, l=l)
    i2 = quadrature.endpoint_integral(n, alpha, z, check_region=False, l=l)
    est = descent_integral_estimate(n, z, alpha, l=l)
    # log|I1 + I2|, summed with the larger piece scaled to modulus 1
    pieces = (i1, i2.integral)
    top = max(c.log_modulus for c in pieces)
    log_split = top + quadrature._log_abs(sum(
        cmath.exp(complex(c.log_modulus - top, c.phase)) for c in pieces))
    budget = quadrature._log_add(i1.abs_error_bound,
                                 i2.integral.abs_error_bound)
    return RootSample(
        z=z,
        descent_log_mod=i1.log_modulus,
        endpoint_log_mod=i2.integral.log_modulus,
        descent_nth_root=math.exp(i1.log_modulus / n),
        endpoint_nth_root=math.exp(i2.integral.log_modulus / n),
        one_minus_z_abs=abs(1.0 - z),
        asym_ratio=math.exp(i1.log_modulus - est.log_modulus),
        k_nth_root=abs(i2.k_value) ** (1.0 / n),
        split_cancels=log_split <= budget,
    )


def run_theorem_check(config: ExperimentConfig) -> VerificationReport:
    """Full clustering experiment for the family b = alpha*n + 1 + shift."""
    curve = trace_level_curve(config.alpha,
                              boundary_tol=config.tolerances["boundary"])
    seps = separatrices(config.alpha)
    # the zeros cluster on the InE loop through w0 around 1: an open or
    # off-sheet arc measures distances to the wrong set
    loop_closed = any(a.closed and a.region == IN_E and not a.crossed_cut
                      for a in curve.arcs)
    records = []
    boundary_tol = config.tolerances["boundary"]
    for n in config.n_list:
        flags = [] if loop_closed else ["level curve: no closed InE loop"]
        zeros = None
        distances: tuple[float, ...] = ()
        max_d = math.nan
        mean_d = math.nan
        cov = math.nan
        labels: tuple[str, ...] = ()
        margins: tuple[float, ...] = ()
        lhp = 0
        region_bad = 0
        samples: list[RootSample] = []
        try:
            zeros = find_roots(Polynomial(n, config.alpha, 1.0 + config.shift),
                               residual_tol=config.tolerances["residual"])
            dists, max_d, mean_d = distance_to_curve(zeros.zeros, curve)
            distances = tuple(float(d) for d in dists)
            cov = coverage_gap(zeros.zeros, curve)
            lab_list = []
            marg_list = []
            for z, radius in zip(zeros.zeros, zeros.radii):
                # the inclusion disk, not just its centre, must lie in Re z > 0
                if z.real <= radius:
                    lhp += 1
                lab = classify_region(z, config.alpha,
                                      boundary_tol=boundary_tol)
                lab_list.append(lab.label)
                marg_list.append(lab.margin)
                if lab.label == NOT_IN_E and lab.margin > boundary_tol:
                    region_bad += 1
            labels = tuple(lab_list)
            margins = tuple(marg_list)
            in_e_idx = [i for i, l in enumerate(labels) if l == IN_E]
            for i in _sample_indices(len(in_e_idx)):
                z = zeros.zeros[in_e_idx[i]]
                try:
                    samples.append(diagnose_root(n, config.alpha, z,
                                                 l=config.shift))
                except HypzeroError as exc:
                    flags.append(f"sample z={z:.6g}: {exc}")
        except HypzeroError as exc:
            flags.append(f"n={n}: {exc}")
        records.append(DegreeRecord(
            n=n, zeros=zeros, distances=distances, max_distance=max_d,
            mean_distance=mean_d, coverage_gap=cov, labels=labels,
            margins=margins, left_halfplane_violations=lhp,
            region_violations=region_bad, samples=tuple(samples),
            flags=tuple(flags)))

    complete = [r for r in records if r.zeros is not None]
    zero_free_ok = all(r.left_halfplane_violations == 0
                       and r.region_violations == 0 for r in complete)
    trend_ok = True
    if len(complete) >= 2:
        trend_ok = complete[-1].max_distance < complete[0].max_distance
    # at a zero the two contour pieces sum to the vanishing Euler integral
    samples_ok = all(s.split_cancels for r in records for s in r.samples)
    passed = (zero_free_ok and trend_ok and samples_ok
              and len(complete) == len(records)
              and all(not r.flags for r in records))
    return VerificationReport(config=config, config_hash=config.hash(),
                              curve=curve, separatrix_pair=seps,
                              records=tuple(records), passed=passed)


# ---------------------------------------------------------------- emission

def check_formats(formats, writable) -> None:
    """Refuse, as a configuration error, a format outside ``writable``."""
    for f in formats:
        if f not in writable:
            raise ConfigError(f"cannot write format {f!r}; this command "
                              f"writes {','.join(writable)}")


def make_out_dir(out_dir: str) -> None:
    """Create ``out_dir``; one that cannot be made is a configuration error."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write to {out_dir!r}: {exc}") from None


def emit(out_dir: str, formats, writers: dict) -> list[str]:
    """The one write path of every command; returns the created paths.

    ``writers`` maps each format a command can write to a function giving
    its ``(file name, content)`` pairs: a dict for JSON (dumped with sorted
    keys), a header row and rows of cells for CSV (strings as they are,
    ``None`` empty, anything else as its ``repr``), text for SVG.  Any other
    requested format is a configuration error, raised before any writing,
    and so is a directory or file that cannot be written.
    """
    check_formats(formats, writers)
    files = []
    for f, write in writers.items():
        if f not in formats:
            continue
        for name, content in write():
            if f == "json":
                content = json.dumps(content, sort_keys=True)
            elif f == "csv":
                content = "".join(",".join(
                    "" if v is None else v if isinstance(v, str) else repr(v)
                    for v in row) + "\n" for row in content)
            files.append((os.path.join(out_dir, name), content))
    make_out_dir(out_dir)
    try:
        for path, content in files:
            with open(path, "w") as fh:
                fh.write(content)
    except OSError as exc:
        raise ConfigError(f"cannot write to {out_dir!r}: {exc}") from None
    return [path for path, _ in files]


def document(alpha: Alpha, **payload) -> dict:
    """JSON content of a command without a report: schema, parameter, payload."""
    return {"schema": SCHEMA, "alpha": [alpha.eta, alpha.zeta], **payload}


def emit_report(report: VerificationReport, out_dir: str,
                formats) -> list[str]:
    """Write the report files; returns the created paths."""
    return emit(out_dir, formats, {
        "json": lambda: [("report.json", report.to_json_dict())],
        "csv": lambda: [(f"zeros_n{rec.n}.csv", [
            ("re", "im", "residual", "distance", "label", "margin"), *(
                (z.real, z.imag, *cells) for z, *cells in zip(
                    rec.zeros.zeros, rec.zeros.residuals, rec.distances,
                    rec.labels, rec.margins))])
            for rec in report.records if rec.zeros is not None],
        "svg": lambda: [(f"overlay_n{rec.n}.svg", render_svg(
            report.curve, report.separatrix_pair,
            () if rec.zeros is None else rec.zeros.zeros))
            for rec in report.records]})


_COLORS = {"InE": "#b03030", "NotInE": "#3050b0", "Boundary": "#808080"}
_SVG_SIZE = 640     # side of the square view box


def _svg_coords(points, scale, cx, cy):
    return " ".join(f"{(p.real - cx) * scale:.2f},{-(p.imag - cy) * scale:.2f}"
                    for p in points)


def _svg(view, arcs, seps, dots) -> str:
    """Arcs as paths coloured by region, ``(point, radius, fill)`` dots as
    circles and, on top, separatrices as dashed polylines clipped to the
    view, in a square of ``_SVG_SIZE`` around the points of ``view``."""
    re0, re1 = min(p.real for p in view), max(p.real for p in view)
    im0, im1 = min(p.imag for p in view), max(p.imag for p in view)
    span = max(re1 - re0, im1 - im0, 1e-9)
    scale = 0.9 * _SVG_SIZE / span
    cx, cy = 0.5 * (re0 + re1), 0.5 * (im0 + im1)
    half = _SVG_SIZE / 2
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" '
           f'viewBox="{-half:.0f} {-half:.0f} {_SVG_SIZE} {_SVG_SIZE}">']
    for arc in arcs:
        # a vertex within 1 px of the last one kept adds nothing visible;
        # both ends of the arc stay
        kept = list(arc.points[:1])
        for p in arc.points[1:-1]:
            if abs(p - kept[-1]) * scale >= 1.0:
                kept.append(p)
        kept += arc.points[1:][-1:]
        d = "M " + " L ".join(_svg_coords(kept, scale, cx, cy).split(" "))
        color = _COLORS.get(arc.region, "#808080")
        out.append(f'<path d="{d}" fill="none" '
                   f'stroke="{color}" stroke-width="1.5"/>')
    for z, r, fill in dots:
        x = (z.real - cx) * scale
        y = -(z.imag - cy) * scale
        out.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{r:g}" fill="{fill}"/>')
    for sep in seps:
        kept = [p for p in sep.points if abs(p.real - cx) * scale <= half
                and abs(p.imag - cy) * scale <= half]
        if len(kept) >= 2:
            out.append(f'<polyline points="{_svg_coords(kept, scale, cx, cy)}" '
                       f'fill="none" stroke="#30a060" stroke-width="0.8" '
                       f'stroke-dasharray="4 3"/>')
    out.append("</svg>")
    return "\n".join(out)


def render_svg(curve: LevelCurve, seps, zeros) -> str:
    """Curve arcs as path elements, separatrices as polylines, zeros as circles.

    Exactly one ``<path>`` per curve arc and one ``<circle>`` per zero, which
    keeps the document structure checkable.
    """
    view = [p for arc in curve.arcs for p in arc.points]
    view += list(zeros) + [curve.crossing_point]
    return _svg(view, curve.arcs, seps, [(z, 2.5, "#202020") for z in zeros])


def render_region_svg(rows, grid: GridSpec, seps) -> str:
    """Basin portrait of ``region_map`` rows: one circle per grid point in
    the colour of its label, and the separatrices between the basins."""
    view = [complex(grid.re0, grid.im0), complex(grid.re1, grid.im1)]
    return _svg(view, (), seps, [
        (complex(*row["z"]), 0.3 * _SVG_SIZE / grid.steps,
         _COLORS.get(row["label"], "#202020")) for row in rows])


def region_map(alpha: Alpha, grid: GridSpec,
               boundary_tol: float = 1e-6) -> list[dict]:
    """Classify every grid point; deterministic row-major ordering."""
    out = []
    w0 = alpha.saddle_base
    for z in grid.points():
        if z == 0 or z == 1:
            out.append({"z": [z.real, z.imag], "label": "Excluded",
                        "margin": 0.0})
            continue
        try:
            lab = classify_region(z, alpha, boundary_tol=boundary_tol)
            out.append({"z": [z.real, z.imag], "label": lab.label,
                        "margin": lab.margin})
        except HypzeroError as exc:
            out.append({"z": [z.real, z.imag], "label": f"Error:{exc}",
                        "margin": float(abs(z - w0))})
    return out
