"""Command line interface.

Subcommands:

* ``check``  -- full clustering run for one parameter over a degree list,
  for the family b = alpha*n + 1 + l with l given by ``--shift``
* ``region`` -- basin map of the classifier over a z-grid
* ``curve``  -- emit the level curve only
* ``asym``   -- table of descent-integral / leading-term ratios

Options can also come from a flat ``key = value`` config file whose keys are
the subcommand's options; precedence is command line > file > defaults.  Exit codes: 0 all checks passed, 1 checks
ran with failures, 2 configuration error.
"""

from __future__ import annotations

import argparse
import cmath
import math
import sys

from . import quadrature
from .errors import ConfigError, HypzeroError, RegionError
from .flows import IN_E, classify_region, separatrices
from .kernel import Alpha
from .levelcurve import trace_level_curve
from .saddle import descent_integral_estimate
from .verify import (DEFAULT_TOLERANCES, ExperimentConfig, GridSpec, document,
                     emit, emit_report, region_map, render_region_svg,
                     render_svg, run_theorem_check)


def _read_config_file(args) -> None:
    """Fill the options left unset on the command line from ``args.config``,
    whose keys must be options of the subcommand."""
    path = args.config
    keys = {dest.replace("_", "-") for dest in vars(args)} - {
        "command", "handler", "config"}
    values: dict[str, str] = {}
    try:
        with open(path) as fh:
            for line_no, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(
                        f"{path}:{line_no}: expected 'key = value'")
                key, _, val = line.partition("=")
                key = key.strip()
                if key not in keys:
                    raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
                values[key] = val.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    for key, val in values.items():
        dest = key.replace("-", "_")
        if getattr(args, dest) is None:
            setattr(args, dest, val)


def _merged(args, key: str, cast=str, default=None):
    # an option the subcommand lacks reads as unset
    value = getattr(args, key.replace("-", "_"), None)
    if value is None:
        return default
    try:
        return cast(value)
    except ValueError:
        # command-line values are cast by argparse already
        raise ConfigError(f"{args.config}: bad {key} {value!r}") from None


def _parse_n_list(text: str) -> tuple[int, ...]:
    try:
        n_list = tuple(int(s) for s in text.split(",") if s.strip())
    except ValueError:
        raise ConfigError(f"bad degree list {text!r}") from None
    if any(n < 1 for n in n_list):
        raise ConfigError(f"degrees must be positive, got {text!r}")
    return n_list


def _common_settings(args):
    try:
        alpha = Alpha(_merged(args, "alpha-re", float, 1.0),
                      _merged(args, "alpha-im", float, 0.0))
    except HypzeroError as exc:
        raise ConfigError(str(exc)) from None
    out_dir = _merged(args, "out", str, "out")
    formats = tuple((_merged(args, "format", str, "json")).split(","))
    tolerances = dict(DEFAULT_TOLERANCES)
    for key in ("residual", "boundary"):
        value = _merged(args, f"tol-{key}", float, tolerances[key])
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(f"tol-{key} must be positive and finite, got {value!r}")
        tolerances[key] = value
    return alpha, out_dir, formats, tolerances


def _cmd_check(args) -> int:
    alpha, out_dir, formats, tolerances = _common_settings(args)
    n_text = _merged(args, "n", str, "10,20,40")
    config = ExperimentConfig(alpha=alpha, n_list=_parse_n_list(n_text),
                              tolerances=tolerances, formats=formats,
                              shift=_merged(args, "shift", float, 0.0))
    report = run_theorem_check(config)
    emit_report(report, out_dir, formats)
    print(f"check: wrote {out_dir}; passed={report.passed}")
    return 0 if report.passed else 1


def _cmd_region(args) -> int:
    alpha, out_dir, formats, tolerances = _common_settings(args)
    grid_text = _merged(args, "grid")
    grid = GridSpec.parse(grid_text) if grid_text else GridSpec(
        -1.0, 2.0, -1.5, 1.5, 20)
    rows = region_map(alpha, grid, boundary_tol=tolerances["boundary"])
    bad = sum(1 for r in rows if r["label"].startswith("Error"))
    emit(out_dir, formats, {
        "json": lambda: [("region.json", document(
            alpha, grid=[grid.re0, grid.re1, grid.im0, grid.im1, grid.steps],
            points=rows))],
        "csv": lambda: [("region.csv", [("re", "im", "label", "margin"), *(
            (*r["z"], r["label"], r["margin"]) for r in rows)])],
        "svg": lambda: [("region.svg", render_region_svg(
            rows, grid, separatrices(alpha)))]})
    print(f"region: {len(rows)} points, {bad} errors; wrote {out_dir}")
    return 0 if bad == 0 else 1


def _cmd_curve(args) -> int:
    alpha, out_dir, formats, tolerances = _common_settings(args)
    curve = trace_level_curve(alpha, boundary_tol=tolerances["boundary"])
    emit(out_dir, formats, {
        "json": lambda: [("curve.json", document(
            alpha, curve=curve.to_json_dict()))],
        "svg": lambda: [("curve.svg", render_svg(curve, (), ()))]})
    print(f"curve: {len(curve.arcs)} arcs at constant {curve.constant:.8g}; "
          f"wrote {out_dir}")
    return 0


def _parse_points(text: str) -> list[complex]:
    pts = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        re_s, _, im_s = chunk.partition(",")
        try:
            z = complex(float(re_s), float(im_s or 0.0))
        except ValueError:
            raise ConfigError(f"bad point {chunk!r}") from None
        if not cmath.isfinite(z):
            raise ConfigError(f"point {chunk!r} is not finite")
        pts.append(z)
    if not pts:
        raise ConfigError("no sample points given")
    return pts


def _cmd_asym(args) -> int:
    alpha, out_dir, formats, tolerances = _common_settings(args)
    n_text = _merged(args, "n", str, "10,20,40")
    z_text = _merged(args, "z", str, "1.2,0.3")
    points = _parse_points(z_text)
    n_list = _parse_n_list(n_text)
    rows = []
    for z in points:
        # one classification per point; a refusal fills each of its rows
        refusal = None
        try:
            label = classify_region(z, alpha,
                                    boundary_tol=tolerances["boundary"]).label
            if label != IN_E:
                refusal = RegionError(f"descent_integral: z={z} classifies {label}")
        except HypzeroError as exc:
            refusal = exc
        for n in n_list:
            row = {"z": [z.real, z.imag], "n": n}
            try:
                if refusal is not None:
                    raise refusal
                i1 = quadrature.descent_integral(
                    n, alpha, z, epsilon=1e-4 * (1.0 + abs(1.0 / z)),
                    check_region=False)
                est = descent_integral_estimate(n, z, alpha)
                k = quadrature.endpoint_integral(n, alpha, z,
                                                 check_region=False).k_value
                row["ratio"] = math.exp(i1.log_modulus - est.log_modulus)
                row["k_nth_root"] = abs(k) ** (1.0 / n)
                print(f"z={z:.6g} n={n}: |descent|/|leading| = "
                      f"{row['ratio']:.6f}, |K|^(1/n) = {row['k_nth_root']:.6f}")
            except HypzeroError as exc:
                row["error"] = str(exc)
                print(f"z={z:.6g} n={n}: error {exc}")
            rows.append(row)
    emit(out_dir, formats, {
        "json": lambda: [("asym.json", document(alpha, rows=rows))],
        "csv": lambda: [("asym.csv", [("re", "im", "n", "ratio", "k_nth_root"), *(
            (*r["z"], r["n"], r.get("ratio"), r.get("k_nth_root"))
            for r in rows)])]})
    return 0 if all("error" not in r for r in rows) else 1


# each subcommand's options, and the arguments of each option
_OPTIONS = {
    "config": dict(help="flat key = value config file"),
    "alpha-re": dict(type=float),
    "alpha-im": dict(type=float),
    "n": dict(help="comma-separated degree list"),
    "out": dict(help="output directory"),
    "format": dict(help="comma list from json,csv,svg"),
    "tol-residual": dict(type=float),
    "tol-boundary": dict(type=float),
    "grid": dict(help="re0:re1:im0:im1:steps"),
    "shift": dict(type=float, help="l in b = alpha*n + 1 + l, finite and >= 0"),
    "z": dict(help="semicolon list of re,im samples"),
}
_COMMON = ("config", "out", "format")
_ALPHA = ("alpha-re", "alpha-im")
_COMMANDS = {
    "check": (_cmd_check, (*_ALPHA, "n", "tol-residual", "tol-boundary",
                           "shift")),
    "region": (_cmd_region, (*_ALPHA, "tol-boundary", "grid")),
    "curve": (_cmd_curve, (*_ALPHA, "tol-boundary")),
    "asym": (_cmd_asym, (*_ALPHA, "n", "tol-boundary", "z")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypzero",
        description="Numerical checks for zero clustering of a terminating "
                    "hypergeometric family")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (fn, options) in _COMMANDS.items():
        sub = subs.add_parser(name)
        for option in (*_COMMON, *options):
            sub.add_argument(f"--{option}", default=None, **_OPTIONS[option])
        sub.set_defaults(handler=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            _read_config_file(args)
        return args.handler(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except HypzeroError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
