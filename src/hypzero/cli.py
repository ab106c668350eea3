"""Command line interface.

Subcommands:

* ``check``    -- full clustering run for one parameter over a degree list
* ``realcase`` -- the shifted real-parameter cross-check (k, l)
* ``region``   -- basin map of the classifier over a z-grid
* ``curve``    -- emit the level curve only
* ``asym``     -- table of descent-integral / leading-term ratios

Options can also come from a flat ``key = value`` config file; precedence is
command line > file > defaults.  Exit codes: 0 all checks passed, 1 checks
ran with failures, 2 configuration error.
"""

from __future__ import annotations

import argparse
import cmath
import math
import sys

from . import quadrature
from .errors import ConfigError, HypzeroError
from .flows import separatrices
from .kernel import Alpha
from .levelcurve import trace_level_curve
from .saddle import descent_integral_estimate
from .verify import (DEFAULT_TOLERANCES, ExperimentConfig, GridSpec, document,
                     emit, emit_report, region_map, render_region_svg,
                     render_svg, run_realcase_crosscheck, run_theorem_check)

_OPTION_KEYS = ("alpha-re", "alpha-im", "n", "out", "format", "tol-residual",
                "tol-boundary", "grid", "k", "l", "z")


def _add_common(sub):
    sub.add_argument("--config", help="flat key = value config file")
    sub.add_argument("--alpha-re", type=float, default=None)
    sub.add_argument("--alpha-im", type=float, default=None)
    sub.add_argument("--n", default=None, help="comma-separated degree list")
    sub.add_argument("--out", default=None, help="output directory")
    sub.add_argument("--format", default=None,
                     help="comma list from json,csv,svg")
    sub.add_argument("--tol-residual", type=float, default=None)
    sub.add_argument("--tol-boundary", type=float, default=None)
    sub.add_argument("--grid", default=None,
                     help="re0:re1:im0:im1:steps")


def _read_config_file(path: str) -> dict:
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
                if key not in _OPTION_KEYS:
                    raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
                values[key] = val.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    return values


def _merged(args, key: str, cast=str, default=None):
    cli_val = getattr(args, key.replace("-", "_"), None)
    if cli_val is not None:
        return cli_val
    if args.config:
        file_vals = _read_config_file(args.config)
        if key in file_vals:
            raw = file_vals[key]
            try:
                return cast(raw)
            except ValueError:
                raise ConfigError(f"{args.config}: bad {key} {raw!r}") from None
    return default


def _parse_n_list(text: str) -> tuple[int, ...]:
    try:
        n_list = tuple(int(s) for s in text.split(",") if s.strip())
    except ValueError:
        raise ConfigError(f"bad degree list {text!r}") from None
    if any(n < 1 for n in n_list):
        raise ConfigError(f"degrees must be positive, got {text!r}")
    return n_list


def _common_settings(args):
    alpha_re = _merged(args, "alpha-re", float, 1.0)
    alpha_im = _merged(args, "alpha-im", float, 0.0)
    try:
        alpha = Alpha(float(alpha_re), float(alpha_im))
    except HypzeroError as exc:
        raise ConfigError(str(exc)) from None
    out_dir = _merged(args, "out", str, "out")
    formats = tuple((_merged(args, "format", str, "json")).split(","))
    tolerances = dict(DEFAULT_TOLERANCES)
    tr = _merged(args, "tol-residual", float, None)
    tb = _merged(args, "tol-boundary", float, None)
    if tr is not None:
        tolerances["residual"] = float(tr)
    if tb is not None:
        tolerances["boundary"] = float(tb)
    grid_text = _merged(args, "grid", str, None)
    grid = GridSpec.parse(grid_text) if grid_text else None
    return alpha, out_dir, formats, tolerances, grid


def _cmd_check(args) -> int:
    alpha, out_dir, formats, tolerances, grid = _common_settings(args)
    n_text = _merged(args, "n", str, "10,20,40")
    config = ExperimentConfig(alpha=alpha, n_list=_parse_n_list(n_text),
                              tolerances=tolerances, out_dir=out_dir,
                              formats=formats, grid=grid)
    report = run_theorem_check(config)
    emit_report(report, out_dir, formats)
    print(f"check: wrote {out_dir}; passed={report.passed}")
    return 0 if report.passed else 1


def _cmd_realcase(args) -> int:
    alpha, out_dir, formats, tolerances, _ = _common_settings(args)
    k = float(_merged(args, "k", float, alpha.eta))
    l = float(_merged(args, "l", float, 0.0))
    n_text = _merged(args, "n", str, "10,20,50")
    report = run_realcase_crosscheck(k, l, _parse_n_list(n_text), tolerances=tolerances,
                                     out_dir=out_dir, formats=formats)
    emit_report(report, out_dir, formats)
    print(f"realcase: wrote {out_dir}; passed={report.passed}")
    return 0 if report.passed else 1


def _cmd_region(args) -> int:
    alpha, out_dir, formats, tolerances, grid = _common_settings(args)
    if grid is None:
        grid = GridSpec(-1.0, 2.0, -1.5, 1.5, 20)
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
    alpha, out_dir, formats, tolerances, _ = _common_settings(args)
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
    alpha, out_dir, formats, _, _ = _common_settings(args)
    n_text = _merged(args, "n", str, "10,20,40")
    z_text = _merged(args, "z", str, "1.2,0.3")
    points = _parse_points(z_text)
    n_list = _parse_n_list(n_text)
    rows = []
    for z in points:
        for n in n_list:
            row = {"z": [z.real, z.imag], "n": n}
            try:
                i1 = quadrature.descent_integral(
                    n, alpha, z, epsilon=1e-4 * (1.0 + abs(1.0 / z)))
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypzero",
        description="Numerical checks for zero clustering of a terminating "
                    "hypergeometric family")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("check", _cmd_check), ("realcase", _cmd_realcase),
                     ("region", _cmd_region), ("curve", _cmd_curve),
                     ("asym", _cmd_asym)):
        sub = subs.add_parser(name)
        _add_common(sub)
        if name == "realcase":
            sub.add_argument("--k", type=float, default=None)
            sub.add_argument("--l", type=float, default=None)
        if name == "asym":
            sub.add_argument("--z", default=None,
                             help="semicolon list of re,im samples")
        sub.set_defaults(handler=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except HypzeroError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
