"""Command line interface.

Subcommands:

* ``check``  -- full clustering run for one parameter over a degree list,
  for the family b = alpha*n + 1 + l with l given by ``--shift``
* ``region`` -- basin map of the classifier over a z-grid
* ``curve``  -- emit the level curve only
* ``asym``   -- table of descent-integral / leading-term ratios

Options can also come from a flat ``key = value`` config file whose keys are
the subcommand's options; precedence is command line > file > defaults, and
one parser per option reads the text from any of the three.  Exit codes: 0
all checks passed, 1 checks ran with failures, 2 configuration error.
"""

from __future__ import annotations

import argparse
import cmath
import math
import sys

from .errors import ConfigError, HypzeroError, RegionError
from .flows import IN_E, classify_region, separatrices
from .kernel import Alpha
from .levelcurve import trace_level_curve
from .verify import (DEFAULT_TOLERANCES, ExperimentConfig, GridSpec,
                     check_formats, diagnose_root, document, emit, emit_report,
                     make_out_dir, region_map, render_region_svg, render_svg,
                     run_theorem_check)


def _read_config_file(args) -> None:
    """Fill the options left unset on the command line from ``args.config``,
    whose keys must be options of the subcommand; values stay text."""
    path = args.config
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
                if key not in args.options:
                    raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
                values[key] = val.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    for key, val in values.items():
        dest = key.replace("-", "_")
        if getattr(args, dest) is None:
            setattr(args, dest, val)


def _parse_n_list(text: str) -> tuple[int, ...]:
    try:
        n_list = tuple(int(s) for s in text.split(",") if s.strip())
    except ValueError:
        raise ConfigError(f"bad degree list {text!r}") from None
    if (not n_list or n_list[0] < 1
            or any(b <= a for a, b in zip(n_list, n_list[1:]))):
        raise ConfigError(f"degrees must be a nonempty, strictly increasing "
                          f"list of positive integers, got {text!r}")
    return n_list


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


def _parse_tolerance(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(text)
    return value


def _parse_shift(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(text)
    return value


# each option's parser, its default as text, and its help
_OPTIONS = {
    "alpha-re": (float, "1", "real part of alpha, > 0"),
    "alpha-im": (float, "0", "imaginary part of alpha"),
    "n": (_parse_n_list, "10,20,40", "comma-separated degree list"),
    "tol-residual": (_parse_tolerance, repr(DEFAULT_TOLERANCES["residual"]),
                     "residual bound of each certified zero"),
    "tol-boundary": (_parse_tolerance, repr(DEFAULT_TOLERANCES["boundary"]),
                     "margin below which a point is on the region boundary"),
    "grid": (GridSpec.parse, "-1:2:-1.5:1.5:20", "re0:re1:im0:im1:steps"),
    "shift": (_parse_shift, "0", "l in b = alpha*n + 1 + l, finite and >= 0"),
    "z": (_parse_points, "1.2,0.3", "semicolon list of re,im samples"),
    "out": (str, "out", "output directory"),
    # checked against the formats of the command before it runs
    "format": (lambda text: tuple(text.split(",")), "json",
               "comma list from json,csv,svg"),
}


def _settings(args) -> dict:
    """Each option of the subcommand parsed by its own parser, from the
    command line, else the config file, else the default; the two alpha
    parts become ``alpha``."""
    settings = {}
    for key in args.options:
        parse, default, _ = _OPTIONS[key]
        text = getattr(args, key.replace("-", "_"))
        if text is None:
            text = default
        try:
            settings[key] = parse(text)
        except ValueError:
            raise ConfigError(f"bad {key} {text!r}") from None
    try:
        settings["alpha"] = Alpha(settings.pop("alpha-re"),
                                  settings.pop("alpha-im"))
    except HypzeroError as exc:
        raise ConfigError(str(exc)) from None
    return settings


def _cmd_check(s: dict) -> int:
    config = ExperimentConfig(
        alpha=s["alpha"], n_list=s["n"], shift=s["shift"],
        tolerances={"residual": s["tol-residual"],
                    "boundary": s["tol-boundary"]})
    report = run_theorem_check(config)
    emit_report(report, s["out"], s["format"])
    print(f"check: wrote {s['out']}; passed={report.passed}")
    return 0 if report.passed else 1


def _cmd_region(s: dict) -> int:
    alpha, grid = s["alpha"], s["grid"]
    rows = region_map(alpha, grid, boundary_tol=s["tol-boundary"])
    bad = sum(1 for r in rows if r["label"].startswith("Error"))
    emit(s["out"], s["format"], {
        "json": lambda: [("region.json", document(
            alpha, grid=[grid.re0, grid.re1, grid.im0, grid.im1, grid.steps],
            points=rows))],
        "csv": lambda: [("region.csv", [("re", "im", "label", "margin"), *(
            (*r["z"], r["label"], r["margin"]) for r in rows)])],
        "svg": lambda: [("region.svg", render_region_svg(
            rows, grid, separatrices(alpha)))]})
    print(f"region: {len(rows)} points, {bad} errors; wrote {s['out']}")
    return 0 if bad == 0 else 1


def _cmd_curve(s: dict) -> int:
    alpha = s["alpha"]
    curve = trace_level_curve(alpha, boundary_tol=s["tol-boundary"])
    emit(s["out"], s["format"], {
        "json": lambda: [("curve.json", document(
            alpha, curve=curve.to_json_dict()))],
        "svg": lambda: [("curve.svg", render_svg(curve, (), ()))]})
    print(f"curve: {len(curve.arcs)} arcs at constant {curve.constant:.8g}; "
          f"wrote {s['out']}")
    return 0


def _cmd_asym(s: dict) -> int:
    alpha = s["alpha"]
    rows = []
    for z in s["z"]:
        # one classification per point; a refusal fills each of its rows
        refusal = None
        try:
            label = classify_region(z, alpha,
                                    boundary_tol=s["tol-boundary"]).label
            if label != IN_E:
                refusal = RegionError(f"descent_integral: z={z} classifies {label}")
        except HypzeroError as exc:
            refusal = exc
        for n in s["n"]:
            row = {"z": [z.real, z.imag], "n": n}
            try:
                if refusal is not None:
                    raise refusal
                sample = diagnose_root(n, alpha, z)
                row["ratio"] = sample.asym_ratio
                row["k_nth_root"] = sample.k_nth_root
                print(f"z={z:.6g} n={n}: |descent|/|leading| = "
                      f"{row['ratio']:.6f}, |K|^(1/n) = {row['k_nth_root']:.6f}")
            except HypzeroError as exc:
                row["error"] = str(exc)
                print(f"z={z:.6g} n={n}: error {exc}")
            rows.append(row)
    emit(s["out"], s["format"], {
        "json": lambda: [("asym.json", document(alpha, rows=rows))],
        "csv": lambda: [("asym.csv", [("re", "im", "n", "ratio", "k_nth_root"), *(
            (*r["z"], r["n"], r.get("ratio"), r.get("k_nth_root"))
            for r in rows)])]})
    return 0 if all("error" not in r for r in rows) else 1


# each subcommand's handler, options and the formats it writes
_COMMON = ("alpha-re", "alpha-im", "tol-boundary", "out", "format")
_COMMANDS = {
    "check": (_cmd_check, (*_COMMON, "n", "tol-residual", "shift"),
              ("json", "csv", "svg")),
    "region": (_cmd_region, (*_COMMON, "grid"), ("json", "csv", "svg")),
    "curve": (_cmd_curve, _COMMON, ("json", "svg")),
    "asym": (_cmd_asym, (*_COMMON, "n", "z"), ("json", "csv")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypzero",
        description="Numerical checks for zero clustering of a terminating "
                    "hypergeometric family")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (handler, options, formats) in _COMMANDS.items():
        sub = subs.add_parser(name)
        sub.add_argument("--config", help="flat key = value file of options "
                                          "left unset on the command line")
        for option in options:
            _, default, text = _OPTIONS[option]
            sub.add_argument(f"--{option}", help=f"{text}; default {default}")
        sub.set_defaults(handler=handler, options=options, formats=formats)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            _read_config_file(args)
        settings = _settings(args)
        # what emission would refuse after the run is refused before it
        check_formats(settings["format"], args.formats)
        make_out_dir(settings["out"])
        return args.handler(settings)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except HypzeroError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
