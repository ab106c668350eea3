import dataclasses
import json
import math
import os
import re

import pytest

import hypzero.cli
import hypzero.quadrature
import hypzero.verify
from hypzero.cli import main
from hypzero.errors import ConfigError
from hypzero.flows import classify_region
from hypzero.hyperpoly import Polynomial
from hypzero.roots import find_roots
from hypzero.kernel import Alpha
from hypzero.verify import (ExperimentConfig, GridSpec, emit_report,
                            region_map, render_svg, run_theorem_check)

AI = Alpha(1.0, 1.0)


@pytest.fixture(scope="module")
def small_report():
    return run_theorem_check(ExperimentConfig(alpha=AI, n_list=(6, 12)))


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(alpha=AI, n_list=())
    with pytest.raises(ConfigError):
        ExperimentConfig(alpha=AI, n_list=(10, 10))
    with pytest.raises(ConfigError):
        ExperimentConfig(alpha=AI, n_list=(10, 5))
    for bad in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ConfigError):
            ExperimentConfig(alpha=AI, n_list=(5,),
                             tolerances={"residual": 1e-10, "boundary": bad})
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ConfigError):
            ExperimentConfig(alpha=AI, n_list=(5,), shift=bad)


def test_grid_spec():
    g = GridSpec.parse("0:2:-1:1:4")
    assert (g.re0, g.re1, g.im0, g.im1, g.steps) == (0.0, 2.0, -1.0, 1.0, 4)
    assert len(g.points()) == 16
    with pytest.raises(ConfigError):
        GridSpec.parse("0:2:-1:1")
    with pytest.raises(ConfigError):
        GridSpec.parse("a:b:c:d:e")


def test_report_structure(small_report):
    rep = small_report
    assert rep.passed
    assert len(rep.records) == 2
    for rec, n in zip(rep.records, (6, 12)):
        assert rec.n == n
        assert rec.zeros is not None
        assert len(rec.zeros.zeros) == n
        assert len(rec.distances) == n
        assert rec.left_halfplane_violations == 0
        assert rec.region_violations == 0
        assert rec.samples
    d = rep.to_json_dict()
    assert d["schema"] == "hypzero/1"
    assert all(r["config_hash"] == rep.config_hash for r in d["records"])


def test_report_config_block(small_report):
    # the config block holds what a run reads, and nothing else
    config = small_report.to_json_dict()["config"]
    assert set(config) == {"alpha", "n_list", "tolerances", "shift"}
    assert config["tolerances"] == {"boundary": 1e-6, "residual": 1e-10}


def test_left_halfplane_count_reads_the_inclusion_disk(monkeypatch):
    # a zero whose centre lies right of the imaginary axis but whose disk
    # reaches across it is not certified zero-free, so it counts
    solve = hypzero.verify.find_roots

    def straddling(p, **kwargs):
        zs = solve(p, **kwargs)
        return dataclasses.replace(zs, zeros=(1e-9 + 0.5j, *zs.zeros[1:]),
                                   radii=(2e-9, *zs.radii[1:]))

    monkeypatch.setattr(hypzero.verify, "find_roots", straddling)
    rep = run_theorem_check(ExperimentConfig(alpha=AI, n_list=(6,)))
    assert rep.records[0].left_halfplane_violations == 1
    assert not rep.passed


def test_an_open_loop_fails_the_run(monkeypatch):
    # distances to an open InE arc measure to its ends, not to the loop
    trace = hypzero.verify.trace_level_curve

    def opened(alpha, **kwargs):
        curve = trace(alpha, **kwargs)
        return dataclasses.replace(curve, arcs=tuple(
            dataclasses.replace(arc, closed=False) for arc in curve.arcs))

    monkeypatch.setattr(hypzero.verify, "trace_level_curve", opened)
    rep = run_theorem_check(ExperimentConfig(alpha=AI, n_list=(6, 12)))
    assert all(rec.zeros is not None and rec.region_violations == 0
               and all(s.split_cancels for s in rec.samples)
               for rec in rep.records)
    assert not rep.passed


@pytest.mark.parametrize("av", [(8.0, 0.0), (8.0, 2.0), (12.0, 0.0),
                                (20.0, -5.0), (2.0, 8.0), (1.0, 12.0)])
def test_large_parameters_keep_the_kappa_law(av):
    # sqrt(n) * max distance tends to kappa sqrt|alpha| / |alpha + 1|^(3/2);
    # at n = 120 it lies 4.2-5.3% below, against 8% allowed
    a = Alpha(*av)
    rep = run_theorem_check(ExperimentConfig(alpha=a, n_list=(15, 120)))
    assert rep.passed
    predicted = 0.63666 * abs(a.value) ** 0.5 / abs(a.value + 1.0) ** 1.5
    assert math.sqrt(120) * rep.records[-1].max_distance == pytest.approx(
        predicted, rel=0.08)


def test_single_root_record():
    rep = run_theorem_check(ExperimentConfig(alpha=AI, n_list=(1,)))
    rec = rep.records[0]
    want = (AI.value + 2) / (AI.value + 1)
    assert rec.zeros.zeros[0] == pytest.approx(want, rel=1e-12)
    assert math.isfinite(rec.max_distance)


def test_json_round_trip(small_report):
    text = small_report.to_json()
    parsed = json.loads(text)
    assert parsed == small_report.to_json_dict()
    assert json.dumps(parsed, sort_keys=True) == text


def test_determinism_small():
    cfg = ExperimentConfig(alpha=AI, n_list=(5, 9))
    r1 = run_theorem_check(cfg)
    r2 = run_theorem_check(cfg)
    assert r1.to_json() == r2.to_json()


def test_emit_files(tmp_path, small_report):
    files = emit_report(small_report, str(tmp_path), ("json", "csv", "svg"))
    names = sorted(os.path.basename(f) for f in files)
    assert names == ["overlay_n12.svg", "overlay_n6.svg", "report.json",
                     "zeros_n12.csv", "zeros_n6.csv"]
    # CSV: one row per zero plus header
    for n in (6, 12):
        lines = (tmp_path / f"zeros_n{n}.csv").read_text().strip().split("\n")
        assert len(lines) == n + 1
        assert lines[0] == "re,im,residual,distance,label,margin"
    # SVG: one path per curve arc, one circle per zero
    for n in (6, 12):
        svg = (tmp_path / f"overlay_n{n}.svg").read_text()
        assert svg.count("<path") == len(small_report.curve.arcs)
        assert svg.count("<circle") == n


def test_render_svg_without_zeros():
    from hypzero.levelcurve import trace_level_curve
    curve = trace_level_curve(Alpha(1.0))
    svg = render_svg(curve, (), ())
    assert svg.count("<path") == len(curve.arcs)
    assert svg.count("<circle") == 0


def test_render_svg_draws_about_one_vertex_per_pixel():
    # a drawn vertex lies at least 1 px from the one drawn before it, so an
    # arc L px long needs at most L + 2 vertices, both ends included
    from hypzero.levelcurve import trace_level_curve
    curve = trace_level_curve(AI)
    svg = render_svg(curve, (), ())
    paths = re.findall(r'<path d="M ([^"]*)"', svg)
    assert len(paths) == len(curve.arcs)
    view = [p for arc in curve.arcs for p in arc.points] + [curve.crossing_point]
    re0, re1 = min(p.real for p in view), max(p.real for p in view)
    im0, im1 = min(p.imag for p in view), max(p.imag for p in view)
    scale = 0.9 * 640 / max(re1 - re0, im1 - im0)
    centre = complex(0.5 * (re0 + re1), 0.5 * (im0 + im1))
    for arc, d in zip(curve.arcs, paths):
        drawn = d.split(" L ")
        pts = arc.points
        length = scale * sum(abs(b - a) for a, b in zip(pts, pts[1:]))
        assert len(drawn) <= length + 2
        for vertex, p in ((drawn[0], pts[0]), (drawn[-1], pts[-1])):
            x, y = (float(v) for v in vertex.split(","))
            assert abs(complex(x, -y) / scale + centre - p) * scale < 0.01


def test_realcase_shift_keeps_curve():
    r0 = run_theorem_check(ExperimentConfig(Alpha(1.0), (8,), shift=0.0))
    r3 = run_theorem_check(ExperimentConfig(Alpha(1.0), (8,), shift=3.0))
    assert r0.curve.constant == pytest.approx(r3.curve.constant)
    # same limiting curve: compare a few arc extremes
    arc0 = [a for a in r0.curve.arcs if a.region == "InE"][0]
    arc3 = [a for a in r3.curve.arcs if a.region == "InE"][0]
    assert max(p.real for p in arc0.points) == pytest.approx(
        max(p.real for p in arc3.points), abs=1e-6)
    # k = 0 is refused by Alpha (test_kernel::test_alpha_requires_positive_eta)
    with pytest.raises(ConfigError):
        ExperimentConfig(Alpha(1.0), (5,), shift=-1.0)


@pytest.mark.parametrize("alpha, shift", [
    (Alpha(1.0), 2.0), (Alpha(1.0), 0.5), (Alpha(2.0), 3.0),
    (Alpha(1.0, 1.0), 2.0)])
def test_split_integrals_cancel_at_shifted_zeros(alpha, shift):
    # at a zero of the member with b = alpha*n + 1 + l the Euler integral of
    # t^(alpha*n + l) (1 - z t)^n vanishes, so its two contour pieces cancel;
    # without the t^l factor they miss by a relative 0.36-0.85.  The bound
    # 1e-12 was set before the run, which measured at most 4e-14
    for n in (10, 20, 40):
        zeros = find_roots(Polynomial(n, alpha, 1.0 + shift))
        labels = [classify_region(z, alpha).label for z in zeros.zeros]
        z = zeros.zeros[labels.index("InE")]
        i1 = hypzero.quadrature.descent_integral(n, alpha, z, l=shift)
        i2 = hypzero.quadrature.endpoint_integral(n, alpha, z, l=shift).integral
        assert (abs(i1.value + i2.value) / max(abs(i1.value), abs(i2.value))
                < 1e-12)
        sample = hypzero.verify.diagnose_root(n, alpha, z, l=shift)
        assert sample.split_cancels
        assert abs(sample.asym_ratio - 1.0) < 0.1


@pytest.mark.parametrize("n", [40, 200, 1000])
def test_split_does_not_cancel_away_from_a_zero(n):
    # 1.2+0.3i is no zero, so the pieces differ by far more than their error
    # budgets; at n = 1000 both log-moduli pass -700, beyond double range
    sample = hypzero.verify.diagnose_root(n, Alpha(1.0, 1.0), 1.2 + 0.3j)
    assert not sample.split_cancels


def test_real_parameter_distances_strictly_decrease():
    rep = run_theorem_check(ExperimentConfig(alpha=Alpha(1.0),
                                             n_list=(10, 20, 40)))
    maxima = [r.max_distance for r in rep.records]
    assert maxima[0] > maxima[1] > maxima[2]
    gaps = [r.coverage_gap for r in rep.records]
    assert gaps[2] < gaps[0]
    assert rep.passed


def test_region_map_deterministic_ordering():
    grid = GridSpec(0.1, 1.9, -0.5, 0.5, 4)
    rows1 = region_map(Alpha(1.0), grid)
    rows2 = region_map(Alpha(1.0), grid)
    assert rows1 == rows2
    assert len(rows1) == 16
    labels = {r["label"] for r in rows1}
    assert labels <= {"InE", "NotInE", "Boundary"}


def test_cli_exit_codes(tmp_path):
    out = str(tmp_path / "o1")
    assert main(["check", "--alpha-re", "1", "--alpha-im", "1",
                 "--n", "5,9", "--out", out, "--format", "json"]) == 0
    assert os.path.exists(os.path.join(out, "report.json"))
    assert main(["check", "--alpha-re", "-2"]) == 2
    assert main(["check", "--alpha-re", "1", "--n", "9,5"]) == 2
    assert main(["asym", "--n", ",", "--out", out]) == 2
    cfg = tmp_path / "hypzero.cfg"
    cfg.write_text("precision = extended:200\n")
    assert main(["check", "--alpha-re", "1", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("argv", [
    ["check", "--alpha-re", "inf", "--n", "5"],
    ["check", "--alpha-im", "nan", "--n", "5"],
    ["asym", "--z=nan,0"],
    ["asym", "--z=1.2,0.3;1,-inf"],
    ["region", "--grid=0:inf:-1:1:2"]])
def test_cli_rejects_non_finite_input(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert main([*argv, "--out", str(out)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["check", "--tol-boundary=nan"],
    ["check", "--tol-residual=nan"],
    ["check", "--tol-residual=0"],
    ["region", "--tol-boundary=nan"],
    ["region", "--tol-boundary=-1"],
    ["region", "--tol-boundary=inf"],
    ["curve", "--tol-boundary=-1e-6"],
    ["asym", "--tol-boundary=inf"],
    ["check", "--shift=-1"],
    ["check", "--shift=nan"],
    ["check", "--shift=inf"]])
def test_cli_rejects_a_tolerance_not_positive_and_finite(tmp_path, capsys, argv):
    # the tolerances, and check's shift (finite and >= 0), are checked
    # before any work, so no degree list is needed
    out = tmp_path / "o"
    assert main([*argv, "--out", str(out)]) == 2
    assert argv[1][2:].partition("=")[0] in capsys.readouterr().err
    assert not out.exists()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(argv[1].lstrip("-").replace("=", " = ") + "\n")
    assert main([argv[0], "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


def test_cli_rejects_a_bad_number_in_the_config_file(tmp_path, capsys):
    # one parser per option: a bad value fails alike from either source
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "o"
    for key, value in (("alpha-re", "one"), ("tol-boundary", "abc")):
        cfg.write_text(f"{key} = {value}\n")
        assert main(["check", "--config", str(cfg), "--n", "5",
                     "--out", str(out)]) == 2
        assert f"configuration error: bad {key}" in capsys.readouterr().err
        assert main(["check", f"--{key}={value}", "--n", "5",
                     "--out", str(out)]) == 2
        assert f"configuration error: bad {key}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_rejects_nonpositive_degrees(tmp_path):
    out = str(tmp_path / "nz")
    assert main(["check", "--n", "0", "--out", out]) == 2
    assert main(["check", "--n", "5,-3", "--out", out]) == 2
    # an order the run would refuse is refused before the directory is made
    assert main(["check", "--n", "10,5", "--out", out]) == 2
    assert main(["asym", "--n", "10,10", "--out", out]) == 2
    assert not os.path.exists(out)


def test_cli_degree_beyond_double_range_fails_cleanly(tmp_path, capsys):
    for n in (1000, 1100):
        out = str(tmp_path / f"big{n}")
        code = main(["check", "--n", str(n), "--out", out, "--format", "json"])
        assert code == 1
        assert "Traceback" not in capsys.readouterr().err
        assert f"degree {n}" in (tmp_path / f"big{n}" / "report.json").read_text()


def test_cli_curve_and_region(tmp_path):
    out = str(tmp_path / "o2")
    assert main(["curve", "--alpha-re", "1", "--out", out,
                 "--format", "json,svg"]) == 0
    d = json.loads((tmp_path / "o2" / "curve.json").read_text())
    assert d["schema"] == "hypzero/1"
    assert main(["region", "--alpha-re", "1", "--grid", "0:2:-1:1:5",
                 "--out", out, "--format", "csv,svg"]) == 0
    lines = (tmp_path / "o2" / "region.csv").read_text().strip().split("\n")
    assert len(lines) == 26
    # the basin portrait: one circle per grid point
    svg = (tmp_path / "o2" / "region.svg").read_text()
    assert svg.count("<circle") == 25


def test_cli_region_next_to_branch_point(tmp_path):
    # the 2x2 grid straddles w = 1 within 1e-9; no point is 1 itself
    out = tmp_path / "o4"
    assert main(["region", "--grid=0.999999999:1.000000001:-1e-9:1e-9:2",
                 f"--out={out}", "--format", "csv"]) == 0
    rows = (out / "region.csv").read_text().strip().split("\n")[1:]
    assert len(rows) == 4
    assert all(row.split(",")[2] in ("InE", "NotInE") for row in rows)


def test_cli_asym(tmp_path):
    out = str(tmp_path / "o3")
    assert main(["asym", "--alpha-re", "1", "--n", "10",
                 "--z", "1.2,0.3", "--out", out, "--format", "json,csv"]) == 0
    d = json.loads((tmp_path / "o3" / "asym.json").read_text())
    assert d["rows"][0]["ratio"] == pytest.approx(1.0, abs=0.3)
    # the n-th root of the endpoint tail factor K, in (0, 1) below its limit 1
    assert 0.0 < d["rows"][0]["k_nth_root"] < 1.0
    lines = (tmp_path / "o3" / "asym.csv").read_text().splitlines()
    assert lines[0] == "re,im,n,ratio,k_nth_root"
    assert float(lines[1].split(",")[4]) == d["rows"][0]["k_nth_root"]


def test_cli_asym_classifies_each_point_once(tmp_path, monkeypatch):
    # two points at three degrees, each classified once with the flag's
    # tolerance; the integrals themselves classify nothing
    tols = []

    def counted(z, alpha, boundary_tol=1e-6):
        tols.append(boundary_tol)
        return classify_region(z, alpha, boundary_tol=boundary_tol)

    monkeypatch.setattr(hypzero.cli, "classify_region", counted)
    monkeypatch.setattr(hypzero.quadrature, "classify_region", counted)
    assert main(["asym", "--alpha-re", "1", "--n", "5,6,7",
                 "--z=1.2,0.3;1.1,-0.4", "--tol-boundary=1e-3",
                 "--out", str(tmp_path / "o10"), "--format", "json"]) == 0
    assert tols == [1e-3, 1e-3]


def test_cli_asym_error_row_leaves_cells_empty(tmp_path):
    out = tmp_path / "o7"
    assert main(["asym", "--alpha-re", "1", "--n", "10",
                 "--z=-0.5,0.1;1.2,0.3", "--out", str(out),
                 "--format", "csv"]) == 1
    lines = (out / "asym.csv").read_text().splitlines()
    assert lines[1] == "-0.5,0.1,10,,"
    assert all(lines[2].split(","))


@pytest.mark.parametrize("command, fmt", [
    ("check", "pdf"), ("region", "pdf"), ("asym", "pdf"),
    ("curve", "csv"), ("curve", "pdf"), ("asym", "svg")])
def test_cli_rejects_formats_it_cannot_write(tmp_path, capsys, command, fmt):
    out = tmp_path / "o8"
    grid = ["--grid", "0.5:1.5:-0.5:0.5:2"] if command == "region" else []
    degrees = [] if command in ("region", "curve") else ["--n", "4"]
    assert main([command, *degrees, *grid,
                 "--out", str(out), "--format", f"json,{fmt}"]) == 2
    assert not out.exists()
    if fmt == "pdf":
        # no format writes pdf, so every command refuses it before any
        # work; asym prints a line per row it computes
        assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", ["check", "region", "curve", "asym"])
@pytest.mark.parametrize("out", ["", "README.md/x"])
def test_cli_unwritable_out_is_a_configuration_error(
        tmp_path, capsys, monkeypatch, command, out):
    # an empty directory name, or one under a regular file
    monkeypatch.chdir(tmp_path)
    (tmp_path / "README.md").write_text("")
    small = {"check": ["--n", "3"], "region": ["--grid", "0.5:1.5:-0.5:0.5:2"],
             "curve": [], "asym": ["--n", "3"]}[command]
    # refused before the run: no command starts its work
    calls = []
    for name in ("run_theorem_check", "trace_level_curve", "region_map",
                 "classify_region"):
        monkeypatch.setattr(hypzero.cli, name,
                            lambda *a, name=name, **k: calls.append(name))
    assert main([command, *small, "--out", out]) == 2
    assert calls == []
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "Traceback" not in err


def test_report_is_the_same_whatever_formats_are_written(tmp_path):
    # formats choose the files, not the run: report.json is byte-identical
    for fmt in ("json", "json,csv,svg"):
        assert main(["check", "--n", "5", "--format", fmt,
                     "--out", str(tmp_path / fmt)]) == 0
    assert ((tmp_path / "json" / "report.json").read_bytes()
            == (tmp_path / "json,csv,svg" / "report.json").read_bytes())


def test_cli_config_file_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha-re = 1\nalpha-im = 0\nn = 4,7\nformat = json\n")
    out = str(tmp_path / "o4")
    # file supplies alpha and degrees; CLI overrides the degree list
    assert main(["check", "--config", str(cfg), "--n", "5",
                 "--out", out]) == 0
    rep = json.loads((tmp_path / "o4" / "report.json").read_text())
    assert [r["n"] for r in rep["records"]] == [5]
    # file alone
    out2 = str(tmp_path / "o5")
    assert main(["check", "--config", str(cfg), "--out", out2]) == 0
    rep2 = json.loads((tmp_path / "o5" / "report.json").read_text())
    assert [r["n"] for r in rep2["records"]] == [4, 7]
    # unknown key rejected
    bad = tmp_path / "bad.cfg"
    bad.write_text("flux = 9\n")
    assert main(["check", "--config", str(bad)]) == 2


@pytest.mark.parametrize("command, key, value", [
    ("check", "grid", "0:1:0:1:2"), ("check", "k", "3"), ("check", "z", "1,2"),
    ("curve", "grid", "0:1:0:1:2"),
    ("region", "n", "5"), ("curve", "n", "5"),
    ("region", "tol-residual", "1e-3"), ("curve", "tol-residual", "1e-3"),
    ("asym", "tol-residual", "1e-3"),
    ("region", "shift", "2"), ("curve", "shift", "2"), ("asym", "shift", "2")])
def test_cli_rejects_an_option_the_subcommand_lacks(tmp_path, command, key, value):
    # only region reads a grid, only asym z; region and curve solve
    # nothing, only check certifies residuals, and only check shifts b
    out = tmp_path / "o9"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    with pytest.raises(SystemExit) as exc:
        main([command, f"--{key}={value}", "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_realcase_cli(tmp_path):
    # realcase --k K --l L is now check --alpha-re K --shift L
    out = str(tmp_path / "o6")
    code = main(["check", "--alpha-re", "1", "--shift", "0", "--n", "6,10",
                 "--out", out, "--format", "json,csv"])
    assert code == 0
    rep = json.loads((tmp_path / "o6" / "report.json").read_text())
    assert rep["config"]["shift"] == 0.0
    with pytest.raises(SystemExit) as exc:
        main(["realcase", "--k", "1", "--l", "0", "--n", "6,10",
              "--out", str(tmp_path / "o7")])
    assert exc.value.code == 2
    assert not (tmp_path / "o7").exists()
