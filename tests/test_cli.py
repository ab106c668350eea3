import math
import time

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hypzero.cli import main

# finite values near the parameters the program is meant for, and the
# non-finite ones a user can type
_NUMBER = st.one_of(st.sampled_from([math.inf, -math.inf, math.nan, 0.0]),
                    st.floats(-3.0, 3.0)).map(repr)
_DEGREES = st.lists(st.one_of(st.integers(-2, 8).map(str), st.just("")),
                    max_size=3).map(",".join)
_GRID = st.tuples(_NUMBER, _NUMBER, _NUMBER, _NUMBER,
                  st.integers(-1, 3).map(str)).map(":".join)
_POINTS = st.lists(st.tuples(_NUMBER, _NUMBER).map(",".join),
                   max_size=2).map(";".join)
_FORMATS = st.lists(st.sampled_from(["json", "csv", "svg", "pdf"]),
                    min_size=1, max_size=3).map(",".join)


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["check", "region", "curve", "asym"]))
    argv = [command]
    options = {"--alpha-re": _NUMBER, "--alpha-im": _NUMBER,
               "--format": _FORMATS}
    if command not in ("region", "curve"):
        options["--n"] = _DEGREES
    if command == "region":
        options["--grid"] = _GRID
    if command == "check":
        options["--shift"] = _NUMBER
    if command == "asym":
        options["--z"] = _POINTS
    for key, values in options.items():
        if draw(st.booleans()):
            argv.append(f"{key}={draw(values)}")
    return argv


# ``key = value`` lines of a config file, values typed by hand
_CONFIG = st.lists(st.tuples(
    st.sampled_from(["alpha-re", "alpha-im", "n", "precision", "format",
                     "tol-residual", "tol-boundary", "grid", "shift", "k",
                     "l", "z"]),
    st.text("0123456789.,:;-einfa", max_size=8)), max_size=3)


@given(_argv(), _CONFIG)
@example(["check", "--alpha-re=inf", "--n=5"], [])
@example(["asym", "--z=nan,0"], [])
@example(["asym", "--z=0,0", "--n=3"], [])
@example(["check", "--alpha-re=2.2250738585072014e-308"], [])
@example(["check", "--alpha-re=1e-12", "--n=3"], [])
@example(["check", "--alpha-re=1e-30", "--n=3"], [])
@example(["check", "--alpha-re=1", "--shift=2", "--n=6", "--alpha-im=5"], [])
@example(["realcase", "--k=1", "--l=2", "--n=6"], [])
@example(["asym", "--z=1e300,1e300", "--n=5"], [])
@example(["region", "--grid=1e300:1.5e300:1e300:1.5e300:1"], [])
@settings(max_examples=15, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cli_ends_in_an_exit_code(tmp_path, argv, config):
    # any argument list ends in exit code 0, 1 or 2, never in an exception;
    # argparse ends a usage error in SystemExit(2)
    argv = [*argv, f"--out={tmp_path / 'out'}"]
    if config:
        path = tmp_path / "hypzero.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in config))
        argv.append(f"--config={path}")
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 1, 2)


@pytest.mark.parametrize("eta", ["1e-12", "1e-30"])
def test_tiny_parameter_ends_in_a_tracing_error(tmp_path, capsys, eta):
    # the level curve near w0 ~ eta lies below the rounding of log(1 - w):
    # the lift's first Newton solve fails, and the error names it
    start = time.perf_counter()
    assert main(["check", f"--alpha-re={eta}", "--n=3",
                 f"--out={tmp_path / 'out'}"]) == 1
    assert time.perf_counter() - start < 2.0
    err = capsys.readouterr().err
    assert "error: level-curve Newton" in err
    assert "Traceback" not in err


def test_small_parameter_check_passes(tmp_path, capsys):
    # the InE loop of alpha = 0.01 passes 0.0099 from 0 and goes around 1,
    # about 600 |w0| long; down to 1e-8 the split samples at the saddle
    # need no trace that could start on a branch point
    for alpha, degrees in (("0.01", "15"), ("1e-4", "15"), ("1e-8", "3")):
        assert main(["check", "--alpha-re", alpha, "--n", degrees,
                     "--out", str(tmp_path / alpha)]) == 0, alpha
        assert "passed=True" in capsys.readouterr().out, alpha


@pytest.mark.parametrize("command, defaults", [
    ("check", ["default 10,20,40", "default 1e-10", "default 0", "default json"]),
    ("region", ["default -1:2:-1.5:1.5:20", "default 1e-06", "default out"]),
    ("asym", ["default 1.2,0.3", "default 1"])])
def test_help_prints_each_default(capsys, command, defaults):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    text = " ".join(capsys.readouterr().out.split())
    for default in defaults:
        assert default in text
