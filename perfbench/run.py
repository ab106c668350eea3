"""hypzero benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload check-ladder --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nothing is installed.  A run

* measures set-up: fresh interpreters that import hypzero (with numpy and
  mpmath) and make one warm-up call into each layer the workload uses,
  timed one after another; ``setup_s`` is their median;
* warms up itself, then runs whole passes over the workload's inputs; the
  number of passes follows from ``--seconds`` and the workload's median
  pass time, so it does not depend on the speed of the code measured;
* checks every operation's outputs (see checks.py); a failed check, an
  exception or a nonzero exit counts as a failed operation;
* with ``--trace 0`` prints the end-to-end metrics, with ``--trace 1`` the
  per-layer metrics of a traced run (see tracing.py), which first times one
  untraced pass, so the tracing overhead can be reported.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  Spans of
a traced run are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "op_s.p50": "s",
    "op_s.tail": "s",
    "verified_outputs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _import_package():
    """Import hypzero from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "hypzero", "__init__.py")):
        sys.exit(f"run.py: no hypzero sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import hypzero
    if os.path.dirname(os.path.dirname(os.path.abspath(hypzero.__file__))) != SRC:
        sys.exit(f"run.py: hypzero imported from {hypzero.__file__}, not {SRC}")


def host_info() -> dict:
    import mpmath
    import mpmath.libmp
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
            "machine": platform.machine()}


def tail_quantile(inputs: int) -> float:
    """Highest whole percentile with at least ten inputs beyond it.

    Latencies are one per input (see ``op_latencies``), so the quantile is
    fixed per workload.  A workload with fewer than 11 inputs has no such
    percentile; it uses N/(N+1), the quantile its slowest input estimates
    (p75 for three inputs).
    """
    if inputs < 11:
        return inputs / (inputs + 1.0)
    return math.floor(100.0 * (1.0 - 10.0 / inputs)) / 100.0


def hd_quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile of ``values``.

    A weighted mean of all order statistics, the i-th (of n) weighted by the
    mass a Beta(q(n+1), (1-q)(n+1)) distribution puts on ((i-1)/n, i/n].
    Unlike a single order statistic it does not jump when an input crosses
    its neighbour, and with few inputs it draws on all of them: with three
    inputs the median weighs them 0.26, 0.48, 0.26.  Each interval's mass is
    integrated by 8-point Gauss-Legendre, exact for the polynomial densities
    of small n and accurate to rounding for the narrow ones of large n.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    if n == 1:
        return float(x[0])
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    nodes, node_w = np.polynomial.legendre.leggauss(8)
    t = (np.arange(n)[:, None] + 0.5 + 0.5 * nodes[None, :]) / n
    log_pdf = (a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t)
    mass = np.exp(log_pdf - log_pdf.max()) @ node_w
    return float(mass @ x / mass.sum())


def op_latencies(passes) -> list[float]:
    """One latency per input: the mean time of its operation over the passes.

    Every pass runs the same inputs in the same order, so averaging the
    repeated measurements of each input before taking percentiles across
    inputs keeps the distribution over inputs and damps the host's
    second-to-second jitter.  Passes of unequal length (an operation
    failed) fall back to the pooled samples.
    """
    per_pass = [p.op_s for p in passes]
    if len({len(s) for s in per_pass}) != 1:
        return [t for s in per_pass for t in s]
    return [statistics.fmean(ts) for ts in zip(*per_pass)]


def measure_setup(args) -> list[float]:
    """Wall time of fresh interpreters doing import plus warm-up, in turn."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--setup-probe"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=PROBE_TIMEOUT_S,
                       stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return samples


def run_passes(workload, seconds: float) -> list:
    """The fixed number of whole passes that ``seconds`` buys (see workloads)."""
    return [workload.run_pass()
            for _ in range(max(1, int(seconds // workload.pass_s)))]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    _import_package()
    from workloads import WORKLOADS, load_reference
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(sorted(WORKLOADS))}")

    os.makedirs(OUT, exist_ok=True)
    tmp_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        workload = WORKLOADS[args.workload](args.seed, tmp_dir)
        if args.setup_probe:
            workload.warm_up()
            return 0
        if args.seed == 0:
            workload.reference = load_reference(workload.name)
        return _measure(args, workload)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)


def _traced_passes(args, workload):
    """One untraced pass, then the traced passes; returns passes and metrics."""
    from tracing import Tracer, layer_metrics
    untraced = workload.run_pass()
    tracer = Tracer()
    tracer.install()
    try:
        passes = run_passes(workload, args.seconds)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(
        tracer.spans, len(passes), sum(sum(p.op_s) for p in passes),
        sum(p.busy_s for p in passes) / len(passes), untraced.busy_s)
    path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
    tracer.write(path)
    print(f"spans {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}")
    return [untraced] + passes, metrics


def _measure(args, workload) -> int:
    print("host " + json.dumps(host_info(), sort_keys=True))
    setup = [] if args.trace else measure_setup(args)
    workload.warm_up()

    if args.trace:
        passes, metrics = _traced_passes(args, workload)
    else:
        passes = run_passes(workload, args.seconds)

    op_s = op_latencies(passes)
    busy = sum(p.busy_s for p in passes)
    verified = sum(p.verified for p in passes)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    q = tail_quantile(workload.ops_per_pass)

    print(f"workload {workload.name} seed {args.seed} passes {len(passes)} "
          f"inputs {len(op_s)} trace {args.trace} pass_busy_s "
          f"{[round(p.busy_s, 3) for p in passes]}")
    print(f"failed_ratio {failed / max(attempted, 1)!r} ratio "
          f"({failed} failed of {attempted} attempted)")
    if args.trace:
        from tracing import PER_LAYER_UNITS as units
    else:
        metrics = {
            "op_s.p50": hd_quantile(op_s, 0.5),
            "op_s.tail": hd_quantile(op_s, q),
            "verified_outputs_per_s": verified / busy,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setup),
        }
        units = END_TO_END_UNITS
        print(f"# op_s.*: Harrell-Davis quantiles of {len(op_s)} inputs, "
              f"each the mean of its {len(passes)} pass(es); op_s.tail is "
              f"p{100 * q:g}; "
              f"setup_s: median of {len(setup)} fresh interpreters")
        print(f"# verified_outputs_per_s is {workload.verified_name}: "
              f"{verified} verified over {busy:.3f} s of program time")
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units[name]}")

    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
