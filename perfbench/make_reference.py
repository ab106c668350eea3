"""Write the seed-0 reference outputs the benchmark compares against.

    python3 perfbench/make_reference.py [workload ...]

Runs one pass of each named workload (all by default) on the seed-0 inputs
and stores its zeros and labels under ``perfbench/reference/``.  Only
regenerate after a change that is meant to move the outputs, and say so.
"""

import json
import os
import sys
import tempfile

import run

if __name__ == "__main__":
    run._import_package()
    from workloads import REFERENCE_DIR, WORKLOADS

    os.makedirs(REFERENCE_DIR, exist_ok=True)
    os.makedirs(run.OUT, exist_ok=True)
    for name in sys.argv[1:] or sorted(WORKLOADS):
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp_dir:
            result = WORKLOADS[name](0, tmp_dir).run_pass()
        if result.failed:
            sys.exit(f"{name}: {result.failed} operations failed")
        path = os.path.join(REFERENCE_DIR, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(result.fingerprint, fh, sort_keys=True)
        print(f"{name}: wrote {path}")
