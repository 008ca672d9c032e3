"""Record the n=4 d_tv_hat reference of each chain workload in reference.json.

The chain check accepts a unit's n=4 d_tv_hat when it lies within
``TOL_SIGMAS`` replicate standard deviations of the median recorded here.
Both come from one unit of the workload itself on each of ``REPLICATES``
seeds that the benchmark's own runs do not use.  Run from the repository
root (about four minutes):

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402

REPLICATES = 16
FIRST_SEED = 10_000
TOL_SIGMAS = 6.0


def main() -> None:
    out = {}
    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    for name in ("chain-chaos2", "run-beta-t2"):
        values = []
        for seed in range(FIRST_SEED, FIRST_SEED + REPLICATES):
            with tempfile.TemporaryDirectory(dir=tmp_root) as workdir:
                workload = workloads.WORKLOADS[name](seed, workdir)
                values.append(workload.rows(workload.unit())[0]["d_tv_hat"])
        sd = statistics.stdev(values)
        out[name] = {
            "median": statistics.median(values),
            "sd": sd,
            "tol": TOL_SIGMAS * sd,
            "replicates": REPLICATES,
            "seeds": [FIRST_SEED, FIRST_SEED + REPLICATES - 1],
        }
        print(name, out[name], file=sys.stderr)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")
    try:
        os.rmdir(tmp_root)
    except OSError:  # still in use by a benchmark run
        pass


if __name__ == "__main__":
    main()
