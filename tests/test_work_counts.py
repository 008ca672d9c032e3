"""Work counts pinned to a record made at an earlier commit.

``data/work_counts.json`` holds the work that three of the benchmark's
inputs do under its tracer (``perfbench/tracing.py``): each span's call
count and exact counters (``rows``, ``bytes``, ``term_rows``,
``term_pairs``), and the hits and misses that each moment-engine cache
gains during the run.  It holds no times.  The inputs are the code paths of
the three workloads: a 5000-sample ``beta_clt`` run at ``--threads 2``
(run-beta-t2), a 5000-sample chaos2 replicate (chain-chaos2) and one
symbolic pass over the first two polynomials of the seeded corpus
(symbolic-exact).  Each input runs once untraced before its traced run, as
the benchmark's warm-up does: the lru caches are process-wide, so the counts
then do not depend on which tests ran before.

A missed tracer binding reads as zero calls, so this also fails when a span
stops being recorded.

Re-record, from the repository root: ``PYTHONPATH=src python
tests/test_work_counts.py``.  Do so only for a change that is meant to alter
the work done, and say why in CHANGES.md.
"""

import json
import os
import sys
import tempfile

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402

PATH = os.path.join(os.path.dirname(__file__), "data", "work_counts.json")
SAMPLES = 5000
SEED = 1


def _beta_run(workdir):
    run = workloads.RunBetaT2(seed=SEED, workdir=workdir)
    config = run._write_config("small.json", SEED, SAMPLES)
    return lambda: run._run(config, 2)


def _chaos2(workdir):
    chaos2 = workloads.ChainChaos2(seed=SEED, workdir=workdir)
    return lambda: chaos2._replicate(SAMPLES)


def _symbolic(workdir):
    symbolic = workloads.SymbolicExact(seed=SEED, workdir=workdir)
    return lambda: symbolic._pass(symbolic.corpus[:2])


INPUTS = {"run-beta-t2": _beta_run, "chain-chaos2": _chaos2,
          "symbolic-exact": _symbolic}


def work_record(name: str, workdir: str) -> dict:
    """The traced counts of one input, after one untraced run of it."""
    unit = INPUTS[name](workdir)
    unit()
    tracer = tracing.Tracer()
    before = tracing.cache_counts()
    uninstall = tracing.install(tracer)
    try:
        unit()
    finally:
        uninstall()
    after = tracing.cache_counts()
    return {
        "spans": {span: {"calls": stat.calls, **stat.counts}
                  for span, stat in sorted(tracer.stats.items())},
        "caches": {cache: {"hits": after[cache][0] - before[cache][0],
                           "misses": after[cache][1] - before[cache][1]}
                   for cache in sorted(after)},
    }


@pytest.mark.parametrize("name", INPUTS)
def test_work_counts_match_record(name, tmp_path):
    with open(PATH) as fh:
        recorded = json.load(fh)[name]
    assert work_record(name, str(tmp_path)) == recorded


if __name__ == "__main__":
    record = {}
    for name in INPUTS:
        with tempfile.TemporaryDirectory() as tmp:
            record[name] = work_record(name, tmp)
    with open(PATH, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
