"""The benchmark's workloads reach every layer they require.

``perfbench/run.py --trace 1`` fails a workload when a span named in its
``expect_called`` records no call, or one in its ``expect_idle`` records
any.  This runs each workload's own code path on a small input under the
benchmark's tracer, so a change that stops calling a required layer (say, an
L or Gamma that no longer builds the coefficient polynomials that make every
``poly.add`` call) fails here too.
"""

import os
import sys

from gamma_lab import tv_bound

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402

SAMPLES = 5000


def _uncalled(tracer, names):
    return [name for name in names
            if name not in tracer.stats or tracer.stats[name].calls == 0]


def test_chain_workloads_call_every_expected_layer(tmp_path):
    beta_run = workloads.RunBetaT2(seed=1, workdir=str(tmp_path))
    config = beta_run._write_config("small.json", 1, SAMPLES)
    chaos2 = workloads.ChainChaos2(seed=1, workdir=str(tmp_path))
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        beta_run._run(config, 2)
        assert _uncalled(tracer, workloads.RunBetaT2.expect_called) == []
        tracer.reset()
        rows = chaos2._replicate(SAMPLES)
        assert _uncalled(tracer, workloads.ChainChaos2.expect_called) == []
    finally:
        uninstall()
    assert [r.n for r in rows] == workloads.N_GRID
    assert tv_bound.SEQUENCES["chaos2"] is tv_bound.pair_product_sequence


def test_symbolic_workload_calls_every_expected_layer_and_no_idle_one(tmp_path):
    symbolic = workloads.SymbolicExact(seed=1, workdir=str(tmp_path))
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        results = symbolic._pass(symbolic.corpus[:2])
    finally:
        uninstall()
    assert _uncalled(tracer, workloads.SymbolicExact.expect_called) == []
    assert [name for name in workloads.SymbolicExact.expect_idle
            if name in tracer.stats and tracer.stats[name].calls] == []
    assert symbolic.check(results) == []
