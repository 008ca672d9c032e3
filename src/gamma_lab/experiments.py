"""Scenario execution: reproducible CSV outputs and run manifests.

Each scenario turns an :class:`~gamma_lab.config.ExperimentConfig` into one
or more CSV files plus a ``manifest.json``.  Every input, polynomials
included, is parsed into the config before ``--out`` exists, so this module
opens only its outputs.  Replicates are independent named substreams of the
config seed.  A chain run spreads its threads over replicates first:
``min(threads, replicates)`` replicates run at once, and each splits its
pool pass over ``threads // min(threads, replicates)`` workers by chunk
(``pool_threads`` in the manifest), so a single replicate uses every thread.
Both maps return results in order and the CSV bytes do not depend on the
thread count.  The manifest's ``diagnostics`` hold a chain run's per-row
estimator diagnostics, or a cw_sweep's fitted c_hat and its stability check.
Floats are serialized with ``repr`` (shortest round-trip form) to keep
outputs byte-stable; :func:`write_csv` refuses a NaN or infinite cell before
it opens the file.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import time

import numpy as np

from . import __version__
from .anticoncentration import CWReport, carbery_wright_check
from .config import (
    MANIFEST_SCHEMA,
    ExperimentConfig,
    config_hash,
)
from .distances import AnalyticLaw, kolmogorov, total_variation
from .errors import PreconditionError
from .sampling import derive_seed, ordered_map
from .tv_bound import SEQUENCES, run_chain_replicate


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    for row in rows:
        for name, value in zip(header, row):
            if isinstance(value, (float, np.floating)) and not math.isfinite(value):
                raise PreconditionError(
                    f"non-finite {name} = {value!r}; {os.path.basename(path)} not written"
                )
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


def _run_cos2(config: ExperimentConfig, out_dir: str) -> tuple[list[str], dict, None]:
    uniform = AnalyticLaw.uniform_0_pi()
    rows = []
    timings = {}
    for n in config.n_grid:
        t0 = time.time()
        law = AnalyticLaw.cos2(n)
        kol = kolmogorov(law, uniform)
        tv = total_variation(law, uniform)
        rows.append([n, kol.estimate, tv.estimate, kol.method, tv.method])
        timings[f"n={n}_s"] = round(time.time() - t0, 3)
    path = os.path.join(out_dir, "cos2_counterexample.csv")
    write_csv(path, ["n", "d_kol", "d_tv", "kol_method", "tv_method"], rows)
    return [path], timings, None


def _chain_builder(config: ExperimentConfig):
    if config.sequence is None:  # custom: the chain of its polynomial files
        return (lambda n: config.polys[n - 1]), tuple(range(1, len(config.polys) + 1))
    builder_fn = SEQUENCES[config.sequence]
    family = config.family
    return (lambda n: builder_fn(family, n)), config.n_grid


# Per-row estimator diagnostics of a chain run, written to the manifest only.
_DIAGNOSTIC_FIELDS = ("n", "d_tv_hat", "d_tv_floor", "above_floor", "bound",
                      "vacuous", "at_grid_edge", "tv_bins", "fm_step")


def _run_chain(
    config: ExperimentConfig, out_dir: str, threads: int
) -> tuple[list[str], dict, list[dict]]:
    builder, n_grid = _chain_builder(config)
    replicate_s = [0.0] * config.replicates
    pool_threads = threads // min(threads, config.replicates)

    def one(rep: int):
        t0 = time.time()
        rep_seed = derive_seed(config.seed, "replicate", rep)
        rows = run_chain_replicate(
            builder, config.family, n_grid, config.samples, rep_seed,
            threads=pool_threads,
        )
        replicate_s[rep] = round(time.time() - t0, 3)
        return rows

    results = ordered_map(one, range(config.replicates), threads)
    # Single replicate: exactly the documented chain columns; otherwise a
    # leading replicate index distinguishes the blocks.
    header = ["n", "d_fm", "d_tv_hat", "kappa", "budget",
              "alpha_star", "eps_star", "bound"]
    rows = []
    for rep, chain in enumerate(results):
        for r in chain:
            rows.append([r.n, r.d_fm, r.d_tv_hat, r.kappa, r.budget,
                         r.alpha_star, r.eps_star, r.bound])
            if config.replicates > 1:
                rows[-1].insert(0, rep)
    if config.replicates > 1:
        header = ["replicate"] + header
    diagnostics = [
        {"replicate": rep, **{k: getattr(r, k) for k in _DIAGNOSTIC_FIELDS}}
        for rep, chain in enumerate(results)
        for r in chain
    ]
    path = os.path.join(out_dir, f"{config.scenario}.csv")
    write_csv(path, header, rows)

    summary_rows = []
    for idx, n in enumerate(n_grid):
        d_fm = float(np.median([chain[idx].d_fm for chain in results]))
        d_tv = float(np.median([chain[idx].d_tv_hat for chain in results]))
        bound = float(np.median([chain[idx].bound for chain in results]))
        summary_rows.append([n, d_fm, d_tv, bound])
    summary = os.path.join(out_dir, f"{config.scenario}_summary.csv")
    write_csv(summary, ["n", "d_fm_median", "d_tv_median", "bound_median"],
              summary_rows)
    timings = {"replicates_s": replicate_s, "pool_threads": pool_threads}
    return [path, summary], timings, diagnostics


CW_HEADER = ["alpha", "estimate", "stderr", "ratio"]


def cw_sweep_rows(config: ExperimentConfig) -> tuple[list[list], CWReport]:
    """The small-ball sweep of a cw_sweep config: CSV rows and report.

    The scenario and the ``cw-check`` command both compute through here.
    """
    report = carbery_wright_check(
        config.polys[0], config.family, np.asarray(config.alphas),
        config.samples, config.seed, stability_factor=config.stability_factor,
    )
    curve = report.curve
    rows = [list(r) for r in zip(curve.alphas, curve.probs, curve.stderrs, report.ratios)]
    return rows, report


def _run_cw_sweep(config: ExperimentConfig, out_dir: str) -> tuple[list[str], dict, dict]:
    t0 = time.time()
    rows, report = cw_sweep_rows(config)
    timings = {"sweep_s": round(time.time() - t0, 3)}
    path = os.path.join(out_dir, "cw_sweep.csv")
    write_csv(path, CW_HEADER, rows)
    # The fit and its stability check at stability_factor x the samples;
    # the refined fields are null when stability_factor is null.
    diagnostics = {
        "c_hat": report.c_hat,
        "c_hat_refined": report.c_hat_refined,
        "stable": report.stable,
        "n": report.params["n"],
        "n_refined": report.params["n_refined"],
    }
    return [path], timings, diagnostics


def run_experiment(
    config: ExperimentConfig, out_dir: str | None = None, threads: int | None = None
) -> dict:
    """Execute a validated config; returns the manifest dict (also written).

    Every input was parsed with the config, before the output directory
    exists, so a rejected one leaves no files behind; a run that fails
    removes the directories this call created.
    """
    threads = 1 if threads is None else max(1, threads)
    out_dir = out_dir or config.out or "."
    started = time.time()
    created = None  # the outermost directory that makedirs creates
    parent = os.path.abspath(out_dir)
    while not os.path.exists(parent):
        created, parent = parent, os.path.dirname(parent)
    os.makedirs(out_dir, exist_ok=True)

    try:
        if config.scenario == "cos2_counterexample":
            outputs, timings, diagnostics = _run_cos2(config, out_dir)
        elif config.scenario == "cw_sweep":
            outputs, timings, diagnostics = _run_cw_sweep(config, out_dir)
        else:
            outputs, timings, diagnostics = _run_chain(config, out_dir, threads)
    except BaseException:
        if created:
            shutil.rmtree(created, ignore_errors=True)
        raise

    timings["total_s"] = round(time.time() - started, 3)
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "config": config.raw,
        "config_hash": config_hash(config.raw),
        "seed": config.seed,
        "version": __version__,
        "timings": timings,
        "outputs": [os.path.basename(p) for p in outputs],
    }
    if diagnostics is not None:
        manifest["diagnostics"] = diagnostics
    manifest_path = os.path.join(out_dir, "manifest.json")
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest
