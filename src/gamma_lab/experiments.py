"""Scenario execution: reproducible CSV outputs and run manifests.

Each scenario turns an :class:`~gamma_lab.config.ExperimentConfig` into one
or more CSV files plus a ``manifest.json``.  Replicates are independent
named substreams of the config seed.  A chain run spreads its threads over
replicates first: ``min(threads, replicates)`` replicates run at once, and
each splits its pool pass over ``threads // min(threads, replicates)``
workers by chunk (``pool_threads`` in the manifest), so a single replicate
uses every thread.  Both maps return results in order and the CSV bytes do
not depend on the thread count.  Floats are serialized with ``repr``
(shortest round-trip form) to keep outputs byte-stable; :func:`write_csv`
refuses a NaN or infinite cell before it opens the file.
"""

from __future__ import annotations

import json
import math
import os
import time

import numpy as np

from . import __version__
from .anticoncentration import carbery_wright_check
from .config import (
    MANIFEST_SCHEMA,
    ExperimentConfig,
    config_hash,
)
from .distances import AnalyticLaw, kolmogorov, total_variation
from .errors import ConfigError, PreconditionError
from .measures import ProductMeasure
from .poly import Polynomial
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


def _thread_count(threads: int | None) -> int:
    if threads is not None:
        return max(1, threads)
    env = os.environ.get("GAMMA_LAB_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ConfigError(f"GAMMA_LAB_THREADS must be an integer: {env!r}") from exc
    return 1


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


def _run_cos2(config: ExperimentConfig, out_dir: str) -> tuple[list[str], dict]:
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
    return [path], timings


def _chain_builder(config: ExperimentConfig):
    if config.scenario == "custom":
        elements = []
        for fname in config.poly_files:
            try:
                with open(fname) as fh:
                    elements.append(Polynomial.from_json(fh.read()))
            except OSError as exc:
                raise ConfigError(f"cannot read polynomial file {fname}: {exc}") from exc
        n_grid = tuple(range(1, len(elements) + 1))
        return (lambda n: elements[n - 1]), n_grid
    sequence = config.sequence if config.scenario == "tv_chain" else (
        "chaos2" if config.scenario == "chaos2" else "clt_linear"
    )
    builder_fn = SEQUENCES[sequence]
    family = config.family
    return (lambda n: builder_fn(family, n)), config.n_grid


def _run_chain(
    config: ExperimentConfig, out_dir: str, threads: int
) -> tuple[list[str], dict]:
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
    return [path, summary], {"replicates_s": replicate_s, "pool_threads": pool_threads}


def _run_cw_sweep(config: ExperimentConfig, out_dir: str) -> tuple[list[str], dict]:
    q = Polynomial.from_json_dict(config.poly)
    mu = ProductMeasure(config.family, q.dim)
    t0 = time.time()
    report = carbery_wright_check(
        q, mu, np.asarray(config.alphas), config.samples, config.seed,
        stability_factor=config.stability_factor,
    )
    timings = {"sweep_s": round(time.time() - t0, 3)}
    rows = [
        [a, p, s, r]
        for a, p, s, r in zip(
            report.curve.alphas, report.curve.probs,
            report.curve.stderrs, report.ratios,
        )
    ]
    path = os.path.join(out_dir, "cw_sweep.csv")
    write_csv(path, ["alpha", "estimate", "stderr", "ratio"], rows)
    return [path], timings


def run_experiment(
    config: ExperimentConfig, out_dir: str | None = None, threads: int | None = None
) -> dict:
    """Execute a validated config; returns the manifest dict (also written).

    The output directory is created only after validation has passed, so a
    rejected config leaves no files behind.
    """
    threads = _thread_count(threads)
    out_dir = out_dir or config.out or "."
    started = time.time()
    os.makedirs(out_dir, exist_ok=True)

    if config.scenario == "cos2_counterexample":
        outputs, timings = _run_cos2(config, out_dir)
    elif config.scenario == "cw_sweep":
        outputs, timings = _run_cw_sweep(config, out_dir)
    else:
        outputs, timings = _run_chain(config, out_dir, threads)

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
    manifest_path = os.path.join(out_dir, "manifest.json")
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest
