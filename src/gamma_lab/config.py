"""Experiment configuration: strict JSON schema, hashing, manifests.

Configs are single JSON objects with a versioned ``schema`` field.  Unknown
keys are hard errors: a typo in a scientific run should fail loudly before
any computation starts, not silently fall back to a default.  All
randomness derives from the single ``seed`` through named substreams
(scenario, replicate), so any cell of any output can be reproduced in
isolation.

A run writes a ``manifest.json`` next to its CSVs recording the embedded
config, its hash, the seed, package version, coarse timings and the output
file list.  Feeding a manifest back to ``run`` re-executes the embedded
config and reproduces the CSVs byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .anticoncentration import MIN_STABILITY_FACTOR
from .errors import ConfigError
from .measures import MeasureFamily, beta, gamma, gaussian

CONFIG_SCHEMA = "gamma-lab/1"
MANIFEST_SCHEMA = "gamma-lab-manifest/1"

SCENARIOS = (
    "clt_linear",
    "chaos2",
    "gamma_clt",
    "beta_clt",
    "cos2_counterexample",
    "cw_sweep",
    "tv_chain",
    "custom",
)

_CHAIN_SCENARIOS = ("clt_linear", "chaos2", "gamma_clt", "beta_clt", "tv_chain", "custom")

_COMMON_KEYS = {"schema", "scenario", "seed", "out"}
_ALLOWED_KEYS = {
    "cos2_counterexample": _COMMON_KEYS | {"n_grid"},
    "clt_linear": _COMMON_KEYS | {"family", "n_grid", "samples", "replicates"},
    "chaos2": _COMMON_KEYS | {"family", "n_grid", "samples", "replicates"},
    "gamma_clt": _COMMON_KEYS | {"family", "n_grid", "samples", "replicates"},
    "beta_clt": _COMMON_KEYS | {"family", "n_grid", "samples", "replicates"},
    "tv_chain": _COMMON_KEYS | {"family", "sequence", "n_grid", "samples", "replicates"},
    "custom": _COMMON_KEYS | {"family", "poly_files", "samples", "replicates"},
    "cw_sweep": _COMMON_KEYS | {"family", "poly", "alphas", "samples", "stability_factor"},
}

_DEFAULT_FAMILY = {
    "clt_linear": lambda: gaussian(),
    "chaos2": lambda: gaussian(),
    "gamma_clt": lambda: gamma(2),
    "beta_clt": lambda: beta(2, 2),
}


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str
    seed: int
    family: MeasureFamily | None = None
    sequence: str | None = None
    n_grid: tuple[int, ...] = ()
    samples: int = 1_000_000
    replicates: int = 1
    alphas: tuple[float, ...] = ()
    poly: dict | None = None
    poly_files: tuple[str, ...] = ()
    stability_factor: int | None = 10
    out: str | None = None
    raw: dict = field(default_factory=dict, compare=False)


def _parse_param(value, name: str):
    """Family parameters: ints and 'p/q' strings stay exact, floats stay float."""
    if isinstance(value, bool):
        raise ConfigError(f"family parameter {name} must be a number")
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ConfigError(f"family parameter {name} must be finite, got {value}")
        return value
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"cannot parse family parameter {name}={value!r}") from exc
    raise ConfigError(f"family parameter {name} must be a number, got {type(value)!r}")


def parse_family(data) -> MeasureFamily:
    if not isinstance(data, dict):
        raise ConfigError("family must be an object {kind, r?, a?, b?}")
    unknown = set(data) - {"kind", "r", "a", "b"}
    if unknown:
        raise ConfigError(f"unknown family keys: {sorted(unknown)}")
    kind = data.get("kind")
    if kind == "gaussian":
        if set(data) - {"kind"}:
            raise ConfigError("gaussian family takes no parameters")
        return gaussian()
    if kind == "gamma":
        if "r" not in data or set(data) - {"kind", "r"}:
            raise ConfigError("gamma family takes exactly the parameter r")
        return gamma(_parse_param(data["r"], "r"))
    if kind == "beta":
        if "a" not in data or "b" not in data or set(data) - {"kind", "a", "b"}:
            raise ConfigError("beta family takes exactly the parameters a, b")
        return beta(_parse_param(data["a"], "a"), _parse_param(data["b"], "b"))
    raise ConfigError(f"unknown family kind {kind!r}")


def _require_int(data, key, minimum=None) -> int:
    value = data.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{key} must be >= {minimum}, got {value}")
    return value


def _parse_n_grid(data) -> tuple[int, ...]:
    grid = data.get("n_grid")
    if (
        not isinstance(grid, list)
        or not grid
        or not all(isinstance(v, int) and not isinstance(v, bool) and v >= 1 for v in grid)
    ):
        raise ConfigError("n_grid must be a nonempty list of positive integers")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError("n_grid must be strictly ascending")
    return tuple(grid)


def parse_config(data: dict) -> ExperimentConfig:
    """Validate a raw config dict; raises ConfigError on any schema problem."""
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    if data.get("schema") != CONFIG_SCHEMA:
        raise ConfigError(
            f"config schema must be {CONFIG_SCHEMA!r}, got {data.get('schema')!r}"
        )
    scenario = data.get("scenario")
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}; choose from {SCENARIOS}")
    allowed = _ALLOWED_KEYS[scenario]
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(
            f"unknown config keys for scenario {scenario}: {sorted(unknown)}"
        )
    seed = _require_int(data, "seed", minimum=0) if "seed" in data else 0
    out = data.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError("out must be a string path")

    family = None
    if "family" in data:
        family = parse_family(data["family"])
    elif scenario in _DEFAULT_FAMILY:
        family = _DEFAULT_FAMILY[scenario]()

    kwargs: dict = {}
    if scenario == "cos2_counterexample":
        kwargs["n_grid"] = _parse_n_grid(data)
    elif scenario in _CHAIN_SCENARIOS:
        if scenario == "custom":
            files = data.get("poly_files")
            if not isinstance(files, list) or not files or not all(
                isinstance(f, str) for f in files
            ):
                raise ConfigError("poly_files must be a nonempty list of paths")
            kwargs["poly_files"] = tuple(files)
        else:
            kwargs["n_grid"] = _parse_n_grid(data)
        if scenario == "tv_chain":
            seq = data.get("sequence")
            if seq not in ("clt_linear", "chaos2"):
                raise ConfigError(
                    "tv_chain requires sequence 'clt_linear' or 'chaos2'"
                )
            kwargs["sequence"] = seq
            if family is None:
                raise ConfigError("tv_chain requires a family")
        if scenario == "custom" and family is None:
            raise ConfigError("custom scenario requires a family")
        kwargs["samples"] = (
            _require_int(data, "samples", minimum=1) if "samples" in data else 1_000_000
        )
        kwargs["replicates"] = (
            _require_int(data, "replicates", minimum=1) if "replicates" in data else 1
        )
    elif scenario == "cw_sweep":
        if family is None:
            raise ConfigError("cw_sweep requires a family")
        poly = data.get("poly")
        if not isinstance(poly, dict):
            raise ConfigError("cw_sweep requires an inline poly record")
        kwargs["poly"] = poly
        alphas = data.get("alphas")
        if alphas is not None:
            if (
                not isinstance(alphas, list)
                or not alphas
                or not all(isinstance(a, (int, float)) and a > 0 for a in alphas)
                or any(b <= a for a, b in zip(alphas, alphas[1:]))
            ):
                raise ConfigError("alphas must be a positive ascending list")
            kwargs["alphas"] = tuple(float(a) for a in alphas)
        else:
            kwargs["alphas"] = tuple(10.0 ** (-3 + i / 4) for i in range(13))
        kwargs["samples"] = (
            _require_int(data, "samples", minimum=1) if "samples" in data else 1_000_000
        )
        if "stability_factor" in data:
            sf = data["stability_factor"]
            if sf is not None:
                sf = _require_int(data, "stability_factor", minimum=MIN_STABILITY_FACTOR)
            kwargs["stability_factor"] = sf

    return ExperimentConfig(
        scenario=scenario, seed=seed, family=family, out=out, raw=dict(data), **kwargs
    )


def config_hash(data: dict) -> str:
    canon = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def load_config_file(path) -> dict:
    """Read a config file; a manifest unwraps to its embedded config."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if isinstance(data, dict) and data.get("schema") == MANIFEST_SCHEMA:
        embedded = data.get("config")
        if not isinstance(embedded, dict):
            raise ConfigError(f"manifest {path} has no embedded config")
        return embedded
    return data
