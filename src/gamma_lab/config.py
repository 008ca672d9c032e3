"""Experiment configuration: strict JSON schema, hashing, manifests.

Configs are single JSON objects with a versioned ``schema`` field.  Unknown
keys are hard errors: a typo in a scientific run should fail loudly before
any computation starts, not silently fall back to a default.  All
randomness derives from the single ``seed`` through named substreams
(scenario, replicate), so any cell of any output can be reproduced in
isolation.

``_SCENARIOS`` is the one list of scenarios: the keys each takes, the
chain sequence it runs and its default family.

A run writes a ``manifest.json`` next to its CSVs recording the embedded
config, its hash, the seed, package version, coarse timings and the output
file list.  Feeding a manifest back to ``run`` re-executes the embedded
config and reproduces the CSVs byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .anticoncentration import MIN_STABILITY_FACTOR
from .errors import ConfigError
from .measures import MeasureFamily, beta, gamma, gaussian
from .poly import Polynomial
from .tv_bound import SEQUENCES

CONFIG_SCHEMA = "gamma-lab/1"
MANIFEST_SCHEMA = "gamma-lab-manifest/1"

_COMMON_KEYS = {"schema", "scenario", "seed", "out"}

# Each scenario: the keys it takes besides _COMMON_KEYS; the SEQUENCES name
# of the chain it runs (tv_chain's is its "sequence" key); and the family
# record that stands in for an absent "family".
_CHAIN_KEYS = {"family", "n_grid", "samples", "replicates"}
_SCENARIOS = {
    "clt_linear": (_CHAIN_KEYS, "clt_linear", {"kind": "gaussian"}),
    "chaos2": (_CHAIN_KEYS, "chaos2", {"kind": "gaussian"}),
    "gamma_clt": (_CHAIN_KEYS, "clt_linear", {"kind": "gamma", "r": 2}),
    "beta_clt": (_CHAIN_KEYS, "clt_linear", {"kind": "beta", "a": 2, "b": 2}),
    "cos2_counterexample": ({"n_grid"}, None, None),
    "cw_sweep": ({"family", "poly", "alphas", "samples", "stability_factor"}, None, None),
    "tv_chain": (_CHAIN_KEYS | {"sequence"}, None, None),
    "custom": ({"family", "poly_files", "samples", "replicates"}, None, None),
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
    polys: tuple[Polynomial, ...] = ()  # cw_sweep's poly, or custom's poly_files in order
    stability_factor: int | None = 10
    out: str | None = None
    raw: dict = field(default_factory=dict, compare=False)


_REQUIRED = object()

# The one rule (kind, minimum) of each numeric config key.  A CLI option or
# a distance-spec field that stands for the same quantity is checked by it.
_KEY_RULES = {
    "seed": (int, 0),
    "samples": (int, 1),
    "replicates": (int, 1),
    "stability_factor": (int, MIN_STABILITY_FACTOR),
}


def check_keys(record, allowed, what: str) -> None:
    """The one unknown-key check of a keyed record: a config, a family, a
    tv-bound file or a distance spec's key=value fields."""
    unknown = set(record) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown {what}: {sorted(unknown)}")


def read_field(record: dict, key: str, kind=None, *, default=_REQUIRED, text=None):
    """``record[key]`` under the one rule for numeric inputs, or ConfigError.

    Config keys, CLI option values, tv-bound records and distance-spec
    fields all come through here.  ``kind`` is int, float, Fraction (a
    family parameter), ``[kind]`` for a list, or a config key whose rule
    applies (None: the rule of ``key``).  A boolean is never a number, nor
    is a string, except a family parameter's "p/q".  An int field takes
    integers, a float field ints and floats, each finite as a float; a
    family parameter keeps an int exact for the family to check.  ``text``
    marks command-line text: its strings are read as the int or float they
    spell, a list as comma-separated items, and it names the key in
    messages (``--alphas``).  An absent key gives ``default`` if there is one.
    """
    name = text(key) if text else key
    if key not in record:
        if default is _REQUIRED:
            raise ConfigError(f"missing {name}")
        return default
    minimum = None
    if kind is None or isinstance(kind, str):
        kind, minimum = _KEY_RULES[kind or key]
    value = record[key]
    many = isinstance(kind, list)
    if many:
        kind = kind[0]
        if text and isinstance(value, str):
            value = value.split(",")
        if not isinstance(value, list):
            raise ConfigError(f"{name} must be a list, got {value!r}")
    checked = []
    for i, v in enumerate(value if many else [value], 1):
        label = f"item {i} of {name}" if many else name
        for spell in (int, float) if text and isinstance(v, str) else ():
            try:
                v = spell(v)
                break
            except ValueError:
                pass
        if kind is Fraction and isinstance(v, str):
            try:
                v = Fraction(v)
            except (ValueError, ZeroDivisionError):
                raise ConfigError(f"{label} must be a number or 'p/q', got {v!r}") from None
        elif isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(f"{label} must be a number, got {v!r}")
        elif kind is int and not isinstance(v, int):
            raise ConfigError(f"{label} must be an integer, got {v!r}")
        elif kind is not Fraction or isinstance(v, float):
            if not abs(v) <= sys.float_info.max:  # NaN, inf, an int beyond float range
                raise ConfigError(f"{label} must be finite as a float, got {v!r}")
            v = float(v) if kind is float else v
        if minimum is not None and v < minimum:
            raise ConfigError(f"{label} must be >= {minimum}, got {v}")
        checked.append(v)
    return checked if many else checked[0]


_FAMILIES = {"gaussian": (gaussian, ()), "gamma": (gamma, ("r",)), "beta": (beta, ("a", "b"))}


def parse_family(data, text=None) -> MeasureFamily:
    """A family record {kind, r?, a?, b?}; ``text`` as in :func:`read_field`."""
    if not isinstance(data, dict):
        raise ConfigError("family must be an object {kind, r?, a?, b?}")
    kind = data.get("kind")
    if kind not in _FAMILIES:
        raise ConfigError(f"unknown family kind {kind!r}")
    make, params = _FAMILIES[kind]
    check_keys(data, {"kind", *params}, f"{kind} family keys")
    return make(*(read_field(data, key, Fraction, text=text) for key in params))


def parse_config(data: dict, text=None) -> ExperimentConfig:
    """Validate a raw config dict; raises ConfigError on any schema problem.

    Every polynomial the run takes is parsed into ``polys`` last, so a
    malformed one (exit 3) comes after every exit-2 fault of the record.

    ``text`` is for a record that a front-end builds from its command-line
    options: it names each key as the option typed (see :func:`read_field`).
    """
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    if data.get("schema") != CONFIG_SCHEMA:
        raise ConfigError(
            f"config schema must be {CONFIG_SCHEMA!r}, got {data.get('schema')!r}"
        )
    scenario = data.get("scenario")
    if not isinstance(scenario, str) or scenario not in _SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}; choose from {tuple(_SCENARIOS)}")
    keys, sequence, default_family = _SCENARIOS[scenario]
    check_keys(data, _COMMON_KEYS | keys, f"config keys for scenario {scenario}")

    def ascending(key, kind, default=_REQUIRED):
        values = read_field(data, key, [kind], default=default, text=text)
        if values is not None and (
            not values or values[0] <= 0 or any(b <= a for a, b in zip(values, values[1:]))
        ):
            name = text(key) if text else key
            raise ConfigError(f"{name} must be a nonempty, positive, ascending list")
        return values and tuple(values)

    seed = read_field(data, "seed", default=0, text=text)
    out = data.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError("out must be a string path")

    # The family comes before every scenario field: a family out of its
    # range exits 3 ahead of any exit-2 fault in the rest of the record.
    family = None
    if "family" in data or default_family:
        family = parse_family(data.get("family", default_family), text)

    # One check order for every scenario; each field only where it is taken.
    kwargs: dict = {}
    if "n_grid" in keys:
        kwargs["n_grid"] = ascending("n_grid", int)
    if "poly_files" in keys:
        files = data.get("poly_files")
        if not isinstance(files, list) or not files or not all(
            isinstance(f, str) for f in files
        ):
            raise ConfigError("poly_files must be a nonempty list of paths")
    if "sequence" in keys:
        sequence = data.get("sequence")
        if not isinstance(sequence, str) or sequence not in SEQUENCES:
            raise ConfigError(
                f"{scenario} requires sequence {' or '.join(map(repr, SEQUENCES))}"
            )
    if "family" in keys and family is None:
        raise ConfigError(f"{scenario} requires a family")
    if "poly" in keys and not isinstance(data.get("poly"), dict):
        raise ConfigError("cw_sweep requires an inline poly record")
    if "alphas" in keys:
        kwargs["alphas"] = ascending("alphas", float, default=None) or tuple(
            10.0 ** (-3 + i / 4) for i in range(13)
        )
    for key in ("samples", "replicates"):  # absent: the ExperimentConfig default
        if key in data:
            kwargs[key] = read_field(data, key, text=text)
    if data.get("stability_factor", 0) is None:
        kwargs["stability_factor"] = None
    elif "stability_factor" in data:
        kwargs["stability_factor"] = read_field(data, "stability_factor", text=text)
    if "poly" in keys:
        kwargs["polys"] = (Polynomial.from_json_dict(data["poly"]),)
    elif "poly_files" in keys:
        kwargs["polys"] = tuple(map(read_poly_file, files))

    return ExperimentConfig(scenario=scenario, seed=seed, family=family, sequence=sequence,
                            out=out, raw=dict(data), **kwargs)


def read_poly_file(path: str, exact: bool | None = None) -> Polynomial:
    """The polynomial in a JSON file.

    A path that cannot be read is a ConfigError; bytes that are not UTF-8,
    or not a polynomial record, are a PreconditionError.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read polynomial file {path}: {exc}") from exc
    return Polynomial.from_json(data, exact=exact)


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
    except ValueError as exc:  # JSONDecodeError, or an int over the digit limit
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if isinstance(data, dict) and data.get("schema") == MANIFEST_SCHEMA:
        embedded = data.get("config")
        if not isinstance(embedded, dict):
            raise ConfigError(f"manifest {path} has no embedded config")
        return embedded
    return data
