"""gamma-lab command line interface.

Subcommands
    run                  execute a configured experiment (config or manifest)
    generator            apply the family generator L to a polynomial
    gamma                carré du champ Gamma(f) or Gamma(f, g)
    decompose            spectral decomposition in the tensor basis
    poincare             Poincaré report for a polynomial
    distance             kol/fm/tv distance between two input specs
    cw-check             small-ball ratio sweep (Carbery-Wright diagnostic)
    smoothed-functional  E[eps/(Gamma(Q)+eps)] over an eps grid
    tv-bound             evaluate | optimize the TV bound
    emit-plot            project a CSV into gnuplot-style column data

Exit codes: 0 success, 2 configuration error, 3 violated precondition
(e.g. family parameters outside the log-concave range, degenerate chain
limit, a NaN or infinite output value), 4 failed internal consistency check.
An --out that cannot be written (a file where a directory must go, or the
reverse) is exit 2, and nothing is written.
Option values and spec fields follow the config rules (exit 2): no boolean
is a number, every number is finite as a float, a seed is >= 0, a sample
count (--samples, a poly spec's n) is >= 1, and a spec's unknown or stray
key is rejected.  ``cw-check`` is the cw_sweep scenario on its options.

Input specs for ``distance``:
    @file.samples                           one float a line; blank, #... and
                                            value lines are skipped
    analytic:uniform                        uniform law on [0, pi]
    analytic:cos2:n=5                       density (2/pi) cos^2(5x) on [0, pi]
    analytic:gaussian:mu=0:sigma=1          normal law
    poly:@q.json:family=gamma:r=2:n=100000:seed=7
                                            sampled polynomial functional
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .anticoncentration import DEFAULT_EPS_GRID, smoothed_indicator_functional
from .config import (
    CONFIG_SCHEMA,
    check_keys,
    read_field,
    load_config_file,
    parse_config,
    parse_family,
    read_poly_file,
)
from .distances import (
    AnalyticLaw,
    SampleSet,
    fortet_mourier,
    functional_samples,
    kolmogorov,
    total_variation,
)
from .errors import ConfigError, ConsistencyError, PreconditionError
from .experiments import CW_HEADER, cw_sweep_rows, run_experiment, write_csv
from .measures import finite_float
from .operators import DiffusionOperator, apply_generator, carre_du_champ
from .operators import poincare_check as _poincare_check
from .operators import spectral_decompose
from .poly import Polynomial
from .tv_bound import evaluate_bound, optimize_bound

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_CONSISTENCY = 4


def _add_family_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True, choices=["gaussian", "gamma", "beta"])
    p.add_argument("--r", default=None, help="gamma parameter r (int, float or p/q)")
    p.add_argument("--a", default=None, help="beta parameter a")
    p.add_argument("--b", default=None, help="beta parameter b")


def _family_record(args) -> dict:
    """The family options as a family record of command-line text."""
    return {"kind": args.family, **{k: getattr(args, k) for k in ("r", "a", "b")
                                    if getattr(args, k) is not None}}


def _option(key: str) -> str:
    """How messages name the option behind a record key: --stability-factor."""
    return "--" + key.replace("_", "-")


def _read_poly(path: str, exact: bool | None) -> Polynomial:
    """The polynomial in a JSON file, or on stdin for ``-``."""
    if path == "-":
        return Polynomial.from_json(sys.stdin.buffer.read(), exact=exact)
    return read_poly_file(path, exact)


def _emit(record, out: str | None, indent: int | None = None) -> None:
    """Write a JSON record to ``out`` or stdout; a NaN or inf in it is exit 3."""
    try:
        text = json.dumps(record, indent=indent, allow_nan=False) + "\n"
    except ValueError as exc:
        raise PreconditionError(f"output is not finite: {exc}") from None
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# The key=value fields each kind of distance spec takes.
_SPEC_KEYS = {"uniform": (), "cos2": ("n",), "gaussian": ("mu", "sigma"),
              "poly": ("family", "r", "a", "b", "n", "seed")}


def _read_samples(path: str) -> SampleSet:
    """A sample file's floats, one a line; blank, ``#`` and ``value`` lines are skipped."""
    try:
        with open(path) as fh:
            values = [float(line) for line in map(str.strip, fh)
                      if line and not line.startswith("#") and line != "value"]
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read sample file {path}: {exc}") from exc
    if not values:
        raise ConfigError(f"sample file {path} is empty")
    return SampleSet(np.asarray(values), provenance=path)


def _parse_spec(spec: str, seed: int):
    """Turn a distance input spec into a SampleSet or AnalyticLaw."""
    if spec.startswith("@"):
        return _read_samples(spec[1:])
    kind, *items = spec.split(":")
    name, opts = None, {}
    for item in items:
        key, eq, val = item.partition("=")
        if eq or name is not None:
            opts[key] = val if eq else None  # a stray token is a key without a value
        else:
            name = item
    if kind == "analytic" and name in ("uniform", "cos2", "gaussian"):
        law = name
    elif kind == "poly" and name and name.startswith("@"):
        law = kind
    else:
        raise ConfigError(f"cannot parse input spec {spec!r}: expected @file, "
                          "analytic:uniform|cos2|gaussian or poly:@file.json")
    check_keys(opts, _SPEC_KEYS[law], f"keys in spec {spec!r}")
    where = f"{{}} of {spec!r}".format
    if law == "uniform":
        return AnalyticLaw.uniform_0_pi()
    if law == "cos2":
        return AnalyticLaw.cos2(read_field(opts, "n", int, default=1, text=where))
    if law == "gaussian":
        return AnalyticLaw.gaussian(read_field(opts, "mu", float, default=0.0, text=where),
                                    read_field(opts, "sigma", float, default=1.0, text=where))
    q = _read_poly(name[1:], exact=None)
    family = parse_family({"kind": opts.get("family"),
                           **{k: opts[k] for k in ("r", "a", "b") if k in opts}}, where)
    n = read_field(opts, "n", "samples", default=100_000, text=where)
    spec_seed = read_field(opts, "seed", default=seed, text=where)
    return functional_samples(q, family, n, spec_seed)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_run(args) -> int:
    raw = load_config_file(args.config)
    if args.seed is not None:
        raw = dict(raw, seed=args.seed)
    config = parse_config(raw)
    run_experiment(config, out_dir=args.out, threads=args.threads)
    return EXIT_OK


def _cmd_operator(args) -> int:
    what = args.command
    exact = True if args.exact else None
    f = _read_poly(args.poly, exact)
    family = parse_family(_family_record(args), _option)
    op = DiffusionOperator(family, f.dim)
    if what == "generator":
        _emit(apply_generator(op, f).to_json_dict(), args.out)
    elif what == "gamma":
        g = _read_poly(args.poly2, exact) if args.poly2 else None
        _emit(carre_du_champ(op, f, g).to_json_dict(), args.out)
    elif what == "decompose":
        dec = spectral_decompose(op, f)
        record = {
            "family": family.label(),
            "components": [
                {"eigenvalue": finite_float(lam, "eigenvalue"),
                 "poly": dec.components[lam].to_json_dict()}
                for lam in dec.eigenvalues()
            ],
        }
        _emit(record, args.out, indent=2)
    else:
        rep = _poincare_check(op, f)
        alt = rep.lambda1_alt
        record = {
            "variance": finite_float(rep.variance, "variance"),
            "energy": finite_float(rep.energy, "Dirichlet energy"),
            "lambda1": finite_float(rep.lambda1, "spectral gap"),
            "holds": rep.holds,
            "lambda1_alt": None if alt is None else finite_float(alt, "lambda1_alt"),
        }
        _emit(record, args.out, indent=2)
    return EXIT_OK


def _cmd_distance(args) -> int:
    seed = read_field(vars(args), "seed", text=_option)
    left = _parse_spec(args.left, seed)
    right = _parse_spec(args.right, seed)
    metric = {"kol": kolmogorov, "fm": fortet_mourier, "tv": total_variation}[
        args.metric
    ]
    report = metric(left, right)
    header = ["metric", "estimate", "method", "params"]
    row = [report.metric, report.estimate, report.method,
           json.dumps(report.params, sort_keys=True, default=str).replace(",", ";")]
    out = args.out or "distance.csv"
    write_csv(out, header, [row])
    sys.stderr.write(f"{report.metric} = {report.estimate} ({report.method})\n")
    return EXIT_OK


def _cmd_cw_check(args) -> int:
    # The cw_sweep scenario on a record of the options, without a manifest.
    q = _read_poly(args.poly, None)
    config = parse_config({
        "schema": CONFIG_SCHEMA, "scenario": "cw_sweep", "family": _family_record(args),
        "poly": q.to_json_dict(), "alphas": args.alphas, "samples": args.samples,
        "seed": args.seed, "stability_factor": args.stability_factor,
    }, text=_option)
    rows, report = cw_sweep_rows(config)
    write_csv(args.out or "cw_check.csv", CW_HEADER, rows)
    sys.stderr.write(
        f"c_hat={report.c_hat} refined={report.c_hat_refined} stable={report.stable}\n"
    )
    return EXIT_OK


def _cmd_smoothed(args) -> int:
    q = _read_poly(args.poly, None)
    family = parse_family(_family_record(args), _option)
    seed, samples = (read_field(vars(args), key, text=_option) for key in ("seed", "samples"))
    eps = DEFAULT_EPS_GRID if args.eps is None else np.asarray(
        read_field(vars(args), "eps", [float], text=_option))
    est, se = smoothed_indicator_functional(q, family, eps, samples, seed)
    deg = q.degree() or 1
    ratios = est / eps ** (1.0 / (2 * deg + 1))
    rows = [[e, v, s, r] for e, v, s, r in zip(eps, est, se, ratios)]
    write_csv(args.out or "smoothed_functional.csv",
              ["eps", "estimate", "stderr", "ratio"], rows)
    return EXIT_OK


def _cmd_tv_bound(args) -> int:
    raw = load_config_file(args.config)
    if not isinstance(raw, dict):
        raise ConfigError("tv-bound config must be a JSON object")
    check_keys(raw, ("d_fm", "kappa", "degree", "budget_sup", "alpha", "eps"),
               "tv-bound keys")
    d_fm, kappa, budget = (read_field(raw, k, float) for k in ("d_fm", "kappa", "budget_sup"))
    degree = read_field(raw, "degree", int)
    if args.mode == "evaluate":
        report = evaluate_bound(d_fm, kappa, degree, budget,
                                read_field(raw, "alpha", float), read_field(raw, "eps", float))
    else:
        report = optimize_bound(d_fm, kappa, degree, budget)
    header = ["d_fm", "kappa", "degree", "budget_sup", "alpha", "eps",
              "fm_term", "smoothing_term", "regularity_term", "bound"]
    row = [report.d_fm, report.kappa, report.degree, report.budget_sup,
           report.alpha, report.eps, report.fm_term, report.smoothing_term,
           report.regularity_term, report.total]
    write_csv(args.out or f"tv_bound_{args.mode}.csv", header, [row])
    return EXIT_OK


def _cmd_emit_plot(args) -> int:
    try:
        with open(args.csv, encoding="utf-8") as fh:
            lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read CSV {args.csv}: {exc}") from exc
    out = args.out or (os.path.splitext(args.csv)[0] + ".dat")
    if not lines:
        sys.stderr.write(f"warning: {args.csv} is empty\n")
        with open(out, "w") as fh:
            fh.write("")
        return EXIT_OK
    header = lines[0].split(",")
    if args.columns:
        wanted = args.columns.split(",")
        missing = [c for c in wanted if c not in header]
        if missing:
            raise ConfigError(f"columns not in CSV: {missing}")
        idx = [header.index(c) for c in wanted]
    else:
        idx = list(range(len(header)))
        wanted = header
    body = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(header):
            raise ConfigError(
                f"row {ln!r} has {len(cells)} cells, the header {len(header)}"
            )
        picked = [cells[i] for i in idx]
        for c in picked:
            try:
                float(c)
            except ValueError:
                raise ConfigError(
                    f"non-numeric value {c!r} in projected columns"
                ) from None
        body.append(" ".join(picked))
    with open(out, "w") as fh:
        fh.write("# " + " ".join(wanted) + "\n")
        for ln in body:
            fh.write(ln + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gamma-lab",
        description="diffusion-operator calculus and distance experiments",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a configured experiment")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--threads", type=int, default=None)
    p_run.set_defaults(handler=_cmd_run)

    for name in ("generator", "gamma", "decompose", "poincare"):
        p = sub.add_parser(name, help=f"{name} of a polynomial")
        p.add_argument("--poly", required=True, help="polynomial JSON file or -")
        if name == "gamma":
            p.add_argument("--poly2", default=None, help="second argument g")
        _add_family_args(p)
        p.add_argument("--exact", action="store_true",
                       help="force exact rational coefficients")
        p.add_argument("--out", default=None)
        p.set_defaults(handler=_cmd_operator)

    p_dist = sub.add_parser("distance", help="distance between two inputs")
    p_dist.add_argument("--metric", required=True, choices=["kol", "fm", "tv"])
    p_dist.add_argument("--left", required=True)
    p_dist.add_argument("--right", required=True)
    p_dist.add_argument("--seed", default=0)
    p_dist.add_argument("--out", default=None)
    p_dist.set_defaults(handler=_cmd_distance)

    p_cw = sub.add_parser("cw-check", help="small-ball ratio sweep")
    p_cw.add_argument("--poly", required=True)
    _add_family_args(p_cw)
    p_cw.add_argument("--alphas", default="0.001,0.01,0.1,1.0")
    p_cw.add_argument("--samples", default=1_000_000)
    p_cw.add_argument("--seed", default=0)
    p_cw.add_argument("--stability-factor", default=None, dest="stability_factor")
    p_cw.add_argument("--out", default=None)
    p_cw.set_defaults(handler=_cmd_cw_check)

    p_sm = sub.add_parser("smoothed-functional", help="smoothed indicator functional")
    p_sm.add_argument("--poly", required=True)
    _add_family_args(p_sm)
    p_sm.add_argument("--eps", default=None, help="comma-separated eps grid")
    p_sm.add_argument("--samples", default=1_000_000)
    p_sm.add_argument("--seed", default=0)
    p_sm.add_argument("--out", default=None)
    p_sm.set_defaults(handler=_cmd_smoothed)

    p_tv = sub.add_parser("tv-bound", help="evaluate/optimize the TV bound")
    p_tv.add_argument("mode", choices=["evaluate", "optimize"])
    p_tv.add_argument("--config", required=True)
    p_tv.add_argument("--out", default=None)
    p_tv.set_defaults(handler=_cmd_tv_bound)

    p_plot = sub.add_parser("emit-plot", help="CSV to gnuplot-style columns")
    p_plot.add_argument("csv")
    p_plot.add_argument("--columns", default=None)
    p_plot.add_argument("--out", default=None)
    p_plot.set_defaults(handler=_cmd_emit_plot)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except ConsistencyError as exc:
        sys.stderr.write(f"consistency check failed: {exc}\n")
        return EXIT_CONSISTENCY
    except PreconditionError as exc:
        sys.stderr.write(f"precondition violated: {exc}\n")
        return EXIT_PRECONDITION
    except OSError as exc:  # an unwritable --out: each reader raises ConfigError itself
        sys.stderr.write(f"config error: cannot write {exc.filename}: {exc.strerror}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
