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

Input specs for ``distance``:
    @file.samples                           sample column written by the library
    analytic:uniform                        uniform law on [0, pi]
    analytic:cos2:n=5                       density (2/pi) cos^2(5x) on [0, pi]
    analytic:gaussian:mu=0:sigma=1          normal law
    poly:@q.json:family=gamma:r=2:n=100000:seed=7
                                            sampled polynomial functional
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .anticoncentration import (
    DEFAULT_EPS_GRID,
    carbery_wright_check,
    smoothed_indicator_functional,
)
from .config import load_config_file, parse_config, parse_family
from .distances import (
    AnalyticLaw,
    SampleSet,
    fortet_mourier,
    functional_samples,
    kolmogorov,
    total_variation,
)
from .errors import ConfigError, ConsistencyError, GammaLabError, PreconditionError
from .experiments import run_experiment, write_csv
from .measures import ProductMeasure, load_samples
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


def _family_from_args(args):
    record: dict = {"kind": args.family}
    if args.r is not None:
        record["r"] = _number(args.r)
    if args.a is not None:
        record["a"] = _number(args.a)
    if args.b is not None:
        record["b"] = _number(args.b)
    return parse_family(record)


def _number(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text  # "p/q" strings are handled by parse_family


def _finite(value, what: str, kind=float):
    """value as a finite float, or as an exact int for kind=int; else ConfigError."""
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not math.isfinite(number) or (isinstance(value, float) and number != value):
        raise ConfigError(f"{what} must be a finite {kind.__name__}, got {value!r}")
    return number


def _read_poly(path: str, exact: bool | None) -> Polynomial:
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read polynomial {path}: {exc}") from exc
    return Polynomial.from_json(text, exact=exact)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _parse_spec(spec: str, seed: int):
    """Turn a distance input spec into a SampleSet or AnalyticLaw."""
    if spec.startswith("@"):
        try:
            values, meta = load_samples(spec[1:])
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read sample file {spec[1:]}: {exc}") from exc
        if values.size == 0:
            raise ConfigError(f"sample file {spec[1:]} is empty")
        return SampleSet(values, seed=int(meta.get("seed", 0)),
                         provenance=meta.get("provenance", spec[1:]))
    fields = spec.split(":")
    kind = fields[0]
    opts: dict[str, str] = {}
    extra: list[str] = []
    for item in fields[1:]:
        if "=" in item:
            key, _, val = item.partition("=")
            opts[key] = val
        else:
            extra.append(item)
    if kind == "analytic":
        if not extra:
            raise ConfigError(f"analytic spec needs a law name: {spec!r}")
        name = extra[0]
        if name == "uniform":
            return AnalyticLaw.uniform_0_pi()
        if name == "cos2":
            return AnalyticLaw.cos2(_finite(opts.get("n", "1"), f"n of {spec!r}", int))
        if name == "gaussian":
            return AnalyticLaw.gaussian(
                _finite(opts.get("mu", "0"), f"mu of {spec!r}"),
                _finite(opts.get("sigma", "1"), f"sigma of {spec!r}"),
            )
        raise ConfigError(f"unknown analytic law {name!r}")
    if kind == "poly":
        if not extra or not extra[0].startswith("@"):
            raise ConfigError(f"poly spec needs @file.json: {spec!r}")
        q = _read_poly(extra[0][1:], exact=None)
        family = parse_family(
            {k: (_number(v) if k != "kind" else v)
             for k, v in [("kind", opts.get("family"))] + [
                 (key, opts[key]) for key in ("r", "a", "b") if key in opts
             ]}
        )
        n = _finite(opts.get("n", "100000"), f"n of {spec!r}", int)
        spec_seed = _finite(opts.get("seed", str(seed)), f"seed of {spec!r}", int)
        return functional_samples(q, ProductMeasure(family, q.dim), n, spec_seed)
    raise ConfigError(f"cannot parse input spec {spec!r}")


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


def _cmd_operator(args, what: str) -> int:
    exact = True if args.exact else None
    f = _read_poly(args.poly, exact)
    family = _family_from_args(args)
    op = DiffusionOperator(family, f.dim)
    if what == "generator":
        result = apply_generator(op, f)
        _emit(result.to_json(), args.out)
    elif what == "gamma":
        g = _read_poly(args.poly2, exact) if args.poly2 else None
        result = carre_du_champ(op, f, g)
        _emit(result.to_json(), args.out)
    elif what == "decompose":
        dec = spectral_decompose(op, f)
        record = {
            "family": family.label(),
            "components": [
                {"eigenvalue": float(lam), "poly": dec.components[lam].to_json_dict()}
                for lam in dec.eigenvalues()
            ],
        }
        _emit(json.dumps(record, indent=2), args.out)
    else:
        rep = _poincare_check(op, f)
        record = {
            "variance": float(rep.variance),
            "energy": float(rep.energy),
            "lambda1": float(rep.lambda1),
            "holds": rep.holds,
            "lambda1_alt": None if rep.lambda1_alt is None else float(rep.lambda1_alt),
        }
        _emit(json.dumps(record, indent=2), args.out)
    return EXIT_OK


def _cmd_distance(args) -> int:
    left = _parse_spec(args.left, args.seed)
    right = _parse_spec(args.right, args.seed)
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
    q = _read_poly(args.poly, None)
    family = _family_from_args(args)
    alphas = np.asarray([float(a) for a in args.alphas.split(",")])
    report = carbery_wright_check(
        q, ProductMeasure(family, q.dim), alphas, args.samples, args.seed,
        stability_factor=args.stability_factor,
    )
    rows = [
        [a, p, s, r]
        for a, p, s, r in zip(report.curve.alphas, report.curve.probs,
                              report.curve.stderrs, report.ratios)
    ]
    write_csv(args.out or "cw_check.csv", ["alpha", "estimate", "stderr", "ratio"], rows)
    sys.stderr.write(
        f"c_hat={report.c_hat} refined={report.c_hat_refined} stable={report.stable}\n"
    )
    return EXIT_OK


def _cmd_smoothed(args) -> int:
    q = _read_poly(args.poly, None)
    family = _family_from_args(args)
    mu = ProductMeasure(family, q.dim)
    eps = (
        np.asarray([float(e) for e in args.eps.split(",")])
        if args.eps
        else DEFAULT_EPS_GRID
    )
    est, se = smoothed_indicator_functional(q, mu, eps, args.samples, args.seed)
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
    allowed = {"d_fm", "kappa", "degree", "budget_sup", "alpha", "eps"}
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"unknown tv-bound keys: {sorted(unknown)}")
    try:
        d_fm, kappa, budget = (
            _finite(raw[k], k) for k in ("d_fm", "kappa", "budget_sup")
        )
        degree = _finite(raw["degree"], "degree", int)
    except KeyError as exc:
        raise ConfigError(f"tv-bound config missing {exc}") from exc
    if args.mode == "evaluate":
        try:
            alpha, eps = _finite(raw["alpha"], "alpha"), _finite(raw["eps"], "eps")
            report = evaluate_bound(d_fm, kappa, degree, budget, alpha, eps)
        except KeyError as exc:
            raise ConfigError(f"tv-bound evaluate needs {exc}") from exc
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
        with open(args.csv) as fh:
            lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    except OSError as exc:
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

    for name in ("generator", "gamma", "decompose", "poincare"):
        p = sub.add_parser(name, help=f"{name} of a polynomial")
        p.add_argument("--poly", required=True, help="polynomial JSON file or -")
        if name == "gamma":
            p.add_argument("--poly2", default=None, help="second argument g")
        _add_family_args(p)
        p.add_argument("--exact", action="store_true",
                       help="force exact rational coefficients")
        p.add_argument("--out", default=None)

    p_dist = sub.add_parser("distance", help="distance between two inputs")
    p_dist.add_argument("--metric", required=True, choices=["kol", "fm", "tv"])
    p_dist.add_argument("--left", required=True)
    p_dist.add_argument("--right", required=True)
    p_dist.add_argument("--seed", type=int, default=0)
    p_dist.add_argument("--out", default=None)

    p_cw = sub.add_parser("cw-check", help="small-ball ratio sweep")
    p_cw.add_argument("--poly", required=True)
    _add_family_args(p_cw)
    p_cw.add_argument("--alphas", default="0.001,0.01,0.1,1.0")
    p_cw.add_argument("--samples", type=int, default=1_000_000)
    p_cw.add_argument("--seed", type=int, default=0)
    p_cw.add_argument("--stability-factor", type=int, default=None, dest="stability_factor")
    p_cw.add_argument("--out", default=None)

    p_sm = sub.add_parser("smoothed-functional", help="smoothed indicator functional")
    p_sm.add_argument("--poly", required=True)
    _add_family_args(p_sm)
    p_sm.add_argument("--eps", default=None, help="comma-separated eps grid")
    p_sm.add_argument("--samples", type=int, default=1_000_000)
    p_sm.add_argument("--seed", type=int, default=0)
    p_sm.add_argument("--out", default=None)

    p_tv = sub.add_parser("tv-bound", help="evaluate/optimize the TV bound")
    p_tv.add_argument("mode", choices=["evaluate", "optimize"])
    p_tv.add_argument("--config", required=True)
    p_tv.add_argument("--out", default=None)

    p_plot = sub.add_parser("emit-plot", help="CSV to gnuplot-style columns")
    p_plot.add_argument("csv")
    p_plot.add_argument("--columns", default=None)
    p_plot.add_argument("--out", default=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command in ("generator", "gamma", "decompose", "poincare"):
            return _cmd_operator(args, args.command)
        if args.command == "distance":
            return _cmd_distance(args)
        if args.command == "cw-check":
            return _cmd_cw_check(args)
        if args.command == "smoothed-functional":
            return _cmd_smoothed(args)
        if args.command == "tv-bound":
            return _cmd_tv_bound(args)
        if args.command == "emit-plot":
            return _cmd_emit_plot(args)
        parser.error(f"unknown command {args.command!r}")
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except ConsistencyError as exc:
        sys.stderr.write(f"consistency check failed: {exc}\n")
        return EXIT_CONSISTENCY
    except PreconditionError as exc:
        sys.stderr.write(f"precondition violated: {exc}\n")
        return EXIT_PRECONDITION
    except GammaLabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONSISTENCY
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
