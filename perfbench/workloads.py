"""The benchmark's workloads: inputs made from a seed, one timed unit, output checks.

Each workload builds its inputs from ``--seed`` alone and hands gamma-lab
only those inputs.  ``unit()`` is the work ``unit_s`` times; ``check()``
and, where a workload has it, ``finish()`` run outside the timer and return
the problems found, so that a unit which raised or produced a wrong output
counts as failed.

The checks hold for any correct sample stream: exact identities are checked
exactly, and the one statistical check compares n=4's d_tv_hat against a
recorded reference within a tolerance taken from the replicate spread
(``reference.json``, written by ``make_reference.py``).  The criterion-08
"strictly decreasing medians" leg is deliberately absent: it passes or
fails by chance.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
from dataclasses import asdict
from fractions import Fraction

from gamma_lab import cli, measures, operators, poly, tv_bound

HERE = os.path.dirname(os.path.abspath(__file__))
N_GRID = [4, 16, 64]
SAMPLES = 1_000_000
WARM_SAMPLES = 1 << 16  # one sampling chunk
SE_SIGMAS = 3.0

CHAIN_LAYERS = (
    "measures.draw", "poly.evaluate_batch", "poly.mul", "poly.add",
    "operators.apply_generator", "operators.carre_du_champ",
    "measures.expectation", "measures.variance",
    "distances.fortet_mourier", "distances.total_variation",
    "tv_bound.run_chain_replicate", "tv_bound.optimize_bound",
)
SYMBOLIC_LAYERS = (
    "operators.apply_generator", "operators.carre_du_champ",
    "operators.carre_du_champ_from_definition", "operators.spectral_decompose",
    "operators.reconstruct", "operators.dirichlet_energy", "operators.poincare_check",
    "measures.expectation", "measures.variance", "poly.mul", "poly.add",
)


def _reference(workload: str) -> dict:
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)[workload]


def chain_problems(rows: list[dict], ref: dict, se_of) -> list[str]:
    """Checks that hold for a correct chain replicate on any sample stream.

    ``se_of(row)`` is the standard error allowed on a row's d_tv_hat.
    """
    problems = []
    last = rows[-1]
    if last["d_fm"] != 0.0 or last["d_tv_hat"] != 0.0:
        problems.append(f"last element is not at distance exactly 0: {last}")
    for row in rows:
        if not all(math.isfinite(float(v)) for v in row.values()):
            problems.append(f"non-finite value in row {row}")
        elif row["kappa"] <= 0:
            problems.append(f"kappa <= 0 in row {row}")
        elif row["d_tv_hat"] > row["bound"] + SE_SIGMAS * se_of(row):
            problems.append(f"d_tv_hat above bound + {SE_SIGMAS} se in row {row}")
    first = rows[0]
    if first["n"] != 4 or abs(first["d_tv_hat"] - ref["median"]) > ref["tol"]:
        problems.append(
            f"n=4 d_tv_hat {first['d_tv_hat']} outside reference "
            f"{ref['median']} +- {ref['tol']}"
        )
    return problems


class ChainChaos2:
    """One serial chain replicate: pair products, gaussian, 10^6 samples."""

    expect_called = CHAIN_LAYERS + ("tv_bound.pair_product_sequence",)
    expect_idle = ()

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.family = measures.gaussian()

    def _builder(self, n):
        return tv_bound.pair_product_sequence(self.family, n)

    def _replicate(self, samples: int):
        return tv_bound.run_chain_replicate(
            self._builder, self.family, N_GRID, samples, self.seed
        )

    def warm_up(self) -> None:
        self._replicate(WARM_SAMPLES)

    def unit(self):
        return self._replicate(SAMPLES)

    @staticmethod
    def rows(output) -> list[dict]:
        return [{k: float(v) for k, v in asdict(r).items()} for r in output]

    def check(self, output) -> list[str]:
        return chain_problems(
            self.rows(output), _reference("chain-chaos2"), lambda row: row["d_tv_se"]
        )


class RunBetaT2:
    """One in-process ``gamma-lab run`` of a beta_clt config at --threads 2."""

    expect_called = CHAIN_LAYERS + (
        "tv_bound.linear_sum_sequence", "cli.main", "config.parse_config",
        "experiments.run_experiment", "experiments.write_csv",
    )
    expect_idle = ()
    csv_names = ("beta_clt.csv", "beta_clt_summary.csv")

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        self.config = self._write_config("config.json", seed, SAMPLES)
        self.warm_config = self._write_config("warm.json", seed, WARM_SAMPLES)
        self.runs = 0

    def _write_config(self, name: str, seed: int, samples: int) -> str:
        config = {
            "schema": "gamma-lab/1", "scenario": "beta_clt",
            "family": {"kind": "beta", "a": 2, "b": 2},
            "seed": seed % (1 << 32),  # config seeds must be >= 0
            "n_grid": N_GRID, "samples": samples, "replicates": 1,
        }
        path = os.path.join(self.workdir, name)
        with open(path, "w") as fh:
            json.dump(config, fh)
        return path

    def _run(self, config: str, threads: int) -> dict:
        self.runs += 1
        out = os.path.join(self.workdir, f"out{self.runs}")
        code = cli.main(
            ["run", "--config", config, "--out", out, "--threads", str(threads)]
        )
        if code != 0:
            raise RuntimeError(f"gamma-lab run exited with {code}")
        files = {}
        for name in self.csv_names:
            with open(os.path.join(out, name), "rb") as fh:
                files[name] = fh.read()
        return files

    def warm_up(self) -> None:
        self._run(self.warm_config, 2)

    def unit(self):
        return self._run(self.config, 2)

    @staticmethod
    def rows(files) -> list[dict]:
        text = io.StringIO(files["beta_clt.csv"].decode())
        return [{k: float(v) for k, v in r.items()} for r in csv.DictReader(text)]

    def check(self, files) -> list[str]:
        # The CSV carries no d_tv_se; the histogram estimator's standard error
        # is at most 0.5 * sqrt(2 / samples) whatever the bin masses are.
        se = 0.5 * math.sqrt(2.0 / SAMPLES)
        return chain_problems(self.rows(files), _reference("run-beta-t2"), lambda row: se)

    def finish(self, outputs: list) -> list[list[str]]:
        """Byte identity: every unit's CSVs equal a --threads 1 run of the seed.

        Units share the seed, so this also checks that re-running the first
        unit's seed reproduces its bytes.
        """
        reference = self._run(self.config, 1)
        return [
            [] if files is None or files == reference
            else ["CSV bytes differ from the --threads 1 run of the same seed"]
            for files in outputs
        ]


FAMILIES = (
    measures.gaussian(),
    measures.gamma(Fraction(5, 2)),
    measures.beta(2, 3),
)
DIM = 6
CORPUS_SIZE = 10
# Total degree of each of a polynomial's 12 terms.  A fixed profile keeps the
# cost of a pass close across seeds; the seed picks variables and coefficients.
TERM_DEGREES = (4, 4, 3, 3, 3, 2, 2, 2, 2, 1, 1, 0)


def random_polynomial(rng: random.Random) -> "poly.Polynomial":
    terms: dict = {}
    for degree in TERM_DEGREES:
        while True:
            exps = [0] * DIM
            for _ in range(degree):
                exps[rng.randrange(DIM)] += 1
            mono = tuple((i + 1, p) for i, p in enumerate(exps) if p)
            if mono not in terms:
                break
        sign = rng.choice((-1, 1))
        terms[mono] = Fraction(sign * rng.randint(1, 9), rng.randint(1, 6))
    return poly.Polynomial(DIM, terms)


class SymbolicExact:
    """Exact operator calculus over a seeded corpus of rational polynomials."""

    expect_called = SYMBOLIC_LAYERS
    expect_idle = ("measures.draw", "poly.evaluate_batch")

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        self.corpus = [random_polynomial(rng) for _ in range(CORPUS_SIZE)]

    def _pass(self, corpus):
        out = []
        for family in FAMILIES:
            op = operators.DiffusionOperator(family, DIM)
            for f in corpus:
                out.append((
                    f,
                    operators.apply_generator(op, f),
                    operators.carre_du_champ(op, f),
                    operators.carre_du_champ_from_definition(op, f),
                    operators.spectral_decompose(op, f).reconstruct(),
                    operators.poincare_check(op, f),
                ))
        return out

    def warm_up(self) -> None:
        self._pass(self.corpus[:2])

    def unit(self):
        return self._pass(self.corpus)

    def check(self, results) -> list[str]:
        problems = []
        for f, lf, gamma, gamma_def, rebuilt, poincare in results:
            if not (lf.exact and gamma.exact and gamma_def.exact):
                problems.append(f"result left exact arithmetic for {f}")
            if gamma != gamma_def:
                problems.append(f"closed-form Gamma != definition route for {f}")
            if rebuilt != f:
                problems.append(f"spectral reconstruct() != f for {f}")
            if not poincare.holds:
                problems.append(f"Poincare inequality fails for {f}")
        return problems


WORKLOADS = {
    "chain-chaos2": ChainChaos2,
    "run-beta-t2": RunBetaT2,
    "symbolic-exact": SymbolicExact,
}
