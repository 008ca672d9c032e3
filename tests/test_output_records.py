"""Output files pinned to digests recorded from an earlier commit.

``data/output_digests.json`` holds the SHA-256 of every CSV, and of every
``manifest.json`` with its ``timings`` removed, that ``gamma-lab run``
writes for each of the eight scenarios on a small config, at ``--threads 1``
and ``--threads 2``; a ``beta_clt`` run at ``--threads 3`` must match the
same digests.  It also holds the digests of the files that
``distance`` (a sample file with the six-line header, analytic laws and a
sampled polynomial), ``cw-check``, ``smoothed-functional``, ``tv-bound`` and
the four operator commands write.  Every run starts in a fresh directory and
names its files by relative paths, so no digest depends on where the test
runs.  The fixture records the numpy version it was made with: a numpy
upgrade that moves a random stream fails here, and that failure is correct,
because seed reproducibility broke.

Re-record, from the repository root: ``PYTHONPATH=src python
tests/test_output_records.py``.  Do so only for a change that is meant to
alter these outputs, and say why in CHANGES.md.
"""

import hashlib
import json
import os
import pathlib
import tempfile

import numpy as np
import pytest

from gamma_lab.cli import EXIT_OK, main
from gamma_lab.sampling import CHUNK_ROWS

PATH = os.path.join(os.path.dirname(__file__), "data", "output_digests.json")

_CHAIN = {"n_grid": [2, 4], "samples": 2000, "replicates": 2}
SCENARIOS = {
    "clt_linear": dict(_CHAIN, seed=11),
    "chaos2": dict(_CHAIN, seed=12),
    "gamma_clt": dict(_CHAIN, seed=13, family={"kind": "gamma", "r": "5/2"}),
    # One replicate over two chunks, so --threads 2 splits the pool pass.
    "beta_clt": {"seed": 14, "n_grid": [2, 4], "samples": CHUNK_ROWS + 999,
                 "replicates": 1},
    "cos2_counterexample": {"seed": 0, "n_grid": [1, 3]},
    "cw_sweep": {"seed": 5, "samples": 5000, "family": {"kind": "gaussian"},
                 "alphas": [0.01, 0.1, 1.0], "stability_factor": 2,
                 "poly": {"dim": 2, "terms": [{"exps": [[1, 1], [2, 1]], "coef": 1}]}},
    "tv_chain": dict(_CHAIN, seed=15, sequence="chaos2",
                     family={"kind": "beta", "a": 2, "b": 3}),
    "custom": {"seed": 16, "samples": 2000, "replicates": 2,
               "family": {"kind": "gaussian"}, "poly_files": ["p1.json", "p2.json"]},
}

# x1 + x2 / 2 and x1 x2 - x1 / 3, in two variables.
POLY_A = {"dim": 2, "terms": [{"exps": [[1, 1]], "coef": 1},
                              {"exps": [[2, 1]], "coef": 0.5}]}
POLY_B = {"dim": 2, "terms": [{"exps": [[1, 1], [2, 1]], "coef": 1},
                              {"exps": [[1, 1]], "coef": "-1/3"}]}
FAMILY = ["--family", "gamma", "--r", "2"]
COMMANDS = {
    "distance-file-kol": ["distance", "--metric", "kol", "--left", "@s.samples",
                          "--right", "analytic:gaussian:mu=0.1"],
    "distance-file-fm": ["distance", "--metric", "fm", "--left", "@s.samples",
                         "--right", "poly:@a.json:family=gaussian:n=3000:seed=2"],
    "distance-file-tv": ["distance", "--metric", "tv", "--left", "@s.samples",
                         "--right", "analytic:gaussian"],
    "distance-analytic-kol": ["distance", "--metric", "kol", "--left",
                              "analytic:cos2:n=3", "--right", "analytic:uniform"],
    "distance-analytic-fm": ["distance", "--metric", "fm", "--left",
                             "analytic:gaussian:mu=0.5", "--right", "analytic:uniform"],
    "distance-analytic-tv": ["distance", "--metric", "tv", "--left",
                             "analytic:cos2:n=3", "--right", "analytic:cos2:n=4"],
    "distance-poly-tv": ["distance", "--metric", "tv", "--left",
                         "poly:@a.json:family=beta:a=2:b=2:n=3000",
                         "--right", "analytic:gaussian", "--seed", "4"],
    "cw-check": ["cw-check", "--poly", "b.json", "--family", "gaussian",
                 "--alphas", "0.01,0.1,1.0", "--samples", "5000", "--seed", "3",
                 "--stability-factor", "2"],
    "smoothed-functional": ["smoothed-functional", "--poly", "b.json", *FAMILY,
                            "--eps", "0.001,0.01,0.1", "--samples", "3000",
                            "--seed", "6"],
    "tv-bound-evaluate": ["tv-bound", "evaluate", "--config", "bound.json"],
    "tv-bound-optimize": ["tv-bound", "optimize", "--config", "bound.json"],
    "generator": ["generator", "--poly", "b.json", *FAMILY],
    "generator-exact": ["generator", "--poly", "b.json", *FAMILY, "--exact"],
    "gamma": ["gamma", "--poly", "a.json", "--poly2", "b.json", *FAMILY],
    "decompose": ["decompose", "--poly", "b.json", "--family", "beta",
                  "--a", "2", "--b", "3", "--exact"],
    "poincare": ["poincare", "--poly", "b.json", *FAMILY],
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_sample_file(path, values) -> None:
    """A sample column with the six header lines that sample files carry."""
    lines = ["# gamma-lab samples v1", "# seed=0", "# m=", f"# n={values.size}",
             "# family=", "# provenance=test", "value"]
    lines += [repr(float(v)) for v in values]
    pathlib.Path(path).write_text("\n".join(lines) + "\n")


def _write_inputs() -> None:
    """The input files of every run, in the current directory."""
    for name, record in {"a.json": POLY_A, "b.json": POLY_B,
                         "p1.json": POLY_A, "p2.json": POLY_B}.items():
        pathlib.Path(name).write_text(json.dumps(record))
    pathlib.Path("bound.json").write_text(json.dumps(
        {"d_fm": 0.02, "kappa": 0.8, "degree": 2, "budget_sup": 1.5,
         "alpha": 0.1, "eps": 0.01}))
    _write_sample_file("s.samples", np.random.default_rng(0).standard_normal(3000))


def _digests(directory: str) -> dict:
    """SHA-256 of each file in a directory; a manifest without its timings."""
    out = {}
    for name in sorted(os.listdir(directory)):
        data = pathlib.Path(directory, name).read_bytes()
        if name == "manifest.json":
            record = json.loads(data)
            del record["timings"]
            data = json.dumps(record, indent=2, sort_keys=True).encode()
        out[name] = _sha(data)
    return out


def run_digests(scenario: str, threads: str) -> dict:
    """The digests of one scenario's run at a thread count, in the cwd."""
    _write_inputs()
    config = dict(SCENARIOS[scenario], schema="gamma-lab/1", scenario=scenario)
    pathlib.Path("cfg.json").write_text(json.dumps(config))
    assert main(["run", "--config", "cfg.json", "--out", f"t{threads}",
                 "--threads", threads]) == EXIT_OK
    return _digests(f"t{threads}")


def scenario_record(scenario: str) -> dict:
    """The digests of one scenario's run at --threads 1 and 2, in the cwd."""
    return {threads: run_digests(scenario, threads) for threads in ("1", "2")}


def command_record(name: str) -> str:
    """The digest of the file one command writes, in the cwd."""
    _write_inputs()
    assert main([*COMMANDS[name], "--out", "out.dat"]) == EXIT_OK
    return _sha(pathlib.Path("out.dat").read_bytes())


def _recorded():
    with open(PATH) as fh:
        return json.load(fh)


def _numpy_note():
    return f"recorded with numpy {_recorded()['numpy']}, running {np.__version__}"


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_run_outputs_match_record(scenario, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert scenario_record(scenario) == _recorded()["run"][scenario], _numpy_note()


def test_chain_run_at_three_threads_matches_record(tmp_path, monkeypatch):
    # One replicate over two chunks: three pool threads, of which ordered_map
    # starts two, write the bytes of one.
    monkeypatch.chdir(tmp_path)
    assert run_digests("beta_clt", "3") == _recorded()["run"]["beta_clt"]["1"], _numpy_note()


@pytest.mark.parametrize("name", COMMANDS)
def test_command_output_matches_record(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert command_record(name) == _recorded()["commands"][name], _numpy_note()


if __name__ == "__main__":
    record = {"numpy": np.__version__, "run": {}, "commands": {}}
    for kind, names, fn in (("run", SCENARIOS, scenario_record),
                            ("commands", COMMANDS, command_record)):
        for name in names:
            with tempfile.TemporaryDirectory() as tmp:
                cwd = os.getcwd()
                os.chdir(tmp)
                try:
                    record[kind][name] = fn(name)
                finally:
                    os.chdir(cwd)
    with open(PATH, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
