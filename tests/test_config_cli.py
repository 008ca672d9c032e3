"""Config schema, CLI subcommands, exit codes, reproducibility."""

import json
import math
import warnings

import numpy as np
import pytest

from gamma_lab.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PRECONDITION,
    main,
)
from gamma_lab.config import config_hash, parse_config
from gamma_lab.errors import ConfigError, PreconditionError
from gamma_lab.measures import save_samples
from gamma_lab.poly import Polynomial
from gamma_lab.sampling import CHUNK_ROWS


def run_cli(*argv):
    return main(list(argv))


def write_json(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh)
    return str(path)


BASE_CHAIN = {
    "schema": "gamma-lab/1",
    "scenario": "clt_linear",
    "seed": 11,
    "n_grid": [2, 4],
    "samples": 20_000,
    "replicates": 2,
}


# -- config schema ------------------------------------------------------------

NEGATIVE_CONFIGS = [
    {},  # missing everything
    {"scenario": "clt_linear"},  # no schema
    {"schema": "gamma-lab/0", "scenario": "clt_linear", "n_grid": [2]},  # bad version
    {"schema": "gamma-lab/1"},  # no scenario
    {"schema": "gamma-lab/1", "scenario": "warp_drive", "n_grid": [2]},
    dict(BASE_CHAIN, typo_key=1),  # unknown key
    dict(BASE_CHAIN, n_grid=[4, 2]),  # not ascending
    dict(BASE_CHAIN, n_grid=[]),  # empty
    dict(BASE_CHAIN, n_grid=[2, "x"]),  # wrong type
    dict(BASE_CHAIN, samples=0),
    dict(BASE_CHAIN, replicates=-1),
    dict(BASE_CHAIN, seed="abc"),
    dict(BASE_CHAIN, family={"kind": "exotic"}),
    dict(BASE_CHAIN, family={"kind": "gamma"}),  # missing r
    dict(BASE_CHAIN, family={"kind": "gaussian", "r": 1}),  # stray parameter
    dict(BASE_CHAIN, family={"kind": "beta", "a": 2}),  # missing b
    {"schema": "gamma-lab/1", "scenario": "tv_chain", "n_grid": [2, 4],
     "family": {"kind": "gaussian"}},  # missing sequence
    {"schema": "gamma-lab/1", "scenario": "cw_sweep",
     "family": {"kind": "gaussian"}},  # missing poly
    {"schema": "gamma-lab/1", "scenario": "cw_sweep",
     "family": {"kind": "gaussian"},
     "poly": {"dim": 1, "terms": []}, "alphas": [0.2, 0.1]},  # alphas not ascending
    {"schema": "gamma-lab/1", "scenario": "custom", "poly_files": [],
     "family": {"kind": "gaussian"}},  # empty file list
]


@pytest.mark.parametrize("raw", NEGATIVE_CONFIGS)
def test_negative_config_corpus_rejected(raw):
    with pytest.raises(ConfigError):
        parse_config(raw)


def test_out_of_domain_family_is_precondition_not_config():
    raw = dict(BASE_CHAIN, family={"kind": "beta", "a": 0.5, "b": 2})
    with pytest.raises(PreconditionError):
        parse_config(raw)
    raw = dict(BASE_CHAIN, family={"kind": "gamma", "r": 0.25})
    with pytest.raises(PreconditionError):
        parse_config(raw)


def test_parse_config_defaults():
    cfg = parse_config(dict(BASE_CHAIN))
    assert cfg.family.kind == "gaussian"
    assert cfg.n_grid == (2, 4) and cfg.replicates == 2


def test_config_hash_stable_under_key_order():
    a = {"x": 1, "y": [1, 2]}
    b = {"y": [1, 2], "x": 1}
    assert config_hash(a) == config_hash(b)


# -- run + manifest reproducibility --------------------------------------------


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_run_reproducible_across_thread_counts(tmp_path):
    cfg_path = write_json(tmp_path / "cfg.json", BASE_CHAIN)
    outputs = {}
    for threads in (1, 4, 8):
        out = tmp_path / f"t{threads}"
        code = run_cli("run", "--config", cfg_path, "--out", str(out),
                       "--threads", str(threads))
        assert code == EXIT_OK
        outputs[threads] = {
            name: read_bytes(out / name)
            for name in ("clt_linear.csv", "clt_linear_summary.csv")
        }
    assert outputs[1] == outputs[4] == outputs[8]


def test_rerun_from_manifest_byte_identical(tmp_path):
    cfg_path = write_json(tmp_path / "cfg.json", dict(BASE_CHAIN, replicates=1))
    first = tmp_path / "first"
    assert run_cli("run", "--config", cfg_path, "--out", str(first)) == EXIT_OK
    manifest = first / "manifest.json"
    assert manifest.exists()
    second = tmp_path / "second"
    assert run_cli("run", "--config", str(manifest), "--out", str(second)) == EXIT_OK
    assert read_bytes(first / "clt_linear.csv") == read_bytes(second / "clt_linear.csv")
    with open(manifest) as fh:
        record = json.load(fh)
    assert record["config_hash"] == config_hash(record["config"])


def test_run_env_threads_fallback(tmp_path, monkeypatch):
    cfg_path = write_json(tmp_path / "cfg.json", dict(BASE_CHAIN, replicates=1))
    monkeypatch.setenv("GAMMA_LAB_THREADS", "2")
    out = tmp_path / "env"
    assert run_cli("run", "--config", cfg_path, "--out", str(out)) == EXIT_OK


def test_run_precondition_violation_leaves_no_outputs(tmp_path):
    raw = dict(BASE_CHAIN, family={"kind": "beta", "a": 0.5, "b": 2.0})
    cfg_path = write_json(tmp_path / "bad.json", raw)
    out = tmp_path / "never"
    code = run_cli("run", "--config", cfg_path, "--out", str(out))
    assert code == EXIT_PRECONDITION
    assert not out.exists()


def test_run_config_error_distinct_exit(tmp_path):
    cfg_path = write_json(tmp_path / "bad.json", dict(BASE_CHAIN, bogus=1))
    assert run_cli("run", "--config", cfg_path) == EXIT_CONFIG


def test_degenerate_custom_chain_exit_code(tmp_path):
    # constant-limit sequence: rejected by the variance criterion, exit 3
    poly_path = tmp_path / "const.json"
    poly_path.write_text(Polynomial.constant(2, dim=1).to_json())
    raw = {
        "schema": "gamma-lab/1",
        "scenario": "custom",
        "seed": 1,
        "family": {"kind": "gaussian"},
        "poly_files": [str(poly_path)],
        "samples": 1000,
    }
    cfg_path = write_json(tmp_path / "cfg.json", raw)
    code = run_cli("run", "--config", cfg_path, "--out", str(tmp_path / "x"))
    assert code == EXIT_PRECONDITION
    assert code != EXIT_CONFIG


# -- cos2 scenario ----------------------------------------------------------------


def test_cos2_scenario_csv(tmp_path):
    raw = {
        "schema": "gamma-lab/1",
        "scenario": "cos2_counterexample",
        "seed": 0,
        "n_grid": [1, 5],
    }
    cfg_path = write_json(tmp_path / "cfg.json", raw)
    out = tmp_path / "cos2"
    assert run_cli("run", "--config", cfg_path, "--out", str(out)) == EXIT_OK
    lines = (out / "cos2_counterexample.csv").read_text().splitlines()
    assert lines[0] == "n,d_kol,d_tv,kol_method,tv_method"
    for line, n in zip(lines[1:], (1, 5)):
        cells = line.split(",")
        assert int(cells[0]) == n
        assert float(cells[1]) == pytest.approx(1 / (2 * math.pi * n), abs=1e-9)
        assert float(cells[2]) == pytest.approx(1 / math.pi, abs=1e-6)


# -- operator subcommands ------------------------------------------------------------


def poly_file(tmp_path, p, name="p.json"):
    path = tmp_path / name
    path.write_text(p.to_json())
    return str(path)


def test_cli_generator_round_trip(tmp_path):
    x = Polynomial.variable(1, 1)
    path = poly_file(tmp_path, x * x)
    out = tmp_path / "lf.json"
    code = run_cli("generator", "--poly", path, "--family", "gaussian",
                   "--exact", "--out", str(out))
    assert code == EXIT_OK
    lf = Polynomial.from_json(out.read_text())
    assert lf == Polynomial.constant(2, 1) - (x * x).scale(2)


def test_cli_gamma_two_arguments(tmp_path):
    x1 = Polynomial.variable(1, 2)
    x2 = Polynomial.variable(2, 2)
    out = tmp_path / "g.json"
    code = run_cli(
        "gamma", "--poly", poly_file(tmp_path, x1 * x2), "--poly2",
        poly_file(tmp_path, x1, "q.json"), "--family", "gaussian",
        "--out", str(out),
    )
    assert code == EXIT_OK
    assert Polynomial.from_json(out.read_text()) == x2


def test_cli_decompose_and_poincare(tmp_path, capsys):
    x1 = Polynomial.variable(1, 2)
    x2 = Polynomial.variable(2, 2)
    path = poly_file(tmp_path, x1 * x2 + x1)
    assert run_cli("decompose", "--poly", path, "--family", "gaussian") == EXIT_OK
    record = json.loads(capsys.readouterr().out)
    assert [c["eigenvalue"] for c in record["components"]] == [1.0, 2.0]

    assert run_cli("poincare", "--poly", path, "--family", "gaussian") == EXIT_OK
    rep = json.loads(capsys.readouterr().out)
    assert rep["holds"] and rep["lambda1"] == 1.0


def test_cli_poincare_beta_alt_gap(tmp_path, capsys):
    path = poly_file(tmp_path, Polynomial.variable(1, 1))
    code = run_cli("poincare", "--poly", path, "--family", "beta",
                   "--a", "2", "--b", "3")
    assert code == EXIT_OK
    rep = json.loads(capsys.readouterr().out)
    assert rep["lambda1"] == 5.0 and rep["lambda1_alt"] == 4.0


def test_cli_gamma_family_requires_r(tmp_path):
    path = poly_file(tmp_path, Polynomial.variable(1, 1))
    assert run_cli("generator", "--poly", path, "--family", "gamma") == EXIT_CONFIG


# -- distance subcommand ----------------------------------------------------------


def test_cli_distance_analytic(tmp_path):
    out = tmp_path / "d.csv"
    code = run_cli("distance", "--metric", "kol", "--left", "analytic:cos2:n=5",
                   "--right", "analytic:uniform", "--out", str(out))
    assert code == EXIT_OK
    header, row = out.read_text().splitlines()
    assert header == "metric,estimate,method,params"
    cells = row.split(",")
    assert cells[0] == "kol"
    assert float(cells[1]) == pytest.approx(1 / (10 * math.pi), abs=1e-9)


def test_cli_distance_samples_and_poly(tmp_path):
    rng = np.random.default_rng(0)
    sfile = tmp_path / "a.samples"
    save_samples(sfile, rng.standard_normal(20_000), seed=0, provenance="test")
    qfile = tmp_path / "q.json"
    qfile.write_text(Polynomial.variable(1, 1).to_json())
    out = tmp_path / "d.csv"
    code = run_cli(
        "distance", "--metric", "tv",
        "--left", f"@{sfile}",
        "--right", f"poly:@{qfile}:family=gaussian:n=20000:seed=1",
        "--out", str(out),
    )
    assert code == EXIT_OK
    row = out.read_text().splitlines()[1].split(",")
    assert float(row[1]) < 0.1


def test_cli_distance_bad_spec(tmp_path):
    assert run_cli("distance", "--metric", "tv", "--left", "nonsense:spec",
                   "--right", "analytic:uniform") == EXIT_CONFIG


@pytest.mark.parametrize("argv, code", [
    (["distance", "--metric", "kol", "--left", "analytic:cos2:n=abc",
      "--right", "analytic:uniform"], EXIT_CONFIG),
    (["distance", "--metric", "tv", "--left", "analytic:gaussian:sigma=x",
      "--right", "analytic:uniform"], EXIT_CONFIG),
    (["distance", "--metric", "tv", "--left", "analytic:gaussian:mu=inf",
      "--right", "analytic:uniform"], EXIT_CONFIG),
    (["distance", "--metric", "tv", "--left", "poly:@{q}:family=gaussian:n=zz",
      "--right", "analytic:uniform"], EXIT_CONFIG),
    (["distance", "--metric", "tv", "--left", "@{missing}",
      "--right", "analytic:uniform"], EXIT_CONFIG),
    (["distance", "--metric", "tv", "--left", "poly:@{q}:family=gamma:r=inf",
      "--right", "analytic:uniform"], EXIT_CONFIG),
    (["generator", "--poly", "{nocoef}", "--family", "gaussian"], EXIT_PRECONDITION),
    (["generator", "--poly", "{badcoef}", "--family", "gaussian"], EXIT_PRECONDITION),
    (["generator", "--poly", "{nodim}", "--family", "gaussian"], EXIT_PRECONDITION),
])
def test_cli_malformed_input_exit_codes(tmp_path, argv, code):
    files = {
        "q": Polynomial.variable(1, 1).to_json(),
        "nocoef": '{"dim": 1, "terms": [{"exps": [[1, 1]]}]}',
        "badcoef": '{"dim": 1, "terms": [{"exps": [[1, 1]], "coef": "1/x"}]}',
        "nodim": '{"terms": [{"exps": [[1, 1]], "coef": 1}]}',
    }
    paths = {"missing": str(tmp_path / "missing.samples")}
    for name, text in files.items():
        (tmp_path / f"{name}.json").write_text(text)
        paths[name] = str(tmp_path / f"{name}.json")
    argv = [a.format(**paths) for a in argv]
    assert run_cli(*argv, "--out", str(tmp_path / "out")) == code


@pytest.mark.parametrize("argv, record", [
    # finite inputs whose bound overflows to inf
    (["tv-bound", "evaluate", "--config", "{cfg}"],
     {"d_fm": 1e308, "kappa": 1, "degree": 1, "budget_sup": 1,
      "alpha": 1e-10, "eps": 0.1}),
    # a family parameter that makes the moment budget NaN
    (["run", "--config", "{cfg}"],
     {"schema": "gamma-lab/1", "scenario": "gamma_clt",
      "family": {"kind": "gamma", "r": 1e300}, "seed": 1,
      "n_grid": [2, 4], "samples": 2000}),
    # a one-row pool: a single histogram bin
    (["run", "--config", "{cfg}"], dict(BASE_CHAIN, samples=1)),
], ids=["tv-bound-overflow", "gamma-r-1e300", "one-sample"])
def test_cli_non_finite_or_tiny_runs_exit_3(tmp_path, argv, record):
    cfg = write_json(tmp_path / "cfg.json", record)
    out = tmp_path / "out"
    if argv[0] == "run":
        argv = argv + ["--out", str(out)]
    else:
        argv = argv + ["--out", str(out / "bound.csv")]
        out.mkdir()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(*[a.format(cfg=cfg) for a in argv]) == EXIT_PRECONDITION
    assert list(out.iterdir()) == []
    assert [str(w.message) for w in caught] == []


def test_run_single_replicate_bytes_do_not_depend_on_threads(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", {
        "schema": "gamma-lab/1", "scenario": "beta_clt", "seed": 3,
        "n_grid": [2, 4], "samples": 2 * CHUNK_ROWS + 999, "replicates": 1,
    })
    blobs = {}
    for threads in (1, 2):
        out = tmp_path / f"t{threads}"
        assert run_cli("run", "--config", cfg, "--out", str(out),
                       "--threads", str(threads)) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["timings"]["pool_threads"] == threads
        blobs[threads] = [(out / name).read_bytes()
                          for name in ("beta_clt.csv", "beta_clt_summary.csv")]
    assert blobs[1] == blobs[2]


# -- sweep subcommands ---------------------------------------------------------------


def test_cli_cw_check(tmp_path):
    qfile = tmp_path / "q.json"
    qfile.write_text(Polynomial.variable(1, 1).to_json())
    out = tmp_path / "cw.csv"
    code = run_cli("cw-check", "--poly", str(qfile), "--family", "gaussian",
                   "--alphas", "0.01,0.1,1.0", "--samples", "50000",
                   "--seed", "3", "--out", str(out))
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "alpha,estimate,stderr,ratio"
    assert len(lines) == 4
    ratios = [float(line.split(",")[3]) for line in lines[1:]]
    assert all(r <= math.sqrt(2 / math.pi) + 0.05 for r in ratios)


def test_cli_smoothed_functional(tmp_path):
    qfile = tmp_path / "q.json"
    qfile.write_text(Polynomial.variable(1, 1).to_json())
    out = tmp_path / "sm.csv"
    code = run_cli("smoothed-functional", "--poly", str(qfile), "--family",
                   "gaussian", "--eps", "0.001,0.01,0.1", "--samples", "1000",
                   "--out", str(out))
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "eps,estimate,stderr,ratio"
    est = [float(line.split(",")[1]) for line in lines[1:]]
    for e, v in zip((0.001, 0.01, 0.1), est):
        assert v == pytest.approx(e / (1 + e), abs=1e-12)


# -- tv-bound subcommands ---------------------------------------------------------


def test_cli_tv_bound_evaluate_and_optimize(tmp_path):
    cfg = write_json(tmp_path / "b.json", {
        "d_fm": 0.01, "kappa": 1.0, "degree": 1, "budget_sup": 1.0,
        "alpha": 0.1, "eps": 0.01,
    })
    out = tmp_path / "b.csv"
    assert run_cli("tv-bound", "evaluate", "--config", cfg, "--out", str(out)) == EXIT_OK
    row = out.read_text().splitlines()[1].split(",")
    assert float(row[9]) == pytest.approx(
        0.1 + 4 * 0.01 ** (1 / 3) + 2 * math.sqrt(2 / math.pi) * 10
    )

    cfg2 = write_json(tmp_path / "b2.json", {
        "d_fm": 0.01, "kappa": 1.0, "degree": 1, "budget_sup": 1.0,
    })
    out2 = tmp_path / "b2.csv"
    assert run_cli("tv-bound", "optimize", "--config", cfg2, "--out", str(out2)) == EXIT_OK
    assert float(out2.read_text().splitlines()[1].split(",")[9]) < float(row[9])


def test_cli_tv_bound_unknown_key(tmp_path):
    cfg = write_json(tmp_path / "b.json", {"d_fm": 0.1, "kappa": 1, "degree": 1,
                                           "budget_sup": 1, "oops": 2})
    assert run_cli("tv-bound", "optimize", "--config", cfg) == EXIT_CONFIG


@pytest.mark.parametrize("record", [
    {"d_fm": "abc", "kappa": 1, "degree": 1, "budget_sup": 1},
    {"d_fm": "nan", "kappa": 1, "degree": 1, "budget_sup": 1, "eps": "inf", "alpha": 0.1},
    {"d_fm": 0.1, "kappa": 1, "degree": "x", "budget_sup": 1, "eps": 0.1, "alpha": 0.1},
    {"d_fm": 0.1, "kappa": 1, "degree": 2.5, "budget_sup": 1, "eps": 0.1, "alpha": 0.1},
])
@pytest.mark.parametrize("mode", ["evaluate", "optimize"])
def test_cli_tv_bound_rejects_non_numbers(tmp_path, record, mode):
    cfg = write_json(tmp_path / "b.json", record)
    out = tmp_path / "b.csv"
    assert run_cli("tv-bound", mode, "--config", cfg, "--out", str(out)) == EXIT_CONFIG
    assert not out.exists()


def test_cli_tv_bound_chain_mode_removed(tmp_path):
    cfg = write_json(tmp_path / "b.json", {})
    with pytest.raises(SystemExit) as exc:
        run_cli("tv-bound", "chain", "--config", cfg)
    assert exc.value.code == EXIT_CONFIG


def test_cli_tv_bound_chain(tmp_path):
    # The tv_chain scenario through `run`, the one CLI path for chain configs.
    cfg = write_json(tmp_path / "chain.json", {
        "schema": "gamma-lab/1", "scenario": "tv_chain",
        "sequence": "chaos2", "family": {"kind": "gaussian"},
        "seed": 5, "n_grid": [2, 4], "samples": 20_000,
    })
    out = tmp_path / "chain"
    assert run_cli("run", "--config", cfg, "--out", str(out)) == EXIT_OK
    lines = (out / "tv_chain.csv").read_text().splitlines()
    assert lines[0] == "n,d_fm,d_tv_hat,kappa,budget,alpha_star,eps_star,bound"
    assert len(lines) == 3


# -- emit-plot -----------------------------------------------------------------------


def test_emit_plot_projection(tmp_path):
    csv = tmp_path / "t.csv"
    csv.write_text("a,b,c\n1,2.5,3\n4,5.5,6\n")
    out = tmp_path / "t.dat"
    assert run_cli("emit-plot", str(csv), "--columns", "a,c",
                   "--out", str(out)) == EXIT_OK
    assert out.read_text() == "# a c\n1 3\n4 6\n"


def test_emit_plot_preserves_rows(tmp_path):
    csv = tmp_path / "t.csv"
    csv.write_text("x,y\n" + "\n".join(f"{i},{i*i}" for i in range(10)) + "\n")
    out = tmp_path / "t.dat"
    assert run_cli("emit-plot", str(csv), "--out", str(out)) == EXIT_OK
    assert len(out.read_text().splitlines()) == 11


def test_emit_plot_empty_csv_warns(tmp_path, capsys):
    csv = tmp_path / "e.csv"
    csv.write_text("")
    out = tmp_path / "e.dat"
    assert run_cli("emit-plot", str(csv), "--out", str(out)) == EXIT_OK
    assert "empty" in capsys.readouterr().err
    assert out.read_text() == ""


def test_emit_plot_missing_column(tmp_path):
    csv = tmp_path / "t.csv"
    csv.write_text("a,b\n1,2\n")
    assert run_cli("emit-plot", str(csv), "--columns", "zz") == EXIT_CONFIG


def test_emit_plot_non_numeric(tmp_path):
    csv = tmp_path / "t.csv"
    csv.write_text("a,b\n1,hello\n")
    assert run_cli("emit-plot", str(csv), "--columns", "b") == EXIT_CONFIG
