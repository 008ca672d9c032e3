"""Config schema, CLI subcommands, exit codes, reproducibility."""

import contextlib
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gamma_lab.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PRECONDITION,
    main,
)
from gamma_lab.config import config_hash, parse_config
from gamma_lab.errors import ConfigError, PreconditionError
from gamma_lab.poly import Polynomial
from gamma_lab.sampling import CHUNK_ROWS


def run_cli(*argv):
    return main(list(argv))


def write_json(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh)
    return str(path)


def save_samples(path, values):
    """A sample column with the six header lines that sample files carry."""
    lines = ["# gamma-lab samples v1", "# seed=0", "# m=", f"# n={values.size}",
             "# family=", "# provenance=test", "value"]
    path.write_text("\n".join(lines + [repr(float(v)) for v in values]) + "\n")


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
    {"schema": "gamma-lab/1", "scenario": "cw_sweep",
     "family": {"kind": "gaussian"},
     "poly": {"dim": 1, "terms": []}, "alphas": [0.5, True]},  # a boolean alpha
    {"schema": "gamma-lab/1", "scenario": "cw_sweep",
     "family": {"kind": "gaussian"},
     "poly": {"dim": 1, "terms": []}, "alphas": [0.5, math.inf]},  # an infinite alpha
    {"schema": "gamma-lab/1", "scenario": "custom", "poly_files": ["no-such-dir/q.json"],
     "family": {"kind": "gaussian"}},  # a polynomial file that does not exist
    {"schema": "gamma-lab/1", "scenario": "cw_sweep",
     "family": {"kind": "gaussian"}, "poly": {"dim": 1.5, "terms": "x"},
     "alphas": [0.2, 0.1]},  # a malformed poly (exit 3) after bad alphas (exit 2)
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


def test_malformed_inline_poly_is_precondition_from_parse_config():
    raw = {"schema": "gamma-lab/1", "scenario": "cw_sweep", "family": {"kind": "gaussian"},
           "poly": {"dim": 1, "terms": [{"exps": [[1, 1]]}]}}  # a term without coef
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


def test_run_precondition_violation_leaves_no_outputs(tmp_path):
    raw = dict(BASE_CHAIN, family={"kind": "beta", "a": 0.5, "b": 2.0})
    cfg_path = write_json(tmp_path / "bad.json", raw)
    out = tmp_path / "never"
    code = run_cli("run", "--config", cfg_path, "--out", str(out))
    assert code == EXIT_PRECONDITION
    assert not out.exists()


def test_failed_run_removes_only_the_directories_it_created(tmp_path):
    # Fewer than 1000 chain samples fail at run time, after the output
    # directory exists: the run removes what it made and keeps what it found.
    cfg_path = write_json(tmp_path / "cfg.json", dict(BASE_CHAIN, samples=500))
    nested = tmp_path / "a" / "b"
    assert run_cli("run", "--config", cfg_path, "--out", str(nested)) == EXIT_PRECONDITION
    assert not (tmp_path / "a").exists()
    kept = tmp_path / "kept"
    kept.mkdir()
    (kept / "notes.txt").write_text("x")
    assert run_cli("run", "--config", cfg_path, "--out", str(kept)) == EXIT_PRECONDITION
    assert [p.name for p in kept.iterdir()] == ["notes.txt"]


def test_run_config_error_distinct_exit(tmp_path):
    cfg_path = write_json(tmp_path / "bad.json", dict(BASE_CHAIN, bogus=1))
    assert run_cli("run", "--config", cfg_path) == EXIT_CONFIG


def test_degenerate_custom_chain_exit_code(tmp_path):
    # constant-limit sequence: rejected by the variance criterion, exit 3
    poly_path = tmp_path / "const.json"
    poly_path.write_text(json.dumps(Polynomial.constant(2, dim=1).to_json_dict()))
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
    path.write_text(json.dumps(p.to_json_dict()))
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


@pytest.mark.parametrize("left, right, tv", [
    ("analytic:gaussian:mu=0:sigma=1e150", "analytic:uniform", 1.0),
    ("analytic:gaussian:mu=0:sigma=1e-200", "analytic:gaussian:mu=0:sigma=1", 1.0),
    ("analytic:gaussian:mu=1e15:sigma=1", "analytic:gaussian:mu=0:sigma=1", None),
], ids=["wide-vs-uniform", "narrow-vs-standard", "far-mean"])
def test_cli_distance_tv_extreme_analytic_laws(tmp_path, left, right, tv):
    # A law far narrower than the other used to fall between the points of
    # the search grid (tv = 0.5, exit 0); a quadrature that does not
    # converge exits 3 instead of warning.  tv None: exit 3 expected.
    out = tmp_path / "d.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli("distance", "--metric", "tv", "--left", left, "--right", right,
                       "--out", str(out))
    assert [str(w.message) for w in caught] == []
    if tv is None:
        assert code == EXIT_PRECONDITION and not out.exists()
    else:
        assert code == EXIT_OK
        assert float(out.read_text().splitlines()[1].split(",")[1]) == pytest.approx(
            tv, abs=1e-6)


def test_cli_distance_tv_density_jump_at_an_interval_edge(tmp_path):
    # The uniform density jumps to 0 at pi; brentq placed a "crossing" 7.6e-14
    # past it and quad failed on that sliver (exit 3).  Reference: 1 - the
    # integral over [0, pi] of min(N(1, 0.4) density, 1/pi), by scipy.stats.
    out = tmp_path / "d.csv"
    code = run_cli("distance", "--metric", "tv",
                   "--left", "analytic:gaussian:mu=1:sigma=0.4",
                   "--right", "analytic:uniform", "--out", str(out))
    assert code == EXIT_OK
    tv = float(out.read_text().splitlines()[1].split(",")[1])
    assert tv == pytest.approx(0.4906482900, abs=1e-8)


def test_cli_distance_narrow_law_passes_the_mass_check(tmp_path):
    # On a law 1e-9 wide quad returns a mass of 1 + 2.9e-8, inside its own
    # tolerance plus error estimate; a fixed 1e-9 check refused it (exit 3).
    out = tmp_path / "d.csv"
    code = run_cli("distance", "--metric", "kol",
                   "--left", "analytic:gaussian:mu=3:sigma=1e-9",
                   "--right", "analytic:gaussian:mu=0:sigma=1", "--out", str(out))
    assert code == EXIT_OK
    kol = float(out.read_text().splitlines()[1].split(",")[1])
    assert kol == pytest.approx(0.5 * math.erfc(-3 / math.sqrt(2)), abs=1e-9)


def test_cli_distance_samples_and_poly(tmp_path):
    rng = np.random.default_rng(0)
    sfile = tmp_path / "a.samples"
    save_samples(sfile, rng.standard_normal(20_000))
    qfile = tmp_path / "q.json"
    qfile.write_text(json.dumps(Polynomial.variable(1, 1).to_json_dict()))
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


def test_cli_distance_sample_file_seed_header_is_not_read(tmp_path):
    # The "# seed=" header of a sample file is a note: its value, even one
    # that is not a number, leaves the distance unchanged.
    save_samples(tmp_path / "s.samples", np.random.default_rng(0).standard_normal(2_000))
    lines = tmp_path.joinpath("s.samples").read_text().splitlines(keepends=True)
    csvs = {}
    for name, seed_line in {"odd": "# seed=abc\n", "none": ""}.items():
        text = "".join(seed_line if ln.startswith("# seed=") else ln for ln in lines)
        (tmp_path / f"{name}.samples").write_text(text)
        out = tmp_path / f"{name}.csv"
        assert run_cli("distance", "--metric", "tv", "--left", f"@{tmp_path / name}.samples",
                       "--right", "analytic:gaussian", "--out", str(out)) == EXIT_OK
        csvs[name] = out.read_bytes()
    assert csvs["odd"] == csvs["none"]


def test_cli_distance_bad_spec(tmp_path):
    assert run_cli("distance", "--metric", "tv", "--left", "nonsense:spec",
                   "--right", "analytic:uniform") == EXIT_CONFIG


# Bytes that are not UTF-8 (a UTF-16 byte-order mark).
NOT_UTF8 = b"\xff\xfe{}"


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
    # A spec's key=value fields: a misspelled or stray key is an error, and a
    # seed or sample count follows the config rule (seed >= 0, samples >= 1).
    (["distance", "--metric", "kol", "--left", "analytic:gaussian:mu=0:sigmaa=3",
      "--right", "analytic:gaussian"], EXIT_CONFIG),
    (["distance", "--metric", "kol", "--left", "poly:@{q}:family=gaussian:sed=4",
      "--right", "analytic:uniform"], EXIT_CONFIG),
    (["distance", "--metric", "kol", "--left", "analytic:gaussian:extra",
      "--right", "analytic:uniform"], EXIT_CONFIG),
    (["distance", "--metric", "kol", "--left", "analytic:uniform:n=7",
      "--right", "analytic:uniform"], EXIT_CONFIG),
    (["distance", "--metric", "kol", "--left", "poly:@{q}:family=gaussian:n=100:seed=-4",
      "--right", "analytic:uniform"], EXIT_CONFIG),
    (["distance", "--metric", "kol", "--left", "poly:@{q}:family=gaussian:n=0",
      "--right", "analytic:uniform"], EXIT_CONFIG),
    (["distance", "--metric", "kol", "--left", "poly:@{q}:family=gaussian:n=100",
      "--right", "analytic:uniform", "--seed", "-1"], EXIT_CONFIG),
    # An integer beyond Python's int-string digit limit is invalid JSON here.
    (["generator", "--poly", "{bigcoef}", "--family", "gaussian"], EXIT_PRECONDITION),
    (["run", "--config", "{bigseed}"], EXIT_CONFIG),
    # Polynomial bytes that are not UTF-8 are invalid JSON, from a file, from
    # stdin, or from a custom run's poly_files.
    (["generator", "--poly", "{notutf8}", "--family", "gaussian"], EXIT_PRECONDITION),
    (["generator", "--poly", "-", "--family", "gaussian"], EXIT_PRECONDITION),
    (["run", "--config", "{custom}"], EXIT_PRECONDITION),
    # An integer field of a record takes integers only, and a stray key is an
    # error: nothing is coerced or ignored.
    (["generator", "--poly", "{floatdim}", "--family", "gaussian"], EXIT_PRECONDITION),
    (["generator", "--poly", "{floatpower}", "--family", "gaussian"], EXIT_PRECONDITION),
    (["generator", "--poly", "{boolvar}", "--family", "gaussian"], EXIT_PRECONDITION),
    (["generator", "--poly", "{termkey}", "--family", "gaussian"], EXIT_PRECONDITION),
    (["generator", "--poly", "{recordkey}", "--family", "gaussian"], EXIT_PRECONDITION),
])
def test_cli_malformed_input_exit_codes(tmp_path, monkeypatch, argv, code):
    (tmp_path / "notutf8.json").write_bytes(NOT_UTF8)
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(NOT_UTF8)))
    files = {
        "q": json.dumps(Polynomial.variable(1, 1).to_json_dict()),
        "nocoef": '{"dim": 1, "terms": [{"exps": [[1, 1]]}]}',
        "badcoef": '{"dim": 1, "terms": [{"exps": [[1, 1]], "coef": "1/x"}]}',
        "nodim": '{"terms": [{"exps": [[1, 1]], "coef": 1}]}',
        "floatdim": '{"dim": 2.7, "terms": [{"exps": [[1, 1]], "coef": 1}]}',
        "floatpower": '{"dim": 1, "terms": [{"exps": [[1, 1.9]], "coef": 1}]}',
        "boolvar": '{"dim": 1, "terms": [{"exps": [[true, 1]], "coef": 1}]}',
        "termkey": '{"dim": 1, "terms": [{"exps": [[1, 1]], "coef": 1, "power": 2}]}',
        "recordkey": '{"dim": 1, "terms": [{"exps": [[1, 1]], "coef": 1}], "exact": true}',
        "bigcoef": '{"dim": 1, "terms": [{"exps": [[1, 1]], "coef": %s}]}' % ("9" * 5000),
        "bigseed": '{"seed": %s}' % ("9" * 5000),
        "custom": json.dumps({
            "schema": "gamma-lab/1", "scenario": "custom", "seed": 1,
            "family": {"kind": "gaussian"}, "samples": 2000,
            "poly_files": [str(tmp_path / "q.json"), str(tmp_path / "notutf8.json")],
        }),
    }
    paths = {"missing": str(tmp_path / "missing.samples"),
             "notutf8": str(tmp_path / "notutf8.json")}
    for name, text in files.items():
        (tmp_path / f"{name}.json").write_text(text)
        paths[name] = str(tmp_path / f"{name}.json")
    argv = [a.format(**paths) for a in argv]
    out = tmp_path / "out"
    assert run_cli(*argv, "--out", str(out)) == code
    assert not out.exists()


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
    if argv[0] == "run":
        assert not out.exists()  # a failed run removes the directory it made
    else:
        assert list(out.iterdir()) == []
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("argv, out", [
    (["run", "--config", "{cfg}"], "{file}"),
    (["run", "--config", "{cfg}"], "{file}/sub"),
    (["distance", "--metric", "kol", "--left", "analytic:uniform",
      "--right", "analytic:cos2:n=2"], "{file}/distance.csv"),
    (["generator", "--poly", "{poly}", "--family", "gaussian"], "{file}/lq.json"),
    (["tv-bound", "optimize", "--config", "{bound}"], "{file}/bound.csv"),
    (["emit-plot", "{csv}"], "{file}/plot.dat"),
], ids=["run-file", "run-under-file", "distance", "operator", "tv-bound", "emit-plot"])
def test_cli_unwritable_out_exits_2_and_writes_nothing(tmp_path, capsys, argv, out):
    (tmp_path / "file").write_text("")
    (tmp_path / "table.csv").write_text("n,x\n1,2\n")
    paths = {
        "file": str(tmp_path / "file"),
        "cfg": write_json(tmp_path / "cfg.json", dict(BASE_CHAIN, samples=2000)),
        "poly": write_json(tmp_path / "q.json", Polynomial.variable(1, 1).to_json_dict()),
        "bound": write_json(tmp_path / "bound.json", {"d_fm": 0.01, "kappa": 1.0,
                                                      "degree": 1, "budget_sup": 1.0}),
        "csv": str(tmp_path / "table.csv"),
    }
    before = sorted(tmp_path.rglob("*"))
    out = out.format(**paths)
    assert run_cli(*[a.format(**paths) for a in argv], "--out", out) == EXIT_CONFIG
    assert f"config error: cannot write {out}: " in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before
    assert (tmp_path / "file").read_text() == ""


@pytest.mark.parametrize("scenario, sequence, family", [
    ("clt_linear", "clt_linear", {"kind": "gaussian"}),
    ("chaos2", "chaos2", {"kind": "gaussian"}),
    ("gamma_clt", "clt_linear", {"kind": "gamma", "r": 2}),
    ("beta_clt", "clt_linear", {"kind": "beta", "a": 2, "b": 2}),
])
def test_preset_scenario_writes_the_bytes_of_its_explicit_tv_chain(tmp_path, scenario,
                                                                    sequence, family):
    base = {"schema": "gamma-lab/1", "seed": 9, "n_grid": [2, 4], "samples": 2000,
            "replicates": 2}
    preset = write_json(tmp_path / "preset.json", dict(base, scenario=scenario))
    explicit = write_json(tmp_path / "explicit.json",
                          dict(base, scenario="tv_chain", sequence=sequence, family=family))
    assert run_cli("run", "--config", preset, "--out", str(tmp_path / "preset")) == EXIT_OK
    assert run_cli("run", "--config", explicit, "--out", str(tmp_path / "explicit")) == EXIT_OK
    for suffix in (".csv", "_summary.csv"):
        assert (read_bytes(tmp_path / "preset" / f"{scenario}{suffix}")
                == read_bytes(tmp_path / "explicit" / f"tv_chain{suffix}"))


def test_run_manifest_records_chain_diagnostics(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", BASE_CHAIN)
    out = tmp_path / "out"
    assert run_cli("run", "--config", cfg, "--out", str(out)) == EXIT_OK
    rows = json.loads((out / "manifest.json").read_text())["diagnostics"]
    assert [(r["replicate"], r["n"]) for r in rows] == [(0, 2), (0, 4), (1, 2), (1, 4)]
    for r in rows:
        assert r["d_tv_floor"] > 0 and r["fm_step"] > 0
        assert r["above_floor"] == (r["d_tv_hat"] > r["d_tv_floor"])
        assert r["vacuous"] == (r["bound"] >= 1)
        assert r["tv_bins"] == math.ceil(BASE_CHAIN["samples"] ** (1 / 3))
    # The self pair: d_fm = 0 puts the optimum on the alpha floor.
    assert all(r["at_grid_edge"] and r["d_tv_hat"] == 0.0 for r in rows if r["n"] == 4)
    header = (out / "clt_linear.csv").read_text().splitlines()[0]
    assert header == "replicate,n,d_fm,d_tv_hat,kappa,budget,alpha_star,eps_star,bound"


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


CW_SWEEP = {
    "schema": "gamma-lab/1", "scenario": "cw_sweep", "seed": 5, "samples": 20_000,
    "family": {"kind": "gaussian"}, "alphas": [0.01, 0.1, 1.0],
    "poly": {"dim": 2, "terms": [{"exps": [[1, 1], [2, 1]], "coef": 1}]},
}


def test_cw_sweep_manifest_records_fit_and_refinement(tmp_path):
    runs = {}
    for factor in (10, None):
        cfg = write_json(tmp_path / f"cfg{factor}.json",
                         dict(CW_SWEEP, stability_factor=factor))
        out = tmp_path / f"sf{factor}"
        assert run_cli("run", "--config", cfg, "--out", str(out)) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        runs[factor] = (manifest["diagnostics"], (out / "cw_sweep.csv").read_bytes())
    refined, plain = runs[10][0], runs[None][0]
    assert refined["n"] == plain["n"] == 20_000
    assert refined["n_refined"] == 200_000
    assert refined["c_hat"] == plain["c_hat"] > 0
    assert refined["c_hat_refined"] > 0 and isinstance(refined["stable"], bool)
    assert refined["stable"] == (
        max(refined["c_hat"], refined["c_hat_refined"])
        < 2 * min(refined["c_hat"], refined["c_hat_refined"]))
    assert plain["n_refined"] is plain["c_hat_refined"] is plain["stable"] is None
    # The refinement goes to the manifest only: the CSV is the same either way.
    assert runs[10][1] == runs[None][1]


# -- sweep subcommands ---------------------------------------------------------------


def test_cli_cw_check(tmp_path):
    qfile = tmp_path / "q.json"
    qfile.write_text(json.dumps(Polynomial.variable(1, 1).to_json_dict()))
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
    qfile.write_text(json.dumps(Polynomial.variable(1, 1).to_json_dict()))
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


@pytest.mark.parametrize("argv", [
    ["cw-check", "--alphas", ""],
    ["cw-check", "--alphas", "0.1,,1"],
    ["cw-check", "--alphas", "0.1,nan"],
    ["smoothed-functional", "--eps", "x"],
    ["smoothed-functional", "--eps", "0.1,1e400"],
    ["cw-check", "--stability-factor", "0"],
    ["cw-check", "--stability-factor", "-3"],
    ["cw-check", "--stability-factor", "1"],
    ["cw-check", "--samples", "0"],
    ["cw-check", "--alphas", "-1,0.5"],
    ["cw-check", "--alphas", "0.5,0.1"],
    ["cw-check", "--seed", "-1"],
    ["smoothed-functional", "--samples", "0"],
    ["smoothed-functional", "--seed", "-1"],
], ids=["alphas-empty", "alphas-empty-item", "alphas-nan", "eps-word",
        "eps-overflow", "stability-0", "stability-negative", "stability-1",
        "samples-0", "alphas-negative", "alphas-descending", "seed-negative",
        "smoothed-samples-0", "smoothed-seed-negative"])
def test_cli_bad_sweep_options_exit_2(tmp_path, capsys, argv):
    qfile = tmp_path / "q.json"
    qfile.write_text(json.dumps(Polynomial.variable(1, 1).to_json_dict()))
    out = tmp_path / "out.csv"
    # The option under test comes last, as --option=value, so it overrides
    # --samples 100 and its value may begin with a minus sign.
    code = run_cli(argv[0], "--poly", str(qfile), "--family", "gaussian",
                   "--samples", "100", "=".join(argv[1:]), "--out", str(out))
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert argv[1] in err and "Traceback" not in err
    assert not out.exists()


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
    {"d_fm": True, "kappa": 1, "degree": 1, "budget_sup": 1, "eps": 0.1, "alpha": 0.1},
    {"d_fm": "0.1", "kappa": 1, "degree": 1, "budget_sup": 1, "eps": 0.1, "alpha": 0.1},
    {"d_fm": 0.1, "kappa": 1, "degree": 2.0, "budget_sup": 1, "eps": 0.1, "alpha": 0.1},
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


@pytest.mark.parametrize("content", [
    b"a,b\n1,hello\n",
    b"a,b\n1\n",
    b"a,b\n1,\xff\n",
], ids=["non-numeric", "short-row", "not-utf8"])
def test_emit_plot_rejects_bad_csv(tmp_path, content):
    csv = tmp_path / "t.csv"
    csv.write_bytes(content)
    assert run_cli("emit-plot", str(csv), "--columns", "b") == EXIT_CONFIG
    assert not (tmp_path / "t.dat").exists()


# -- CLI argument fuzzing -------------------------------------------------------------

# Number-like text, well-formed or not, for options and list items.
NUMBER_TEXT = st.one_of(
    st.integers(-5, 2000).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", "x", "0.1", "1", "1e400", "-0", "2/3", "1_0", " 3 "]),
)
NUMBER_LIST = st.lists(NUMBER_TEXT, max_size=4).map(",".join)
SAMPLES = st.integers(-2, 3000).map(str)


@st.composite
def _family_options(draw):
    kind = draw(st.sampled_from(["gaussian", "gamma", "beta"]))
    options = ["--family", kind]
    for name in {"gaussian": (), "gamma": ("--r",), "beta": ("--a", "--b")}[kind]:
        options += [name, draw(st.one_of(st.sampled_from(["1", "2", "5/2", "3.0"]),
                                         NUMBER_TEXT))]
    return options


def _misspell_sometimes(spec):
    # The spec as drawn, or with its first key misspelled (an unknown key).
    return st.sampled_from([spec, spec, spec.replace("=", "x=", 1)])


@st.composite
def _cli_argv(draw):
    command = draw(st.sampled_from(
        ["cw-check", "smoothed-functional", "tv-bound", "distance"]))
    if command == "cw-check":
        argv = [command, "--poly", "{q}", *draw(_family_options()),
                "--samples", draw(SAMPLES), "--alphas", draw(NUMBER_LIST)]
        if draw(st.booleans()):
            argv += ["--stability-factor", draw(st.integers(-2, 3).map(str))]
        return argv
    if command == "smoothed-functional":
        return [command, "--poly", "{q}", *draw(_family_options()),
                "--samples", draw(SAMPLES), "--eps", draw(NUMBER_LIST)]
    if command == "tv-bound":
        value = st.one_of(st.floats(allow_nan=False), st.integers(-10, 10),
                          st.integers(min_value=2**1100, max_value=2**1100 + 1),
                          st.text(max_size=3), st.booleans(), NUMBER_TEXT)
        keys = ["d_fm", "kappa", "degree", "budget_sup", "alpha", "eps"]
        record = {k: draw(value) for k in keys if draw(st.integers(0, 9))}
        return [command, draw(st.sampled_from(["evaluate", "optimize"])),
                "--config", "{cfg}", json.dumps(record)]
    law = st.one_of(
        st.builds("analytic:gaussian:mu={}:sigma={}".format, NUMBER_TEXT, NUMBER_TEXT),
        st.builds("analytic:cos2:n={}".format, NUMBER_TEXT),
        st.just("analytic:uniform"),
        st.builds("poly:@{{q}}:family=gamma:r={}:n={}".format, NUMBER_TEXT, SAMPLES),
    ).flatmap(_misspell_sometimes)
    return [command, "--metric", draw(st.sampled_from(["kol", "fm", "tv"])),
            "--left", draw(law), "--right", draw(law)]


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    x1, x2 = Polynomial.variable(1, 2), Polynomial.variable(2, 2)
    (path / "q.json").write_text(json.dumps((x1 + x1 * x2).to_json_dict()))
    return path


@settings(max_examples=120)
@given(argv=_cli_argv())
@example(argv=["cw-check", "--poly", "{q}", "--family", "gaussian",
               "--samples", "100", "--alphas", ""])
@example(argv=["cw-check", "--poly", "{q}", "--family", "gaussian",
               "--samples", "100", "--alphas", "0.1,,1"])
@example(argv=["smoothed-functional", "--poly", "{q}", "--family", "gaussian",
               "--samples", "100", "--eps", "x"])
def test_cli_fuzzed_arguments_exit_with_documented_code(cli_dir, argv):
    # Any argument vector runs or exits 2, 3 or 4 with a message: never a
    # Python traceback (an uncaught exception fails this test).
    if argv[0] == "tv-bound":
        *argv, record = argv
        (cli_dir / "cfg.json").write_text(record)
    argv = [a.format(q=cli_dir / "q.json", cfg=cli_dir / "cfg.json") for a in argv]
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        try:
            code = run_cli(*argv, "--out", str(cli_dir / "out.csv"))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in stderr.getvalue()


# -- operator subcommand fuzzing ----------------------------------------------------

# Coefficients: exact, float (tiny, huge, non-finite) and integers up to 10^400.
COEF = st.one_of(
    st.integers(-9, 9),
    st.sampled_from(["2/3", "-7/5", "1/0", "x", True, 1e-320, 1e300, 0.1,
                     math.inf, math.nan, 10**200, -(10**400)]),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def _poly_record(draw):
    dim = draw(st.integers(1, 3))
    # Variable indices and powers may fall outside 1..dim or the degree limit.
    exps = st.lists(st.lists(st.integers(0, 4), min_size=2, max_size=2), max_size=3)
    terms = draw(st.lists(st.fixed_dictionaries({"exps": exps, "coef": COEF}),
                          max_size=4))
    return {"dim": draw(st.sampled_from([dim, dim, dim, 0, "x"])), "terms": terms}


@st.composite
def _poly_file(draw):
    # A polynomial file's bytes: mostly a JSON record, sometimes cut short or
    # not UTF-8.
    data = json.dumps(draw(_poly_record())).encode()
    kind = draw(st.sampled_from(["record", "record", "record", "truncated", "not-utf8"]))
    if kind == "truncated":
        return data[:draw(st.integers(0, len(data) - 1))]
    if kind == "not-utf8":
        return draw(st.binary(max_size=4)) + b"\xff" + data
    return data


# An exact family parameter that no float can hold.
FAMILY_BEYOND_FLOAT = ["--family", "gamma", "--r", str(10**400)]


@st.composite
def _operator_argv(draw):
    command = draw(st.sampled_from(["generator", "gamma", "decompose", "poincare"]))
    family = st.one_of(_family_options(), st.just(FAMILY_BEYOND_FLOAT))
    argv = [command, "--poly", "{p}", *draw(family)]
    if command == "gamma" and draw(st.booleans()):
        argv += ["--poly2", "{p2}"]
    if draw(st.booleans()):
        argv.append("--exact")
    return argv


def _refuse_constant(name):
    raise ValueError(f"non-finite number {name} in the output")


FOUND_POINCARE = json.dumps(
    {"dim": 1, "terms": [{"exps": [[1, 1]], "coef": 10**200}]}).encode()


@settings(max_examples=150)
@given(argv=_operator_argv(), record=_poly_file(), record2=_poly_file())
# Variance 10^400: an OverflowError traceback in float(variance).
@example(argv=["poincare", "--poly", "{p}", "--family", "gaussian"],
         record=FOUND_POINCARE, record2=FOUND_POINCARE)
# A UnicodeDecodeError traceback in reading the file.
@example(argv=["generator", "--poly", "{p}", "--family", "gaussian"],
         record=NOT_UTF8, record2=NOT_UTF8)
def test_cli_fuzzed_operator_commands_exit_with_documented_code(cli_dir, argv, record,
                                                                record2):
    # Any polynomial file and family runs or exits 2, 3 or 4 with a message:
    # never a traceback, never a NaN or inf in the output, and no output on
    # failure.
    paths = {"p": cli_dir / "op.json", "p2": cli_dir / "op2.json"}
    paths["p"].write_bytes(record)
    paths["p2"].write_bytes(record2)
    argv = [a.format(**paths) for a in argv]
    out = cli_dir / "op_out.json"
    out.unlink(missing_ok=True)
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        try:
            code = run_cli(*argv, "--out", str(out))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in stderr.getvalue()
    if code == EXIT_OK:
        json.loads(out.read_text(), parse_constant=_refuse_constant)
    else:
        assert not out.exists()


# -- run fuzzing ----------------------------------------------------------------------

# A JSON value of the wrong type for most fields; no positive integer, so a
# junk samples or replicates value never asks for a long run.
JUNK = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), st.integers(-3, 0),
    st.floats(allow_nan=True, allow_infinity=True),
    st.lists(st.integers(-1, 3), max_size=2),
)
# Family parameters: in range, below the log-concave range (exit 3), huge, or
# not a number.
PARAM = st.sampled_from([1, 2, 3, "5/2", 2.5, 1.0, 0.5, 1e300, "x", "1/0"])
FAMILY = st.one_of(
    st.just({"kind": "gaussian"}),
    st.builds(lambda r: {"kind": "gamma", "r": r}, PARAM),
    st.builds(lambda a, b: {"kind": "beta", "a": a, "b": b}, PARAM, PARAM),
)
POLY = st.sampled_from([
    {"dim": 2, "terms": [{"exps": [[1, 1], [2, 1]], "coef": 1}]},
    {"dim": 1, "terms": [{"exps": [[1, 1]], "coef": "2/3"}]},
    {"dim": 1, "terms": [{"exps": [[1, 3]], "coef": 1e300}]},
    {"dim": 1, "terms": [{"exps": [[1, 1]], "coef": 10**400}]},
    {"dim": 1, "terms": [{"exps": [], "coef": 1}]},
    {"dim": 1, "terms": []},
    {"dim": 1, "terms": [{"exps": [[2, 1]], "coef": 1}]},
    {"dim": 1, "terms": [{"exps": [[1, 1]], "coef": "1/0"}]},
    {"dim": 1, "terms": [{"coef": 1}]},
    {"dim": -1, "terms": []},
    {"terms": "x"},
])
ALPHAS = st.one_of(
    st.lists(st.floats(1e-4, 10), min_size=1, max_size=4, unique=True).map(sorted),
    st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=4),
)
CHAIN_SCENARIOS = ["clt_linear", "chaos2", "gamma_clt", "beta_clt", "tv_chain", "custom"]


def _grid(high):
    return st.lists(st.integers(1, high), min_size=1, max_size=3, unique=True).map(sorted)


@st.composite
def _run_config(draw):
    scenario = draw(st.sampled_from(
        [*CHAIN_SCENARIOS, "cw_sweep", "cos2_counterexample"]))
    config = {"schema": "gamma-lab/1", "scenario": scenario,
              "seed": draw(st.integers(0, 2**64))}
    if scenario == "cos2_counterexample":
        config["n_grid"] = draw(_grid(20))
    else:
        config["family"] = draw(FAMILY)
        # Always present: the default of 10^6 samples is too slow here.
        config["samples"] = draw(st.one_of(st.integers(1000, 5000), st.integers(1, 999)))
    if scenario == "cw_sweep":
        config["poly"] = draw(POLY)
        config["alphas"] = draw(ALPHAS)
        config["stability_factor"] = draw(st.one_of(st.integers(1, 12), st.none()))
    elif scenario == "custom":
        # Records here; the test writes each to a file and lists the paths.
        config["poly_files"] = draw(st.lists(POLY, min_size=1, max_size=2))
        config["replicates"] = draw(st.integers(1, 2))
    elif scenario != "cos2_counterexample":
        config["n_grid"] = draw(_grid(16))
        config["replicates"] = draw(st.integers(1, 2))
        if scenario == "tv_chain":
            config["sequence"] = draw(st.sampled_from(["clt_linear", "chaos2"]))
    # At most one fault: a field left out, a field of the wrong type, or an
    # unknown key.
    fault = draw(st.sampled_from([None] * 5 + ["omit", "junk", "typo"]))
    if fault == "typo":
        config["typo"] = 1
    elif fault:
        key = draw(st.sampled_from(sorted(set(config) - {"samples"})))
        if fault == "omit":
            del config[key]
        else:
            config[key] = draw(JUNK)
    return config


CW_HUGE = dict(CW_SWEEP, poly={"dim": 1, "terms": [{"exps": [[1, 3]], "coef": 1e300}]})
CW_BEYOND_FLOAT = dict(CW_SWEEP, poly={"dim": 1, "terms": [{"exps": [[1, 1]],
                                                             "coef": 10**400}]})
CUSTOM_BEYOND_FLOAT = {"schema": "gamma-lab/1", "scenario": "custom", "samples": 1000,
                       "family": {"kind": "gaussian"},
                       "poly_files": [CW_BEYOND_FLOAT["poly"]]}


@settings(max_examples=100)
@given(config=_run_config(), threads=st.sampled_from(["1", "2"]))
@example(config=CW_HUGE, threads="1")  # E[Q^2] = inf: NaN ratios, RuntimeWarning
@example(config=CW_BEYOND_FLOAT, threads="1")  # OverflowError in float(E[Q^2])
@example(config=CUSTOM_BEYOND_FLOAT, threads="1")  # OverflowError in evaluate_batch
def test_cli_fuzzed_run_configs_exit_with_documented_code(tmp_path_factory, config,
                                                          threads):
    # Any config runs or exits 2, 3 or 4 with a message: never a traceback,
    # and a failed run leaves no file or directory behind.
    work = tmp_path_factory.mktemp("run")
    if isinstance(config.get("poly_files"), list):
        for i, record in enumerate(config["poly_files"]):
            if isinstance(record, dict):
                config["poly_files"][i] = write_json(work / f"p{i}.json", record)
    cfg = work / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = work / "out"
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = run_cli("run", "--config", str(cfg), "--out", str(out),
                       "--threads", threads)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in stderr.getvalue()
    if code == EXIT_OK:
        assert (out / "manifest.json").exists()
    else:
        assert not out.exists()


# -- cw-check against the cw_sweep scenario -------------------------------------------

CW_POLY = {"dim": 2, "terms": [{"exps": [[1, 1], [2, 1]], "coef": 1},
                               {"exps": [[1, 1]], "coef": "1/2"}]}


def _family_argv(family):
    return ["--family", family["kind"],
            *[arg for key in ("r", "a", "b") if key in family
              for arg in (f"--{key}", str(family[key]))]]


# Mostly values that run, so that many examples compare CSV bytes.
VALID_PARAM = st.sampled_from([1, 2, 3, "5/2", 2.5, 1.0])
CW_FAMILY = st.one_of(
    st.just({"kind": "gaussian"}),
    st.builds(lambda r: {"kind": "gamma", "r": r}, VALID_PARAM),
    st.builds(lambda a, b: {"kind": "beta", "a": a, "b": b}, VALID_PARAM, VALID_PARAM),
    FAMILY,
)
VALID_ALPHAS = st.lists(st.floats(1e-4, 10), min_size=1, max_size=4, unique=True).map(sorted)
CW_ALPHAS = st.one_of(
    VALID_ALPHAS, VALID_ALPHAS, ALPHAS,
    st.lists(st.sampled_from([0.5, True, -1.0, 0.0]), max_size=3),
)


@settings(max_examples=100)
@given(seed=st.one_of(st.integers(0, 2**64), st.integers(-2, 9)),
       samples=st.integers(-1, 3000),
       alphas=CW_ALPHAS,
       stability_factor=st.one_of(st.none(), st.integers(-1, 4)),
       family=CW_FAMILY)
@example(seed=1, samples=0, alphas=[0.1, 1.0], stability_factor=None,
         family={"kind": "gaussian"})
@example(seed=-1, samples=500, alphas=[0.1, 1.0], stability_factor=None,
         family={"kind": "gaussian"})
def test_cw_check_matches_cw_sweep_run(tmp_path_factory, seed, samples, alphas,
                                       stability_factor, family):
    # cw-check is the cw_sweep scenario on a record of its options: the same
    # exit code for the same values, and on success the same CSV bytes.
    work = tmp_path_factory.mktemp("cw")
    record = {"schema": "gamma-lab/1", "scenario": "cw_sweep", "seed": seed,
              "samples": samples, "family": family, "alphas": alphas,
              "poly": CW_POLY, "stability_factor": stability_factor}
    cfg = write_json(work / "cfg.json", record)
    qfile = write_json(work / "q.json", CW_POLY)
    argv = ["cw-check", "--poly", qfile, *_family_argv(family),
            "--seed", str(seed), "--samples", str(samples),
            "--alphas=" + ",".join(repr(a) for a in alphas),
            "--out", str(work / "cw_check.csv")]
    if stability_factor is not None:
        argv += ["--stability-factor", str(stability_factor)]
    with contextlib.redirect_stderr(io.StringIO()):
        check_code = run_cli(*argv)
        run_code = run_cli("run", "--config", cfg, "--out", str(work / "run"))
    assert check_code == run_code
    if run_code == EXIT_OK:
        assert (read_bytes(work / "cw_check.csv")
                == read_bytes(work / "run" / "cw_sweep.csv"))
