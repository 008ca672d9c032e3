"""gamma_lab runs on numpy alone; scipy loads only when an analytic law is used."""

import json
import os
import subprocess
import sys

import gamma_lab
from gamma_lab.cli import EXIT_OK

SRC = os.path.dirname(os.path.dirname(os.path.abspath(gamma_lab.__file__)))

# Runs CLI commands in order in one fresh interpreter and reports, after the
# import and after each command, its exit code and the scipy modules loaded.
PROBE = """
import json, sys
from gamma_lab.cli import main

def loaded(prefix):
    return sorted(m for m in sys.modules if m == prefix or m.startswith(prefix + "."))

report = [["import", 0, loaded("scipy"), loaded("scipy.stats")]]
for name, argv in json.loads(sys.argv[1]):
    code = main(argv)
    report.append([name, code, loaded("scipy"), loaded("scipy.stats")])
print(json.dumps(report))
"""


def test_cli_loads_scipy_only_for_analytic_laws(tmp_path):
    q = tmp_path / "q.json"
    q.write_text(json.dumps({"dim": 2, "terms": [{"exps": [[1, 1], [2, 1]], "coef": 1}]}))
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps({
        "schema": "gamma-lab/1", "scenario": "clt_linear", "seed": 3,
        "n_grid": [2, 4], "samples": 5000, "replicates": 1,
    }))
    bound = tmp_path / "bound.json"
    bound.write_text(json.dumps({"d_fm": 0.01, "kappa": 1.0, "degree": 1,
                                 "budget_sup": 1.0}))
    sampled = [f"poly:@{q}:family=gaussian:n=5000:seed={s}" for s in (1, 2)]
    out = str(tmp_path / "out")
    steps = [
        ("run", ["run", "--config", str(chain), "--out", out, "--threads", "2"]),
        ("cw-check", ["cw-check", "--poly", str(q), "--family", "gaussian",
                      "--samples", "5000", "--stability-factor", "2",
                      "--out", f"{out}/cw.csv"]),
        ("smoothed-functional", ["smoothed-functional", "--poly", str(q), "--family",
                                 "gamma", "--r", "2", "--samples", "5000",
                                 "--out", f"{out}/sf.csv"]),
        ("tv-bound", ["tv-bound", "optimize", "--config", str(bound),
                      "--out", f"{out}/tv.csv"]),
        *[(f"distance {m}", ["distance", "--metric", m, "--left", sampled[0],
                             "--right", sampled[1], "--out", f"{out}/{m}.csv"])
          for m in ("kol", "tv", "fm")],
        # The one step that needs scipy: quadrature, root bracketing, ndtr.
        ("analytic distance", ["distance", "--metric", "kol",
                               "--left", "analytic:gaussian:mu=1:sigma=0.5",
                               "--right", "analytic:uniform",
                               "--out", f"{out}/analytic.csv"]),
    ]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(steps)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert [r[0] for r in report] == ["import"] + [name for name, _ in steps]
    *numpy_only, analytic = report
    for name, code, scipy_mods, _ in numpy_only:
        assert code == EXIT_OK and scipy_mods == [], name
    name, code, scipy_mods, stats_mods = analytic
    assert code == EXIT_OK
    assert "scipy.integrate" in scipy_mods and "scipy.optimize" in scipy_mods
    assert stats_mods == []
