"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines (stdout is captured by default otherwise).  The heavy criterion
(the total-variation chain experiment) budgets ten minutes on one core; the
rest complete in well under a minute combined.
"""

import json
import math
import os
import random
import time
from fractions import Fraction

import numpy as np
import pytest

import gamma_lab as gl
from gamma_lab.anticoncentration import DEFAULT_EPS_GRID
from gamma_lab.cli import EXIT_CONFIG, EXIT_OK, EXIT_PRECONDITION, main
from gamma_lab.measures import basis, expectation
from gamma_lab.operators import (
    carre_du_champ_from_definition,
    eigenvalue,
    spectral_decompose,
)
from gamma_lab.poly import Polynomial
from gamma_lab.sampling import derive_seed
from gamma_lab.tv_bound import (
    linear_sum_sequence,
    pair_product_sequence,
    run_chain_replicate,
)

FAMILIES = [gl.gaussian(), gl.gamma(2), gl.beta(2, 3)]


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def rand_poly(rng, dim, degree, max_terms=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = {}
        budget = degree
        for var in rng.sample(range(1, dim + 1), rng.randint(0, dim)):
            if budget == 0:
                break
            power = rng.randint(1, budget)
            mono[var] = power
            budget -= power
        key = tuple(sorted(mono.items()))
        terms[key] = terms.get(key, 0) + Fraction(rng.randint(-6, 6), rng.randint(1, 3))
    return Polynomial(dim, terms)


def rand_eigenfunction(rng, fam, dim, max_total=4):
    while True:
        index = [rng.randint(0, 2) for _ in range(dim)]
        if 0 < sum(index) <= max_total:
            break
    p = Polynomial.constant(Fraction(rng.randint(1, 5), rng.randint(1, 3)), dim)
    for var, i in enumerate(index, start=1):
        if i:
            p = p * basis(fam, i).poly.embed(var, dim)
    return p, eigenvalue(fam, tuple(index))


def x1x2():
    x1 = Polynomial.variable(1, 2)
    x2 = Polynomial.variable(2, 2)
    return x1 * x2


# -- 1: symbolic identity suite ------------------------------------------------


def test_criterion_01_symbolic_identities():
    started = time.perf_counter()
    rng = random.Random(2026)
    for case in range(200):
        fam = FAMILIES[case % len(FAMILIES)]
        dim = rng.randint(1, 4)
        op = gl.DiffusionOperator(fam, dim)
        f = rand_poly(rng, dim, 4)
        g = rand_poly(rng, dim, 4)
        phi = rand_poly(rng, 1, 4)
        assert gl.check_diffusion(op, phi, f, g)
        assert gl.carre_du_champ(op, f, g) == carre_du_champ_from_definition(op, f, g)
        assert expectation(gl.apply_generator(op, f), fam) == 0
        assert expectation(f * gl.apply_generator(op, g), fam) == expectation(
            g * gl.apply_generator(op, f), fam
        )
        p, lam = rand_eigenfunction(rng, fam, dim)
        assert gl.eigenspace_gamma_identity(op, p, lam)
    elapsed = time.perf_counter() - started
    report(1, elapsed < 30,
           f"200 exact identity cases across 3 families in {elapsed:.1f}s")


# -- 2: eigenstructure ----------------------------------------------------------


def test_criterion_02_eigenstructure():
    checked = 0
    for fam in FAMILIES:
        dim = 3
        op = gl.DiffusionOperator(fam, dim)
        for i1 in range(6):
            for i2 in range(6 - i1):
                for i3 in range(6 - i1 - i2):
                    index = (i1, i2, i3)
                    if sum(index) == 0:
                        continue
                    p = Polynomial.constant(1, dim)
                    for var, i in enumerate(index, start=1):
                        if i:
                            p = p * basis(fam, i).poly.embed(var, dim)
                    lam = eigenvalue(fam, index)
                    assert gl.apply_generator(op, p) == p.scale(-lam)
                    checked += 1
        rng = random.Random(77)
        for _ in range(5):
            f = rand_poly(rng, dim, 5, max_terms=5)
            dec = spectral_decompose(op, f)
            assert dec.reconstruct() == f
            var = float(gl.variance(f, fam))
            parseval = sum(
                float(expectation(dec.components[lam] ** 2, fam))
                for lam in dec.eigenvalues()
                if lam != 0
            )
            assert var == pytest.approx(parseval, abs=1e-10)
    report(2, True, f"{checked} tensor eigenrelations exact; Parseval to 1e-10")


# -- 3: Poincaré ------------------------------------------------------------------


def test_criterion_03_poincare():
    rng = random.Random(404)
    for fam in FAMILIES:
        op = gl.DiffusionOperator(fam, 2)
        for _ in range(100):
            f = rand_poly(rng, 2, 4)
            rep = gl.poincare_check(op, f)
            assert rep.holds
        # equality on the first eigenspace
        for _ in range(10):
            p = basis(fam, 1).poly.embed(1, 2).scale(
                Fraction(rng.randint(1, 7), rng.randint(1, 3))
            ) + basis(fam, 1).poly.embed(2, 2).scale(
                Fraction(rng.randint(-7, 7), rng.randint(1, 3))
            )
            if p.is_zero():
                continue
            rep = gl.poincare_check(op, p)
            gap = float(rep.variance * rep.lambda1 - rep.energy)
            assert abs(gap) <= 1e-12
    report(3, True, "Var <= E/lambda1 on 100 random polynomials per family; "
                    "equality on the first eigenspace to 1e-12")


# -- 4: counterexample numbers ------------------------------------------------------


def test_criterion_04_counterexample_numbers():
    started = time.perf_counter()
    uniform = gl.AnalyticLaw.uniform_0_pi()
    worst_kol = worst_tv = 0.0
    for n in (1, 5, 10, 50):
        law = gl.AnalyticLaw.cos2(n)
        kol = gl.kolmogorov(law, uniform).estimate
        tv = gl.total_variation(law, uniform).estimate
        worst_kol = max(worst_kol, abs(kol - 1 / (2 * math.pi * n)))
        worst_tv = max(worst_tv, abs(tv - 1 / math.pi))
    elapsed = time.perf_counter() - started
    ok = worst_kol <= 1e-9 and worst_tv <= 1e-6 and elapsed < 5
    report(4, ok,
           f"d_kol = 1/(2 pi n) within {worst_kol:.2e}, d_tv = 1/pi within "
           f"{worst_tv:.2e}, {elapsed:.2f}s")


# -- 5: Carbery-Wright desk check ------------------------------------------------------


def test_criterion_05_carbery_wright():
    started = time.perf_counter()
    fam = gl.gaussian()
    alphas = np.logspace(-3, 0, 20)
    rep = gl.carbery_wright_check(
        Polynomial.variable(1, 1), fam, alphas, n=1_000_000, seed=2026,
        stability_factor=None,
    )
    limit = math.sqrt(2 / math.pi)
    se = np.sqrt(rep.curve.probs * (1 - rep.curve.probs) / rep.curve.n)
    linear_ok = bool(np.all(rep.ratios <= limit + 3 * se / alphas))

    rep2 = gl.carbery_wright_check(
        x1x2(), fam, alphas, n=100_000, seed=2027, stability_factor=10,
    )
    elapsed = time.perf_counter() - started
    ok = linear_ok and rep2.stable and elapsed < 60
    report(5, ok,
           f"linear ratios <= sqrt(2/pi)+3se; c_hat {rep2.c_hat:.3f} vs "
           f"{rep2.c_hat_refined:.3f} stable within factor 2; {elapsed:.1f}s")


# -- 6: smoothed functional shape --------------------------------------------------------


def test_criterion_06_smoothed_functional_shape():
    fam = gl.gaussian()
    x = Polynomial.variable(1, 1)
    est, se = gl.smoothed_indicator_functional(
        x, fam, DEFAULT_EPS_GRID, n=100_000, seed=6
    )
    expected = DEFAULT_EPS_GRID / (1 + DEFAULT_EPS_GRID)
    matches = bool(np.all(np.abs(est - expected) <= 3 * se + 1e-12))
    below_cube_root = bool(np.all(est <= DEFAULT_EPS_GRID ** (1 / 3)))
    kappa = gl.kappa_fit([x], fam, d=1, n=100_000, seed=6)
    ok = matches and below_cube_root and kappa <= 1.0
    report(6, ok, f"functional = eps/(1+eps) to 3 s.e., <= eps^(1/3); "
                  f"kappa = {kappa:.3f} <= 1")


# -- 7: moment budget exactness -----------------------------------------------------------


def test_criterion_07_moment_budget():
    fam = gl.gaussian()
    budget = gl.moment_budget(x1x2(), fam, n=1_000_000, seed=7)
    gg_ok = budget.e_gamma_gamma == 8.0
    lq_ok = abs(budget.e_abs_lq - 4 / math.pi) <= 3 * budget.e_abs_lq_se
    hyper = gl.hypercontractivity_ratio(x1x2(), fam)
    ok = gg_ok and lq_ok and hyper == 9.0
    report(7, ok,
           f"E[Gamma(Gamma(x1x2))] = {budget.e_gamma_gamma} (exact 8), "
           f"E|L(x1x2)| = {budget.e_abs_lq:.5f} vs 4/pi = {4 / math.pi:.5f} "
           f"(+-3se), hyper ratio = {hyper} (exact 9)")


# -- 8: TV chain experiment ------------------------------------------------------------------


SUITES = [
    ("linear/gaussian", gl.gaussian(), linear_sum_sequence),
    ("chaos2/gaussian", gl.gaussian(), pair_product_sequence),
    ("linear/gamma(2)", gl.gamma(2), linear_sum_sequence),
    ("linear/beta(2,2)", gl.beta(2, 2), linear_sum_sequence),
]


@pytest.mark.slow
def test_criterion_08_tv_chain():
    started = time.perf_counter()
    n_grid = [4, 16, 64]
    replicates = 20
    failures = []
    summaries = []
    for name, fam, builder in SUITES:
        tv_rows = np.empty((replicates, len(n_grid)))
        for rep in range(replicates):
            seed = derive_seed(0, "acceptance-chain", name, rep)
            rows = run_chain_replicate(
                lambda n: builder(fam, n), fam, n_grid, 1_000_000, seed,
                threads=os.cpu_count() or 1,
            )
            for idx, row in enumerate(rows):
                tv_rows[rep, idx] = row.d_tv_hat
                # bound soundness on every pair, with statistical slack
                if row.d_tv_hat > row.bound + 3 * row.d_tv_se:
                    failures.append(f"{name}: n={row.n} tv>{row.bound}")
        medians = np.median(tv_rows, axis=0)
        decreasing = bool(np.all(np.diff(medians) < 0))
        final_small = medians[-1] < 0.15
        summaries.append(f"{name}: medians={np.round(medians, 5).tolist()}")
        if not decreasing:
            failures.append(f"{name}: medians not strictly decreasing {medians}")
        if not final_small:
            failures.append(f"{name}: final median {medians[-1]} >= 0.15")
    elapsed = time.perf_counter() - started
    if elapsed >= 600:
        failures.append(f"runtime {elapsed:.0f}s exceeds 10 min")
    report(8, not failures,
           "; ".join(summaries) + f"; {elapsed:.0f}s" +
           ("" if not failures else " | " + " | ".join(failures)))


# -- 9: nondegeneracy gate ------------------------------------------------------------------


def test_criterion_09_nondegeneracy_gate(tmp_path, capsys):
    poly_path = tmp_path / "const.json"
    poly_path.write_text(json.dumps(Polynomial.constant(3, dim=2).to_json_dict()))
    config = {
        "schema": "gamma-lab/1",
        "scenario": "custom",
        "seed": 1,
        "family": {"kind": "gaussian"},
        "poly_files": [str(poly_path)],
        "samples": 1000,
    }
    cfg_path = tmp_path / "degenerate.json"
    cfg_path.write_text(json.dumps(config))
    code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    config_code = main(["run", "--config", str(cfg_path), "--seed", "-1"])
    ok = (
        code == EXIT_PRECONDITION
        and "variance" in err
        and config_code == EXIT_CONFIG
        and code != config_code
    )
    report(9, ok, f"constant limit exits {code} citing the variance criterion; "
                  f"config errors exit {config_code}")


# -- 10: reproducibility ----------------------------------------------------------------------


def test_criterion_10_reproducibility(tmp_path):
    config = {
        "schema": "gamma-lab/1",
        "scenario": "chaos2",
        "seed": 10,
        "n_grid": [2, 4],
        "samples": 30_000,
        "replicates": 3,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    blobs = {}
    for threads in (1, 4, 8):
        out = tmp_path / f"threads{threads}"
        code = main(["run", "--config", str(cfg_path), "--out", str(out),
                     "--threads", str(threads)])
        assert code == EXIT_OK
        blobs[threads] = (out / "chaos2.csv").read_bytes()
    manifest = tmp_path / "threads1" / "manifest.json"
    rerun = tmp_path / "rerun"
    code = main(["run", "--config", str(manifest), "--out", str(rerun),
                 "--threads", "4"])
    assert code == EXIT_OK
    rerun_blob = (rerun / "chaos2.csv").read_bytes()
    ok = blobs[1] == blobs[4] == blobs[8] == rerun_blob
    report(10, ok, "byte-identical CSVs at 1/4/8 threads and manifest re-run")
