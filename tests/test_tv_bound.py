"""Moment budgets, the three-term TV bound, and the chain experiment."""

import math
import sys

import numpy as np
import pytest

from gamma_lab.distances import SampleSet, fortet_mourier, total_variation
from gamma_lab.errors import (
    ConsistencyError,
    DegenerateFunctionalError,
    PreconditionError,
)
from gamma_lab.measures import (
    ProductMeasure,
    beta,
    expectation,
    gamma,
    gaussian,
    variance,
)
from gamma_lab.poly import Polynomial, variables
from gamma_lab.sampling import CHUNK_ROWS, chunk_edges, generator, substream
from gamma_lab.tv_bound import (
    MIN_CHAIN_SAMPLES,
    evaluate_bound,
    hypercontractivity_ratio,
    linear_sum_sequence,
    moment_budget,
    optimize_bound,
    pair_product_sequence,
    run_chain_replicate,
)

MU1 = ProductMeasure(gaussian(), 1)
MU2 = ProductMeasure(gaussian(), 2)


def x1x2():
    x1, x2 = variables(2)
    return x1 * x2


# -- moment budget ------------------------------------------------------------


def test_budget_gamma_gamma_exact():
    # Gamma(x1 x2) = x1^2 + x2^2, Gamma of that = 4 x1^2 + 4 x2^2, mean 8
    b = moment_budget(x1x2(), MU2, n=100_000, seed=1)
    assert b.e_gamma_gamma == 8.0
    assert not b.degenerate


def test_budget_abs_lq_mc():
    # oracle: E|L(x1 x2)| = 2 E|x1| E|x2| = 4/pi under the OU generator
    b = moment_budget(x1x2(), MU2, n=1_000_000, seed=2)
    assert b.e_abs_lq == pytest.approx(4 / math.pi, abs=3 * b.e_abs_lq_se)


def test_budget_linear_any_family():
    # oracle: L x1 = -x1 under OU, so E|LQ| = E|x1| = sqrt(2/pi)
    x = Polynomial.variable(1, 1)
    b = moment_budget(x, MU1, n=400_000, seed=3)
    assert b.e_abs_lq == pytest.approx(math.sqrt(2 / math.pi), abs=3 * b.e_abs_lq_se)
    assert np.isfinite(b.total) and b.var_q == 1.0
    for fam in (gamma(2), beta(2, 2)):
        bb = moment_budget(x, ProductMeasure(fam, 1), n=200_000, seed=3)
        assert np.isfinite(bb.total)


def test_budget_quadrature_fallback_low_dim():
    x = Polynomial.variable(1, 1)
    b = moment_budget(x, MU1, method="quadrature")
    assert b.e_abs_lq == pytest.approx(math.sqrt(2 / math.pi), abs=1e-9)
    with pytest.raises(PreconditionError):
        moment_budget(Polynomial.variable(1, 3), ProductMeasure(gaussian(), 3),
                      method="quadrature")


def test_budget_flags_constant():
    b = moment_budget(Polynomial.constant(3, 1), MU1, n=1_000, seed=4)
    assert b.degenerate


# -- hypercontractivity ratio -----------------------------------------------------


def test_hyper_ratio_coordinate():
    assert hypercontractivity_ratio(Polynomial.variable(1, 1), MU1) == 3.0


def test_hyper_ratio_product():
    assert hypercontractivity_ratio(x1x2(), MU2) == 9.0


def test_hyper_ratio_rotation_invariant_linear():
    x1, x2 = variables(2)
    q = (x1 + x2).scale(1 / math.sqrt(2))
    assert hypercontractivity_ratio(q, MU2) == pytest.approx(3.0, rel=1e-12)


def test_hyper_ratio_requires_multilinear():
    x = Polynomial.variable(1, 1)
    with pytest.raises(PreconditionError):
        hypercontractivity_ratio(x * x, MU1)


def test_hyper_ratio_stable_over_degree_class():
    # finiteness/stability across a small multilinear family of degree <= 2
    rng = np.random.default_rng(5)
    mu = ProductMeasure(gaussian(), 4)
    ratios = []
    for _ in range(12):
        terms = {}
        for i in range(1, 5):
            for j in range(i + 1, 5):
                c = float(rng.normal())
                terms[((i, 1), (j, 1))] = c
        ratios.append(hypercontractivity_ratio(Polynomial(4, terms, exact=False), mu))
    assert max(ratios) <= 9.0 * 1.5  # generator max times recorded slack


# -- bound evaluation ----------------------------------------------------------------


def test_bound_term_structure():
    r = evaluate_bound(d_fm=0.01, kappa=1.0, d=1, budget_sup=1.0, alpha=0.1, eps=0.01)
    assert r.fm_term == pytest.approx(0.1)
    assert r.smoothing_term == pytest.approx(4 * 0.01 ** (1 / 3))
    assert r.regularity_term == pytest.approx(2 * math.sqrt(2 / math.pi) * 10.0)
    assert r.total == pytest.approx(r.fm_term + r.smoothing_term + r.regularity_term)


def test_bound_domain_checks():
    with pytest.raises(PreconditionError):
        evaluate_bound(0.1, 1.0, 1, 1.0, alpha=1.5, eps=0.1)
    with pytest.raises(PreconditionError):
        evaluate_bound(0.1, 1.0, 1, 1.0, alpha=0.5, eps=0.0)
    with pytest.raises(PreconditionError):
        evaluate_bound(-0.1, 1.0, 1, 1.0, alpha=0.5, eps=0.1)


def test_bound_increasing_in_d_fm():
    vals = [
        evaluate_bound(d_fm, 1.0, 1, 1.0, alpha=0.3, eps=0.05).total
        for d_fm in (0.0, 0.01, 0.1, 0.5)
    ]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_optimizer_zero_inputs_hits_grid_corner():
    r = optimize_bound(0.0, 0.0, 1, 0.0)
    assert r.total == 0.0
    assert r.alpha == pytest.approx(1e-6) and r.eps == pytest.approx(1e-8)


def test_optimizer_reproduces_grid_minimum():
    # oracle: exhaustive evaluation over the same grid
    r = optimize_bound(0.01, 1.0, 1, 1.0)
    alphas = np.logspace(-6, 0, 50)
    epss = np.logspace(-8, 0, 50)
    grid = [
        evaluate_bound(0.01, 1.0, 1, 1.0, a, e).total for a in alphas for e in epss
    ]
    assert r.total == pytest.approx(min(grid), rel=1e-12)
    assert evaluate_bound(0.01, 1.0, 1, 1.0, r.alpha, r.eps).total == pytest.approx(
        r.total, rel=1e-12
    )


def test_optimizer_soundness_upper_bound_everywhere():
    r = optimize_bound(0.05, 0.7, 2, 1.3)
    rng = np.random.default_rng(6)
    for _ in range(50):
        alpha = float(10 ** rng.uniform(-6, 0))
        eps = float(10 ** rng.uniform(-8, 0))
        assert evaluate_bound(0.05, 0.7, 2, 1.3, alpha, eps).total >= r.total - 1e-12


def test_optimizer_monotone_in_inputs():
    base = optimize_bound(0.01, 1.0, 1, 1.0).total
    assert optimize_bound(0.02, 1.0, 1, 1.0).total >= base
    assert optimize_bound(0.01, 2.0, 1, 1.0).total >= base
    assert optimize_bound(0.01, 1.0, 1, 2.0).total >= base


def test_optimizer_budget_scaling():
    lo = optimize_bound(0.01, 1.0, 1, 1.0).total
    hi = optimize_bound(0.01, 1.0, 1, 2.0).total
    assert hi <= 2 * lo + 1e-12


# -- chain sequences ------------------------------------------------------------------


def test_linear_sequence_standardized():
    for fam in (gaussian(), gamma(2), beta(2, 2)):
        q = linear_sum_sequence(fam, 7)
        mu = ProductMeasure(fam, 7)
        assert float(expectation(q, mu)) == pytest.approx(0.0, abs=1e-12)
        assert float(variance(q, mu)) == pytest.approx(1.0, rel=1e-12)
        assert q.is_multilinear()


def test_pair_product_sequence_standardized():
    for fam in (gaussian(), gamma(2)):
        q = pair_product_sequence(fam, 5)
        mu = ProductMeasure(fam, 10)
        assert float(variance(q, mu)) == pytest.approx(1.0, rel=1e-12)
        assert q.is_multilinear() and q.degree() == 2


def test_gaussian_linear_sequence_plain_normalized_sum():
    q = linear_sum_sequence(gaussian(), 4)
    expected = Polynomial(4, {((i, 1),): 0.5 for i in range(1, 5)}, exact=False)
    assert q == expected


def test_budget_bounded_along_gaussian_clt_sequence():
    # the budget of the standardized gaussian sums is constant in n up to MC
    # error: sup over the grid stays within 10% of the median
    totals = []
    for n in (4, 16, 64):
        q = linear_sum_sequence(gaussian(), n)
        b = moment_budget(q, ProductMeasure(gaussian(), n), n=200_000, seed=n)
        totals.append(b.total + b.e_abs_lq_se)
    assert max(totals) <= 1.1 * float(np.median(totals))


# -- chain experiment ------------------------------------------------------------------


def test_chain_rejects_degenerate_limit():
    fam = gaussian()

    def builder(n):
        return Polynomial.constant(2, dim=n, exact=False)

    with pytest.raises(DegenerateFunctionalError):
        run_chain_replicate(builder, fam, [1, 2], 1_000, seed=1)


def test_chain_rejects_non_multilinear():
    fam = gaussian()

    def builder(n):
        x = Polynomial.variable(1, n, exact=False)
        return x * x

    with pytest.raises(PreconditionError):
        run_chain_replicate(builder, fam, [1, 2], 1_000, seed=1)


def test_chain_rejects_bad_grid():
    with pytest.raises(PreconditionError):
        run_chain_replicate(
            lambda n: linear_sum_sequence(gaussian(), n), gaussian(), [4, 4], 100, 1
        )


def test_chain_constant_sequence_distances_vanish():
    fam = gaussian()
    q = x1x2().to_double()

    def builder(n):
        return q

    rows = run_chain_replicate(builder, fam, [1, 2, 3], 50_000, seed=2)
    for row in rows:
        assert row.d_fm <= 2e-3  # grid resolution scale
        assert row.d_tv_hat == 0.0
        assert np.isfinite(row.bound)


def test_chain_small_scale_structure():
    rows = run_chain_replicate(
        lambda n: linear_sum_sequence(gamma(2), n), gamma(2), [4, 16], 100_000, seed=3
    )
    assert [r.n for r in rows] == [4, 16]
    for row in rows:
        assert row.d_tv_hat <= row.bound + 3 * row.d_tv_se
        assert row.kappa > 0 and np.isfinite(row.budget)
    assert rows[-1].d_tv_hat == 0.0  # last element compared with itself


def test_chain_bound_violation_is_consistency_error():
    with pytest.raises(ConsistencyError):
        run_chain_replicate(
            lambda n: linear_sum_sequence(gaussian(), n), gaussian(), [2, 4],
            10_000, seed=4, slack_sigmas=-1e9,
        )


def test_chain_rejects_too_few_samples():
    fam = gaussian()
    with pytest.raises(PreconditionError, match="at least"):
        run_chain_replicate(
            lambda n: linear_sum_sequence(fam, n), fam, [2, 4],
            MIN_CHAIN_SAMPLES - 1, seed=1,
        )


def test_chain_rows_do_not_depend_on_pool_threads():
    # A partial last chunk, and a kappa row count inside a draw block; more
    # workers than cores, switching threads often.
    fam = beta(2, 2)
    n_samples = 3 * CHUNK_ROWS + 12345
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runs = [
            run_chain_replicate(
                lambda n: pair_product_sequence(fam, n), fam, [2, 4],
                n_samples, seed=6, kappa_samples=70_001, threads=threads,
            )
            for threads in (1, 2, 8)
        ]
    finally:
        sys.setswitchinterval(interval)
    assert runs[0] == runs[1] == runs[2]
    # The distances are those of the pool drawn one whole chunk at a time.
    edges = chunk_edges(n_samples)
    children = substream(6, "chain-pool").spawn(len(edges))
    pool = np.concatenate([
        fam.draw(generator(child), (hi - lo, 8))
        for (lo, hi), child in zip(edges, children)
    ])
    first, last = (pair_product_sequence(fam, n) for n in (2, 4))
    cur = SampleSet(first.evaluate_batch(pool[:, :4]))
    ref = SampleSet(last.evaluate_batch(pool))
    assert runs[0][0].d_tv_hat == total_variation(cur, ref).estimate
    assert runs[0][0].d_fm == fortet_mourier(cur, ref).estimate
