"""Moment budgets, the three-term TV bound, and the chain experiment."""

import math
import sys
import tracemalloc

import numpy as np
import pytest

from gamma_lab.distances import SampleSet, fortet_mourier, total_variation
from gamma_lab.errors import (
    ConsistencyError,
    DegenerateFunctionalError,
    PreconditionError,
)
from gamma_lab.measures import (
    beta,
    expectation,
    gamma,
    gaussian,
    variance,
)
from gamma_lab.operators import DiffusionOperator, apply_generator
from gamma_lab.poly import Polynomial, variables
from gamma_lab.sampling import (
    BLOCK_ROWS, CHUNK_ROWS, SLAB_ROWS, chunk_edges, generator, substream,
)
from gamma_lab import tv_bound
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

GAUSSIAN = gaussian()


def x1x2():
    x1, x2 = variables(2)
    return x1 * x2


# -- moment budget ------------------------------------------------------------


def test_budget_gamma_gamma_exact():
    # Gamma(x1 x2) = x1^2 + x2^2, Gamma of that = 4 x1^2 + 4 x2^2, mean 8
    b = moment_budget(x1x2(), GAUSSIAN, n=100_000, seed=1)
    assert b.e_gamma_gamma == 8.0
    assert not b.degenerate


def test_budget_abs_lq_mc():
    # oracle: E|L(x1 x2)| = 2 E|x1| E|x2| = 4/pi under the OU generator
    b = moment_budget(x1x2(), GAUSSIAN, n=1_000_000, seed=2)
    assert b.e_abs_lq == pytest.approx(4 / math.pi, abs=3 * b.e_abs_lq_se)


def test_budget_linear_any_family():
    # oracle: L x1 = -x1 under OU, so E|LQ| = E|x1| = sqrt(2/pi)
    x = Polynomial.variable(1, 1)
    b = moment_budget(x, GAUSSIAN, n=400_000, seed=3)
    assert b.e_abs_lq == pytest.approx(math.sqrt(2 / math.pi), abs=3 * b.e_abs_lq_se)
    assert np.isfinite(b.total) and b.var_q == 1.0
    for fam in (gamma(2), beta(2, 2)):
        bb = moment_budget(x, fam, n=200_000, seed=3)
        assert np.isfinite(bb.total)


def test_budget_refuses_non_finite_gamma_gamma():
    # E[Gamma(Gamma(c x1 x2))] = 8 c^4 overflows at c = 1e100; E|LQ| does not.
    q = Polynomial(2, {((1, 1), (2, 1)): 1e100}, exact=False)
    with pytest.raises(PreconditionError, match=r"E\[Gamma\(Gamma\(Q\)\)\] of Q = inf"):
        moment_budget(q, GAUSSIAN, n=1_000, seed=1)


def test_budget_flags_constant():
    b = moment_budget(Polynomial.constant(3, 1), GAUSSIAN, n=1_000, seed=4)
    assert b.degenerate


# -- hypercontractivity ratio -----------------------------------------------------


def test_hyper_ratio_coordinate():
    assert hypercontractivity_ratio(Polynomial.variable(1, 1), GAUSSIAN) == 3.0


def test_hyper_ratio_product():
    assert hypercontractivity_ratio(x1x2(), GAUSSIAN) == 9.0


def test_hyper_ratio_rotation_invariant_linear():
    x1, x2 = variables(2)
    q = (x1 + x2).scale(1 / math.sqrt(2))
    assert hypercontractivity_ratio(q, GAUSSIAN) == pytest.approx(3.0, rel=1e-12)


def test_hyper_ratio_requires_multilinear():
    x = Polynomial.variable(1, 1)
    with pytest.raises(PreconditionError):
        hypercontractivity_ratio(x * x, GAUSSIAN)


def test_hyper_ratio_stable_over_degree_class():
    # finiteness/stability across a small multilinear family of degree <= 2
    rng = np.random.default_rng(5)
    ratios = []
    for _ in range(12):
        terms = {}
        for i in range(1, 5):
            for j in range(i + 1, 5):
                c = float(rng.normal())
                terms[((i, 1), (j, 1))] = c
        ratios.append(hypercontractivity_ratio(Polynomial(4, terms, exact=False), GAUSSIAN))
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


def closed_form_optimum(d_fm, kappa, d, budget_sup):
    """(infimum, alpha*, eps*) of D/alpha + 4 kappa eps^p + C alpha/eps.

    Over alpha in (0, 1] and eps > 0, with p = 1/(2d+1) and C = 2 sqrt(2/pi) S.
    For a fixed eps the best alpha is min(1, sqrt(D eps / C)); the eps that
    minimizes the result is the interior root, or the root of the alpha = 1
    branch when the interior alpha* exceeds 1.  D = 0 has infimum 0, at
    alpha, eps -> 0.
    """
    if d_fm == 0:
        return 0.0, 0.0, 0.0
    p = 1.0 / (2 * d + 1)
    c = 2.0 * math.sqrt(2.0 / math.pi) * budget_sup
    eps = (math.sqrt(d_fm * c) / (4 * kappa * p)) ** (2 / (2 * p + 1))
    alpha = math.sqrt(d_fm * eps / c)
    if alpha > 1:
        alpha, eps = 1.0, (c / (4 * kappa * p)) ** (1 / (p + 1))
    return d_fm / alpha + 4 * kappa * eps**p + c * alpha / eps, alpha, eps


def test_optimizer_against_closed_form_optimum():
    # The grid optimum is a feasible point, so it is never below the
    # continuous infimum (up to rounding in the closed form); with the
    # optimum strictly inside both grids it lies within one grid step, which
    # costs well under 1% of the bound.
    rng = np.random.default_rng(2024)
    interior = 0
    for _ in range(1500):
        d_fm = float(10 ** rng.uniform(-9, 0.5))
        kappa = float(10 ** rng.uniform(-3, 1.5))
        budget = float(10 ** rng.uniform(-3, 2))
        d = int(rng.integers(1, 5))
        inf, alpha, eps = closed_form_optimum(d_fm, kappa, d, budget)
        total = optimize_bound(d_fm, kappa, d, budget).total
        assert total >= inf * (1 - 1e-12)
        if 1e-6 < alpha < 1 and 1e-8 < eps < 1:
            interior += 1
            assert total <= 1.01 * inf
    assert interior >= 300
    # The self pair, d_fm = 0: the infimum is 0, and the grid stops at its
    # alpha/eps floor, an edge.
    r = optimize_bound(0.0, 1.0, 1, 1.0)
    assert closed_form_optimum(0.0, 1.0, 1, 1.0)[0] == 0.0 < r.total
    assert r.at_grid_edge


def test_closed_form_optimum_matches_dense_search():
    # The closed form itself, against a fine search in each branch.
    steps = np.logspace(-0.5, 0.5, 101)
    clipped = 0
    for args in [(0.01, 1.0, 1, 1.0), (0.05, 0.7, 2, 1.3), (0.5, 0.1, 1, 0.2)]:
        inf, alpha, eps = closed_form_optimum(*args)
        clipped += alpha == 1.0
        dense = min(evaluate_bound(*args, min(1.0, alpha * fa), eps * fe).total
                    for fa in steps for fe in steps)
        assert inf <= dense * (1 + 1e-12)
        assert evaluate_bound(*args, alpha, eps).total == pytest.approx(inf, rel=1e-12)
    assert clipped == 1


# -- chain sequences ------------------------------------------------------------------


def test_linear_sequence_standardized():
    for fam in (gaussian(), gamma(2), beta(2, 2)):
        q = linear_sum_sequence(fam, 7)
        assert float(expectation(q, fam)) == pytest.approx(0.0, abs=1e-12)
        assert float(variance(q, fam)) == pytest.approx(1.0, rel=1e-12)
        assert q.is_multilinear()


def test_pair_product_sequence_standardized():
    for fam in (gaussian(), gamma(2)):
        q = pair_product_sequence(fam, 5)
        assert float(variance(q, fam)) == pytest.approx(1.0, rel=1e-12)
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
        b = moment_budget(q, gaussian(), n=200_000, seed=n)
        totals.append(b.total + b.e_abs_lq_se)
    assert max(totals) <= 1.1 * float(np.median(totals))


# -- chain experiment ------------------------------------------------------------------


@pytest.fixture
def no_draw(monkeypatch):
    """A chain replicate that reaches the pool pass fails loudly."""
    def pool_pass(*args, **kwargs):
        raise AssertionError("the prepare stage let a bad chain reach the pool pass")

    monkeypatch.setattr(tv_bound, "pool_pass", pool_pass)


def test_chain_rejects_degenerate_limit(no_draw):
    fam = gaussian()

    def builder(n):
        return Polynomial.constant(2, dim=n, exact=False)

    with pytest.raises(DegenerateFunctionalError, match="zero variance"):
        run_chain_replicate(builder, fam, [1, 2], 1_000, seed=1)


def test_chain_rejects_non_multilinear(no_draw):
    fam = gaussian()

    def builder(n):
        x = Polynomial.variable(1, n, exact=False)
        return x * x

    with pytest.raises(PreconditionError, match="n=1 is not multilinear"):
        run_chain_replicate(builder, fam, [1, 2], 1_000, seed=1)


def test_chain_rejects_bad_grid(no_draw):
    # Too few samples as well: the grid is checked first.
    with pytest.raises(PreconditionError, match="strictly ascending"):
        run_chain_replicate(
            lambda n: linear_sum_sequence(gaussian(), n), gaussian(), [4, 4], 100, 1
        )


def test_budget_and_chain_prepare_share_gamma_gamma():
    fam = gamma(2)
    q = pair_product_sequence(fam, 4)
    chain = tv_bound._prepare_chain(lambda n: q, fam, [4], MIN_CHAIN_SAMPLES)
    budget = moment_budget(q, fam, n=1_000, seed=1)
    assert budget.e_gamma_gamma == chain.e_gamma_gammas[0]


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


def test_chain_bound_violation_is_consistency_error(monkeypatch):
    monkeypatch.setattr(tv_bound, "SLACK_SIGMAS", -1e9)
    with pytest.raises(ConsistencyError):
        run_chain_replicate(
            lambda n: linear_sum_sequence(gaussian(), n), gaussian(), [2, 4],
            10_000, seed=4,
        )


def test_chain_rejects_too_few_samples():
    fam = gaussian()
    with pytest.raises(PreconditionError, match="at least"):
        run_chain_replicate(
            lambda n: linear_sum_sequence(fam, n), fam, [2, 4],
            MIN_CHAIN_SAMPLES - 1, seed=1,
        )


def test_chain_rows_do_not_depend_on_pool_threads(monkeypatch):
    # A partial last chunk, and a kappa row count inside a draw block; more
    # workers than cores, switching threads often.
    monkeypatch.setattr(tv_bound, "KAPPA_SAMPLES", 70_001)
    fam = beta(2, 2)
    n_samples = 3 * CHUNK_ROWS + 12345
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runs = [
            run_chain_replicate(
                lambda n: pair_product_sequence(fam, n), fam, [2, 4],
                n_samples, seed=6, threads=threads,
            )
            for threads in (1, 2, 8)
        ]
    finally:
        sys.setswitchinterval(interval)
    assert runs[0] == runs[1] == runs[2]
    # The distances are those of the pool drawn block after block from each
    # chunk's generator, each block the transpose of a (width, rows) buffer
    # filled SLAB_ROWS rows at a time (beta(2, 2) is an exact construction).
    edges = chunk_edges(n_samples)
    children = substream(6, "chain-pool").spawn(len(edges))
    blocks = []
    for (lo, hi), child in zip(edges, children):
        rng = generator(child)
        for start in range(lo, hi, BLOCK_ROWS):
            stop = min(start + BLOCK_ROWS, hi)
            blocks.append(np.concatenate([
                fam.draw(rng, (8, min(SLAB_ROWS, stop - s)))
                for s in range(start, stop, SLAB_ROWS)
            ], axis=1).T)
    pool = np.concatenate(blocks)
    first, last = (pair_product_sequence(fam, n) for n in (2, 4))
    cur = SampleSet(first.evaluate_batch(pool[:, :4]))
    ref = SampleSet(last.evaluate_batch(pool))
    assert runs[0][0].d_tv_hat == total_variation(cur, ref).estimate
    assert runs[0][0].d_fm == fortet_mourier(cur, ref).estimate


@pytest.mark.parametrize("fam, sequence, lam", [
    (gaussian(), pair_product_sequence, -2),
    (gamma(2), pair_product_sequence, -2),
    (beta(2, 2), pair_product_sequence, -8),
    (gaussian(), linear_sum_sequence, -1),
    (beta(2, 2), linear_sum_sequence, -4),
], ids=["chaos2-gaussian", "chaos2-gamma2", "chaos2-beta22", "clt-gaussian", "clt-beta22"])
def test_abs_lq_sums_from_the_q_column_equal_evaluated_lq(fam, sequence, lam):
    # Where LQ = lam Q, the pool pass sums |Q| and Q^2 from Q's column and
    # the chain scales them by |lam| and lam^2: the same bits as summing the
    # evaluated LQ.  Two chunks, the last one partial.
    n_samples = CHUNK_ROWS + 12345
    chain = tv_bound._prepare_chain(lambda n: sequence(fam, n), fam, [4, 16], n_samples)
    assert chain.lams == (lam, lam) and chain.lqs == (0, 1)
    _, sums = tv_bound.pool_pass(fam, n_samples, substream(5, "chain-pool"),
                                 chain.columns, chain.lqs)
    lqs = [apply_generator(DiffusionOperator(fam, q.dim), q) for q in chain.elements]
    _, evaluated = tv_bound.pool_pass(fam, n_samples, substream(5, "chain-pool"), [], lqs)
    bits = lambda pairs: [(s.hex(), sq.hex()) for s, sq in pairs]
    assert bits(chain.abs_lq_sums(sums)) == bits(evaluated)


def test_elements_that_are_not_power_of_two_eigenfunctions_evaluate_lq():
    # The linear gamma(2) chain is one only at n = 4 (its constant term sums
    # exactly there); beta(3, 4)'s eigenvalues are not powers of two.
    cases = [(gamma(2), linear_sum_sequence, (-1, None, None)),
             (beta(3, 4), linear_sum_sequence, (None, None, None)),
             (beta(3, 4), pair_product_sequence, (None, None, None))]
    for fam, sequence, lams in cases:
        chain = tv_bound._prepare_chain(
            lambda n: sequence(fam, n), fam, [4, 16, 64], MIN_CHAIN_SAMPLES)
        for idx, (q, lam) in enumerate(zip(chain.elements, lams)):
            lq = apply_generator(DiffusionOperator(fam, q.dim), q)
            assert chain.lqs[idx] == (idx if lam else lq)
            assert chain.lams[idx] == (lam or 1)


def test_chain_rows_read_the_value_columns_in_place():
    # The rows stage (kappa, FM, TV, floor, bound) reads the pool pass's
    # value columns without copying them: while it runs, its own traced
    # allocations stay under a fifth of those columns' bytes.  Copies of the
    # current and the reference column, or full-length FM temporaries,
    # would each exceed that.
    fam = gaussian()
    n_samples = 200_001
    chain = tv_bound._prepare_chain(
        lambda n: linear_sum_sequence(fam, n), fam, [2, 4, 8, 16, 32], n_samples
    )
    values, lq_sums = tv_bound.pool_pass(
        fam, n_samples, substream(1, "chain-pool"), chain.columns, chain.lqs
    )
    columns = sum(v.nbytes for v in values)
    tracemalloc.start()
    try:
        tv_bound._chain_rows(chain, values, lq_sums)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert columns + peak <= 1.2 * columns
