"""Moment engine, orthogonal bases, and sampler law checks."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate, stats

from gamma_lab.errors import PreconditionError
from gamma_lab.measures import (
    ProductMeasure,
    basis,
    beta,
    draw_pool,
    expectation,
    gamma,
    gaussian,
    monomial_in_basis,
    raw_moment,
    sample,
    variance,
)
from gamma_lab.poly import Polynomial, variables
from gamma_lab.sampling import BLOCK_ROWS, CHUNK_ROWS, SLAB_ROWS, generator, substream

FAMILIES = [gaussian(), gamma(1), gamma(2), beta(1, 1), beta(2, 2), beta(2, 3)]


def double_factorial(k):
    out = 1
    for j in range(k - 1, 0, -2):
        out *= j
    return out


# -- parameter domain ---------------------------------------------------------


def test_family_parameter_domains():
    with pytest.raises(PreconditionError):
        gamma(Fraction(1, 2))
    with pytest.raises(PreconditionError):
        beta(0.5, 2)
    with pytest.raises(PreconditionError):
        beta(2, 0.99)
    assert gamma(1).exact and beta(1, 1).exact
    assert not gamma(1.5).exact


# -- raw moments ---------------------------------------------------------------


def test_gaussian_moments_against_double_factorial():
    # oracle: E[X^{2j}] = (2j-1)!!, odd moments vanish
    for k in range(0, 13):
        expected = 0 if k % 2 else double_factorial(k)
        assert raw_moment(gaussian(), k) == expected


def test_gamma_moments_rising_factorial():
    # oracle: E[X^k] = r (r+1) ... (r+k-1)
    assert raw_moment(gamma(2), 3) == 24
    r = Fraction(2)
    for k in range(0, 8):
        expected = math.prod([r + i for i in range(k)], start=Fraction(1))
        assert raw_moment(gamma(2), k) == expected


def test_beta_symmetric_first_moment_is_zero():
    assert raw_moment(beta(2, 2), 1) == 0
    assert raw_moment(beta(3, 3), 1) == 0


def test_beta_first_moment_formula():
    fam = beta(2, 3)
    assert raw_moment(fam, 1) == Fraction(3 - 2, 3 + 2)


@pytest.mark.parametrize("fam", FAMILIES)
def test_moments_match_quadrature(fam):
    # oracle: adaptive quadrature of x^k against the family density
    lo, hi = fam.support()
    lo, hi = max(lo, -40.0), min(hi, 60.0)
    for k in range(0, 13):
        exact = float(raw_moment(fam, k))
        num, _ = integrate.quad(
            lambda x, k=k: x**k * float(fam.pdf(np.asarray(x))), lo, hi, limit=300
        )
        assert num == pytest.approx(exact, rel=1e-9, abs=1e-12)


# -- expectations of polynomials ------------------------------------------------


def test_expectation_odd_gaussian_vanishes():
    x1, x2 = variables(2)
    assert expectation(x1 * x2, ProductMeasure(gaussian(), 2)) == 0


def test_expectation_factorizes():
    x1, x2 = variables(2)
    mu = ProductMeasure(gaussian(), 2)
    # oracle: independence factorization E[x1^2 x2^2] = E[x1^2] E[x2^2]
    assert expectation(x1 * x1 * x2 * x2, mu) == raw_moment(gaussian(), 2) ** 2 == 1


def test_expectation_gamma_mean():
    x1 = Polynomial.variable(1, 1)
    assert expectation(x1, ProductMeasure(gamma(2), 1)) == 2


def test_variance_examples():
    mu = ProductMeasure(gaussian(), 2)
    x1, x2 = variables(2)
    assert variance(Polynomial.constant(7, 2), mu) == 0
    assert variance(Polynomial.variable(1, 1), ProductMeasure(gaussian(), 1)) == 1
    assert variance(x1 * x2 + x1, mu) == 2


def test_variance_matches_monte_carlo():
    # oracle: Monte Carlo at 10^6 samples, 3 sigma band
    x1, x2 = variables(2)
    p = x1 * x2 + x1
    mu = ProductMeasure(gaussian(), 2)
    vals = p.evaluate_batch(sample(mu, 1_000_000, seed=7))
    mc_var = float(np.var(vals))
    se = math.sqrt(2.0 / vals.size) * mc_var * 3  # rough 3 s.e. for a variance
    assert abs(mc_var - float(variance(p, mu))) < max(se, 3e-2)


# -- orthogonal bases ------------------------------------------------------------


def test_hermite_recurrence_oracle():
    # oracle: probabilists' recurrence H_{i+1} = x H_i - i H_{i-1}
    fam = gaussian()
    x = Polynomial.variable(1, 1)
    prev, cur = Polynomial.constant(1, 1), x
    for i in range(1, 8):
        assert basis(fam, i).poly == cur
        prev, cur = cur, x * cur - prev.scale(i)
    assert basis(fam, 3).poly == x**3 - x.scale(3)


def test_laguerre_degree_one_orthogonal_to_constants():
    # oracle: E[L_1] = 0 under Gamma(r,1), L_1 proportional to (r - x)
    for r in (1, 2, 5):
        fam = gamma(r)
        l1 = basis(fam, 1).poly
        assert expectation(l1, ProductMeasure(fam, 1)) == 0
        x = Polynomial.variable(1, 1)
        assert l1 == x - Polynomial.constant(r, 1)


def test_laguerre_monic_recurrence_oracle():
    # oracle: monic Laguerre recurrence with alpha = r - 1:
    # p_{k+1} = (x - (2k + r)) p_k - k (k + r - 1) p_{k-1}
    r = 2
    fam = gamma(r)
    x = Polynomial.variable(1, 1)
    prev, cur = Polynomial.constant(1, 1), x - Polynomial.constant(r, 1)
    for k in range(1, 7):
        assert basis(fam, k).poly == cur
        nxt = (x - Polynomial.constant(2 * k + r, 1)) * cur - prev.scale(
            k * (k + r - 1)
        )
        prev, cur = cur, nxt


def test_jacobi_degree_one_centering():
    # oracle: E[J_1] = 0 under the mapped beta density
    for a, b in ((1, 1), (2, 2), (2, 3), (5, 2)):
        fam = beta(a, b)
        j1 = basis(fam, 1).poly
        assert expectation(j1, ProductMeasure(fam, 1)) == 0
        x = Polynomial.variable(1, 1)
        assert j1 == x - Polynomial.constant(Fraction(b - a, a + b), 1)


@pytest.mark.parametrize("fam", FAMILIES)
def test_orthogonality_up_to_degree_8(fam):
    mu = ProductMeasure(fam, 1)
    polys = [basis(fam, i) for i in range(9)]
    for i in range(9):
        for j in range(i):
            assert expectation(polys[i].poly * polys[j].poly, mu) == 0
        assert polys[i].norm2 > 0
        assert polys[i].poly.degree() == i


@pytest.mark.parametrize("fam", [gaussian(), gamma(2), beta(2, 3)])
def test_basis_expansion_reproduces_polynomials(fam):
    # completeness at fixed degree: expand x^k and reconstruct exactly
    x = Polynomial.variable(1, 1)
    for k in range(9):
        acc = Polynomial.zero(1)
        for i, c in monomial_in_basis(fam, k):
            acc = acc + basis(fam, i).poly.scale(c)
        assert acc == x**k


# -- samplers ---------------------------------------------------------------------


def test_sampler_deterministic():
    mu = ProductMeasure(gamma(2), 3)
    a = sample(mu, 50_000, seed=123)
    b = sample(mu, 50_000, seed=123)
    assert np.array_equal(a, b)
    c = sample(mu, 50_000, seed=124)
    assert not np.array_equal(a, c)


def test_gaussian_sample_mean_band():
    # oracle: CLT band 4/sqrt(n) around 0
    n = 1_000_000
    vals = sample(ProductMeasure(gaussian(), 1), n, seed=5)[:, 0]
    assert abs(float(vals.mean())) < 4 / math.sqrt(n)


def test_beta_uniform_support_and_mean():
    vals = sample(ProductMeasure(beta(1, 1), 1), 200_000, seed=9)[:, 0]
    assert vals.min() >= -1 and vals.max() <= 1
    assert abs(float(vals.mean())) < 0.01


KS_CRIT_1PCT = 1.6276  # asymptotic Kolmogorov distribution, alpha = 0.01


@pytest.mark.parametrize("fam", [gaussian(), gamma(2), beta(2, 3)])
def test_sampler_law_one_sample_ks(fam):
    n = 1_000_000
    vals = np.sort(sample(ProductMeasure(fam, 1), n, seed=31)[:, 0])
    cdf = np.asarray(fam.cdf(vals), dtype=float)
    hi = np.max(np.arange(1, n + 1) / n - cdf)
    lo = np.max(cdf - np.arange(0, n) / n)
    d = max(hi, lo)
    assert d < KS_CRIT_1PCT / math.sqrt(n)


def test_gamma_sampler_matches_scipy_law():
    vals = sample(ProductMeasure(gamma(2), 1), 200_000, seed=17)[:, 0]
    stat = stats.kstest(vals, "gamma", args=(2,)).statistic
    assert stat < KS_CRIT_1PCT / math.sqrt(vals.size)


# -- pool draws ----------------------------------------------------------------------


@pytest.mark.parametrize("family", [gaussian(), gamma(2), beta(2, 2)],
                         ids=["gaussian", "gamma2", "beta22"])
def test_block_draws_equal_one_draw_per_chunk(family):
    # Drawing a chunk BLOCK_ROWS rows at a time, each block SLAB_ROWS rows at
    # a time, from its generator yields bit for bit the rows of one draw of
    # the whole chunk.  The last block holds a partial slab.
    n = CHUNK_ROWS + BLOCK_ROWS + SLAB_ROWS + 123
    for width in (5, 1):
        pool = draw_pool(family, width, n, substream(4, "blocks"))
        children = substream(4, "blocks").spawn(len(pool))
        assert [(lo, hi) for lo, hi, _ in pool] == [(0, CHUNK_ROWS), (CHUNK_ROWS, n)]
        for (lo, hi, blocks), child in zip(pool, children):
            drawn = list(blocks)
            edges = [(a, b) for a, b, _ in drawn]
            assert edges[0][0] == lo and edges[-1][1] == hi
            assert all(b - a <= BLOCK_ROWS for a, b in edges)
            assert all(b == c for (_, b), (c, _) in zip(edges, edges[1:]))
            # column-major (rows, width) blocks, each on its own buffer
            assert all(x.shape == (b - a, width) for a, b, x in drawn)
            assert all(x.flags.f_contiguous for _, _, x in drawn)
            assert not np.shares_memory(drawn[0][2], drawn[-1][2])
            whole = family.draw(generator(child), (hi - lo, width))
            assert np.array_equal(np.concatenate([x for _, _, x in drawn]), whole)
