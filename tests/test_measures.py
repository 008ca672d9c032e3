"""Moment engine, orthogonal bases, and sampler law checks."""

import json
import math
import os
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate, stats

import reference_laws
from gamma_lab.config import parse_family
from gamma_lab.errors import PreconditionError
from gamma_lab.measures import (
    BETA_ORDER_MAX,
    GAMMA_SUM_MAX,
    MeasureFamily,
    basis,
    beta,
    draw_pool,
    expectation,
    functional_values,
    gamma,
    gaussian,
    monomial_in_basis,
    pool_pass,
    raw_moment,
    sample,
    variance,
)
from gamma_lab.poly import Polynomial, variables
from gamma_lab.sampling import (
    BLOCK_ROWS, CHUNK_ROWS, SLAB_ROWS, chunk_edges, generator, substream,
)

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


@pytest.mark.parametrize("value", [math.inf, math.nan, 10**400, Fraction(10**400, 3)],
                         ids=["inf", "nan", "int-1e400", "fraction-1e400"])
def test_family_parameter_must_be_a_finite_float(value):
    # Samplers and double-mode operators convert parameters to float.
    with pytest.raises(PreconditionError, match="not a finite float"):
        gamma(value)
    with pytest.raises(PreconditionError, match="not a finite float"):
        beta(2, value)


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
            lambda x, k=k: x**k * float(reference_laws.pdf(fam, np.asarray(x))),
            lo, hi, limit=300,
        )
        assert num == pytest.approx(exact, rel=1e-9, abs=1e-12)


def _recorded_laws():
    # Values of MeasureFamily.pdf/.cdf, recorded as float hex strings before
    # those methods moved out of the library (numpy 2.4.6, scipy 1.17.1), on
    # grids that hold each support's edges and points just outside it.
    path = os.path.join(os.path.dirname(__file__), "data", "family_laws.json")
    with open(path) as fh:
        return json.load(fh)


@pytest.mark.parametrize("record", _recorded_laws(), ids=lambda r: parse_family(
    r["family"]).label())
def test_reference_laws_equal_removed_family_methods(record):
    fam = parse_family(record["family"])
    x = np.array([float.fromhex(v) for v in record["x"]])
    for fn in ("pdf", "cdf"):
        got = np.asarray(getattr(reference_laws, fn)(fam, x), dtype=float)
        assert [float(v).hex() for v in got] == record[fn], fn


# -- expectations of polynomials ------------------------------------------------


def test_expectation_odd_gaussian_vanishes():
    x1, x2 = variables(2)
    assert expectation(x1 * x2, gaussian()) == 0


def test_expectation_factorizes():
    x1, x2 = variables(2)
    fam = gaussian()
    # oracle: independence factorization E[x1^2 x2^2] = E[x1^2] E[x2^2]
    assert expectation(x1 * x1 * x2 * x2, fam) == raw_moment(gaussian(), 2) ** 2 == 1


def test_expectation_gamma_mean():
    x1 = Polynomial.variable(1, 1)
    assert expectation(x1, gamma(2)) == 2


def test_variance_examples():
    fam = gaussian()
    x1, x2 = variables(2)
    assert variance(Polynomial.constant(7, 2), fam) == 0
    assert variance(Polynomial.variable(1, 1), gaussian()) == 1
    assert variance(x1 * x2 + x1, fam) == 2


def test_variance_matches_monte_carlo():
    # oracle: Monte Carlo at 10^6 samples, 3 sigma band
    x1, x2 = variables(2)
    p = x1 * x2 + x1
    fam = gaussian()
    vals = p.evaluate_batch(sample(fam, 2, 1_000_000, seed=7))
    mc_var = float(np.var(vals))
    se = math.sqrt(2.0 / vals.size) * mc_var * 3  # rough 3 s.e. for a variance
    assert abs(mc_var - float(variance(p, fam))) < max(se, 3e-2)


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
        assert expectation(l1, fam) == 0
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
        assert expectation(j1, fam) == 0
        x = Polynomial.variable(1, 1)
        assert j1 == x - Polynomial.constant(Fraction(b - a, a + b), 1)


@pytest.mark.parametrize("fam", FAMILIES)
def test_orthogonality_up_to_degree_8(fam):
    polys = [basis(fam, i) for i in range(9)]
    for i in range(9):
        for j in range(i):
            assert expectation(polys[i].poly * polys[j].poly, fam) == 0
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
    fam = gamma(2)
    a = sample(fam, 3, 50_000, seed=123)
    b = sample(fam, 3, 50_000, seed=123)
    assert np.array_equal(a, b)
    c = sample(fam, 3, 50_000, seed=124)
    assert not np.array_equal(a, c)


def test_gaussian_sample_mean_band():
    # oracle: CLT band 4/sqrt(n) around 0
    n = 1_000_000
    vals = sample(gaussian(), 1, n, seed=5)[:, 0]
    assert abs(float(vals.mean())) < 4 / math.sqrt(n)


def test_beta_uniform_support_and_mean():
    vals = sample(beta(1, 1), 1, 200_000, seed=9)[:, 0]
    assert vals.min() >= -1 and vals.max() <= 1
    assert abs(float(vals.mean())) < 0.01


KS_CRIT_1PCT = 1.6276  # asymptotic Kolmogorov distribution, alpha = 0.01


def _ks_statistic(fam, n, seed):
    """One-sample Kolmogorov-Smirnov statistic of n pooled draws against its CDF."""
    vals = np.sort(sample(fam, 1, n, seed=seed)[:, 0])
    cdf = np.asarray(reference_laws.cdf(fam, vals), dtype=float)
    hi = np.max(np.arange(1, n + 1) / n - cdf)
    lo = np.max(cdf - np.arange(0, n) / n)
    return max(hi, lo)


@pytest.mark.parametrize("fam", [gaussian(), gamma(2), beta(2, 3)])
def test_sampler_law_one_sample_ks(fam):
    n = 1_000_000
    assert _ks_statistic(fam, n, seed=31) < KS_CRIT_1PCT / math.sqrt(n)


# One parameter set per draw path: order statistics of uniforms for beta with
# a + b - 1 <= BETA_ORDER_MAX, sums of exponentials for gamma with integer
# r <= GAMMA_SUM_MAX, numpy's beta/gamma samplers past the caps.
DRAW_PATHS = {
    "beta11-order": beta(1, 1),
    "beta13-order": beta(1, 3),
    "beta32-order": beta(3, 2),
    "gamma1-sum": gamma(1),
    "gamma3-sum": gamma(3),
    "beta34-order": beta(3, 4),
    "beta44-numpy": beta(4, 4),
    "gamma4-numpy": gamma(4),
    "gamma5/2-numpy": gamma(Fraction(5, 2)),
}


@pytest.mark.parametrize("fam", DRAW_PATHS.values(), ids=DRAW_PATHS.keys())
def test_sampler_paths_one_sample_ks(fam):
    n = 1_000_000
    assert _ks_statistic(fam, n, seed=31) < KS_CRIT_1PCT / math.sqrt(n)


def test_draw_path_dispatch():
    # The caps pick the path: past them, and for the gaussian, draws are
    # numpy's own stream; inside them, the exact constructions.
    assert BETA_ORDER_MAX == 6 and GAMMA_SUM_MAX == 3
    shape = (300, 4)

    def rng():
        return generator(substream(8, "paths"))

    assert np.array_equal(gaussian().draw(rng(), shape), rng().standard_normal(shape))
    for fam in (beta(4, 4), beta(Fraction(5, 2), 2), beta(1, 5.5)):
        numpy_beta = 1.0 - 2.0 * rng().beta(float(fam.a), float(fam.b), size=shape)
        assert np.array_equal(fam.draw(rng(), shape), numpy_beta)
    for fam in (gamma(4), gamma(Fraction(5, 2))):
        assert np.array_equal(fam.draw(rng(), shape), rng().gamma(float(fam.r), size=shape))
    u = rng().random((*shape, 4))
    assert np.array_equal(beta(3, 2).draw(rng(), shape), 1.0 - 2.0 * np.sort(u)[..., 2])
    e = rng().standard_exponential((*shape, 3))
    assert np.array_equal(gamma(3).draw(rng(), shape), e[..., 0] + e[..., 1] + e[..., 2])


@pytest.mark.parametrize("terms", range(1, BETA_ORDER_MAX + 1))
def test_beta_construction_is_the_sorted_uniform(terms):
    # Every beta(a, b) with a + b - 1 = terms uniforms draws the a-th
    # smallest of them, byte for byte.
    shape = (300, 4)

    def rng():
        return generator(substream(9, "order", terms))

    u = np.sort(rng().random((*shape, terms)))
    for a in range(1, terms + 1):
        drawn = beta(a, terms + 1 - a).draw(rng(), shape)
        assert drawn.tobytes() == (1.0 - 2.0 * u[..., a - 1]).tobytes()


def test_exact_and_float_families_keep_separate_moments():
    # gamma(1) and gamma(1.0) are one law in two arithmetic modes: a float
    # moment cached for one must not come back for the other.
    for exact, floating in ((gamma(1), gamma(1.0)), (beta(2, 3), beta(2.0, 3))):
        assert exact != floating and exact.exact and not floating.exact
        assert isinstance(raw_moment(floating, 11), float)
        assert isinstance(raw_moment(exact, 11), Fraction)
        assert basis(floating, 3).poly.exact is False and basis(exact, 3).poly.exact


def test_integer_valued_float_parameters_draw_the_same_pool():
    # Dispatch is on the parameter's value, not its type.
    for exact, floating in ((beta(2, 2), beta(2.0, 2.0)), (gamma(2), gamma(2.0))):
        pools = [sample(fam, 3, 5000, seed=12) for fam in (exact, floating)]
        assert pools[0].tobytes() == pools[1].tobytes()


def test_gamma_sampler_matches_scipy_law():
    vals = sample(gamma(2), 1, 200_000, seed=17)[:, 0]
    stat = stats.kstest(vals, "gamma", args=(2,)).statistic
    assert stat < KS_CRIT_1PCT / math.sqrt(vals.size)


# -- pool draws ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "family, slab",
    [(gaussian(), BLOCK_ROWS), (gamma(2), SLAB_ROWS), (beta(2, 2), SLAB_ROWS),
     (beta(3, 2), SLAB_ROWS), (gamma(Fraction(5, 2)), BLOCK_ROWS)],
    ids=["gaussian", "gamma2", "beta22", "beta32", "gamma5/2"])
def test_block_draws_equal_one_draw_per_chunk(family, slab):
    # Batch after batch from its chunk's generator, each batch is the
    # transpose of a C-order (width, rows) buffer: one draw of that shape per
    # block, or for the exact constructions one draw per SLAB_ROWS rows of
    # it.  The last batch holds a partial slab.  A batch holds 2^19 values
    # in whole blocks, at least one and at most a chunk.
    n = CHUNK_ROWS + BLOCK_ROWS + SLAB_ROWS + 123
    for width, rows in ((5, CHUNK_ROWS), (1, CHUNK_ROWS), (64, 2 * BLOCK_ROWS),
                        (128, BLOCK_ROWS)):
        pool = draw_pool(family, width, n, substream(4, "blocks"))
        children = substream(4, "blocks").spawn(len(pool))
        assert [(lo, hi) for lo, hi, _ in pool] == [(0, CHUNK_ROWS), (CHUNK_ROWS, n)]
        batches = []
        for (lo, hi, chunk), child in zip(pool, children):
            drawn = list(chunk)
            edges = [(a, b) for a, b, _ in drawn]
            assert edges[0][0] == lo and edges[-1][1] == hi
            assert all(b - a == rows for a, b in edges[:-1])
            assert all(b - a <= rows for a, b in edges)
            assert all(b == c for (_, b), (c, _) in zip(edges, edges[1:]))
            # column-major (rows, width) batches, each on its own buffer
            assert all(x.shape == (b - a, width) for a, b, x in drawn)
            assert all(x.flags.f_contiguous for _, _, x in drawn)
            batches += [x for _, _, x in drawn]
            rng = generator(child)
            for a, b, x in drawn:
                buf = np.concatenate([
                    family.draw(rng, (width, min(slab, b - s)))
                    for s in range(a, b, slab)
                ], axis=1)
                assert np.array_equal(x, buf.T)
        assert not any(np.shares_memory(x, y) for x, y in zip(batches, batches[1:]))


def test_functional_values_are_the_polynomial_on_the_sample_pool():
    fam = beta(2, 2)
    x1, x2, x3 = variables(3, exact=False)
    q = x1 * x2 + x3 * x3 * x3 - 0.5
    n = CHUNK_ROWS + BLOCK_ROWS + 77
    values = functional_values(q, fam, n, 5, "label")
    assert values.shape == (n,)
    assert np.array_equal(values, q.evaluate_batch(sample(fam, 3, n, 5, "label")))


def test_pool_pass_columns_and_sums_at_any_thread_count():
    # Five chunks, the last one partial; columns over all rows, over rows
    # that end inside a block of the second chunk, and inside the first block.
    fam = beta(2, 2)
    x1, x2, x3 = variables(3, exact=False)
    p, r = x1 * x2 + x3 * x3 * x3 - 0.5, x2 - 0.25 * x1 * x3
    n = 4 * CHUNK_ROWS + BLOCK_ROWS + 77
    columns, sums = [(p, n), (r, CHUNK_ROWS + BLOCK_ROWS + 5), (p, 5)], [r, p]

    def run(columns, sums=(), threads=1):
        return pool_pass(fam, n, substream(3, "pass"), columns, sums, threads)

    values, totals = run(columns, sums)
    for threads in (2, 3):
        other, other_totals = run(columns, sums, threads)
        assert [v.tobytes() for v in other] == [v.tobytes() for v in values]
        assert other_totals == totals
    for (q, k), vals in zip(columns, values):
        (alone,), _ = run([(q, k)])
        assert vals.shape == (k,) and not vals.flags.writeable
        assert alone.tobytes() == vals.tobytes()
    # Each chunk sums |q| and q^2 over its whole chunk; the chunk sums are
    # added in chunk order.
    for q, (total, total_sq) in zip(sums, totals):
        (full,), _ = run([(q, n)])
        expected = expected_sq = 0.0
        for lo, hi in chunk_edges(n):
            chunk = np.abs(full[lo:hi])
            expected += float(chunk.sum())
            expected_sq += float((chunk * chunk).sum())
        assert (total, total_sq) == (expected, expected_sq)


def test_pool_pass_workers_ignore_overflow():
    # numpy's error state is per thread: a worker sets its own, so an
    # overflow warns in no thread and the value reaches the caller as inf.
    q = Polynomial(1, {((1, 3),): 1e308}, exact=False)
    n = 2 * CHUNK_ROWS
    (values,), ((total, _),) = pool_pass(gaussian(), n, substream(1, "inf"), [(q, n)],
                                         [q], threads=2)
    assert np.isinf(values).any() and total == math.inf


def test_construction_terms_resolve_once_per_family(monkeypatch):
    fam = beta(2, 2)  # an exact construction, drawn slab by slab
    expected = np.concatenate([x for _, _, x in _pool(fam)])

    def resolve(self):
        raise AssertionError("construction terms resolved again after __init__")

    monkeypatch.setattr(MeasureFamily, "_construction_terms", resolve)
    assert np.array_equal(np.concatenate([x for _, _, x in _pool(fam)]), expected)


def _pool(fam):
    return [b for _, _, blocks in draw_pool(fam, 3, BLOCK_ROWS + 5, substream(2, "t"))
            for b in blocks]


def test_pool_generator_is_sfc64():
    assert isinstance(generator(substream(1, "pool")).bit_generator, np.random.SFC64)


@pytest.mark.parametrize("seed", [2**64, -1])
def test_substream_refuses_seeds_beyond_64_bits(seed):
    # Keeping the low 64 bits would alias 2**64 to seed 0 and -1 to 2**64 - 1.
    with pytest.raises(PreconditionError, match="outside"):
        substream(seed, "a")
    with pytest.raises(PreconditionError, match="outside"):
        sample(gaussian(), 1, 10, seed)
