"""Distance estimators: Kolmogorov, total variation, Fortet-Mourier."""

import math

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.stats import kstwobign

from gamma_lab.distances import (
    AnalyticLaw,
    SampleSet,
    bounded_lipschitz_grid_value,
    fortet_mourier,
    functional_samples,
    kolmogorov,
    total_variation,
)
from gamma_lab.errors import PreconditionError
from gamma_lab.measures import ProductMeasure, gaussian
from gamma_lab.poly import Polynomial, variables

KS_CRIT_1PCT = float(kstwobign.ppf(0.99))


def gaussian_samples(n, seed, loc=0.0, scale=1.0):
    rng = np.random.default_rng(seed)
    return SampleSet(loc + scale * rng.standard_normal(n), seed=seed)


# -- Kolmogorov ---------------------------------------------------------------


def test_kolmogorov_identical_sample_sets():
    s = gaussian_samples(10_000, 1)
    assert kolmogorov(s, s).estimate == 0.0


@pytest.mark.parametrize("n", [1, 5, 10, 50])
def test_kolmogorov_cos2_vs_uniform(n):
    # oracle: sup |sin(2nx)|/(2 pi n) = 1/(2 pi n), attained at x = pi/(4n)
    report = kolmogorov(AnalyticLaw.cos2(n), AnalyticLaw.uniform_0_pi())
    assert report.estimate == pytest.approx(1 / (2 * math.pi * n), abs=1e-9)


def test_kolmogorov_two_sample_same_law_below_critical():
    nx = ny = 100_000
    d = kolmogorov(gaussian_samples(nx, 2), gaussian_samples(ny, 3)).estimate
    assert d < KS_CRIT_1PCT * math.sqrt((nx + ny) / (nx * ny))


def test_kolmogorov_mixed_matches_analytic_law():
    s = gaussian_samples(100_000, 4)
    d = kolmogorov(s, AnalyticLaw.gaussian()).estimate
    assert d < KS_CRIT_1PCT / math.sqrt(s.n)


def test_kolmogorov_symmetry():
    a, b = gaussian_samples(5_000, 5), gaussian_samples(5_000, 6, loc=0.3)
    assert kolmogorov(a, b).estimate == kolmogorov(b, a).estimate


# -- total variation -------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 5, 10, 50])
def test_tv_cos2_vs_uniform(n):
    # oracle: (1/2) int |(2/pi)cos^2(nx) - 1/pi| dx = 1/pi by periodicity
    report = total_variation(AnalyticLaw.cos2(n), AnalyticLaw.uniform_0_pi())
    assert report.estimate == pytest.approx(1 / math.pi, abs=1e-6)


def test_tv_identical_laws_analytic():
    u = AnalyticLaw.uniform_0_pi()
    assert total_variation(u, u).estimate == pytest.approx(0.0, abs=1e-9)


def test_tv_equal_law_empirical_small():
    a, b = gaussian_samples(1_000_000, 7), gaussian_samples(1_000_000, 8)
    report = total_variation(a, b)
    assert report.method == "histogram"
    assert report.estimate <= 0.02


def test_tv_disjoint_narrow_gaussians_saturate():
    lo = AnalyticLaw.gaussian(0.0, 1e-3)
    hi = AnalyticLaw.gaussian(1.0, 1e-3)
    assert total_variation(lo, hi).estimate == pytest.approx(1.0, abs=1e-3)


def test_tv_histogram_consistency_trend():
    # medians over 20 seeds shrink as n grows (estimator consistency on equal laws)
    medians = []
    for n in (1_000, 10_000, 100_000, 1_000_000):
        vals = [
            total_variation(
                gaussian_samples(n, 100 + s), gaussian_samples(n, 500 + s)
            ).estimate
            for s in range(20)
        ]
        medians.append(float(np.median(vals)))
    assert all(b < a for a, b in zip(medians, medians[1:]))


def test_tv_kol_dominance_analytic():
    pairs = [
        (AnalyticLaw.cos2(3), AnalyticLaw.uniform_0_pi()),
        (AnalyticLaw.gaussian(0, 1), AnalyticLaw.gaussian(0.4, 1.3)),
    ]
    for x, y in pairs:
        assert kolmogorov(x, y).estimate <= total_variation(x, y).estimate + 1e-9


# -- Fortet-Mourier ----------------------------------------------------------------


def test_fm_point_masses():
    # oracle: two-point dual value min(2, |x - y|), here 1 and 0.5
    zero = SampleSet(np.zeros(100))
    one = SampleSet(np.ones(100))
    half = SampleSet(np.full(100, 0.5))
    r1 = fortet_mourier(zero, one)
    r2 = fortet_mourier(zero, half)
    assert r1.estimate == pytest.approx(1.0, abs=2 * r1.uncertainty)
    assert r2.estimate == pytest.approx(0.5, abs=2 * r2.uncertainty)


def test_fm_identical_and_degenerate():
    s = gaussian_samples(1_000, 9)
    assert fortet_mourier(s, s).estimate == 0.0
    point = SampleSet(np.zeros(5))
    report = fortet_mourier(point, point)
    assert report.estimate == 0.0 and report.params.get("degenerate")


def test_fm_far_apart_saturates_at_two():
    a = SampleSet(np.zeros(50))
    b = SampleSet(np.full(50, 100.0))
    r = fortet_mourier(a, b)
    assert r.estimate == pytest.approx(2.0, abs=2 * r.uncertainty)


def test_fm_below_w1_upper_bound():
    a, b = gaussian_samples(20_000, 10), gaussian_samples(20_000, 11, loc=0.5)
    report = fortet_mourier(a, b)
    assert report.estimate <= report.params["w1_upper"] + report.uncertainty


def test_fm_symmetry_and_nonnegativity():
    a, b = gaussian_samples(5_000, 12), gaussian_samples(5_000, 13, scale=1.4)
    ab, ba = fortet_mourier(a, b), fortet_mourier(b, a)
    assert ab.estimate >= 0
    assert ab.estimate == pytest.approx(ba.estimate, abs=1e-12)


def test_grid_dual_matches_linear_program():
    # oracle: generic LP solver on the same discretized dual
    rng = np.random.default_rng(99)
    for _ in range(10):
        n = int(rng.integers(3, 60))
        step = float(rng.uniform(0.005, 0.5))
        w = rng.dirichlet(np.ones(n)) - rng.dirichlet(np.ones(n))
        a_ub = np.zeros((2 * (n - 1), n))
        for j in range(n - 1):
            a_ub[2 * j, [j, j + 1]] = (-1, 1)
            a_ub[2 * j + 1, [j, j + 1]] = (1, -1)
        res = linprog(
            -w, A_ub=a_ub, b_ub=np.full(2 * (n - 1), step),
            bounds=[(-1, 1)] * n, method="highs",
        )
        assert res.status == 0
        dp = bounded_lipschitz_grid_value(w, step)
        assert dp == pytest.approx(-res.fun, abs=1e-9)


# -- polynomial functionals ------------------------------------------------------


def test_functional_samples_standard_normal_law():
    q = Polynomial.variable(1, 1)
    s = functional_samples(q, ProductMeasure(gaussian(), 1), 200_000, seed=4)
    d = kolmogorov(s, AnalyticLaw.gaussian()).estimate
    assert d < KS_CRIT_1PCT / math.sqrt(s.n)


def test_functional_samples_constant():
    q = Polynomial.constant(5, dim=2)
    s = functional_samples(q, ProductMeasure(gaussian(), 2), 1_000, seed=3)
    assert np.all(s.values == 5.0)


def test_functional_samples_stable_linear_combination():
    # (x1 + ... + x100)/10 is again standard normal
    dim = 100
    scale = 0.1
    q = Polynomial(dim, {((i, 1),): scale for i in range(1, dim + 1)}, exact=False)
    s = functional_samples(q, ProductMeasure(gaussian(), dim), 200_000, seed=5)
    d = kolmogorov(s, AnalyticLaw.gaussian()).estimate
    assert d < KS_CRIT_1PCT / math.sqrt(s.n)


def test_functional_samples_deterministic():
    q = variables(2)[0] * variables(2)[1]
    mu = ProductMeasure(gaussian(), 2)
    s1 = functional_samples(q, mu, 10_000, seed=8)
    s2 = functional_samples(q, mu, 10_000, seed=8)
    assert np.array_equal(s1.values, s2.values)


def test_empty_sample_set_rejected():
    with pytest.raises(PreconditionError):
        SampleSet(np.array([]))


@pytest.mark.parametrize("values", [[0.0, math.nan], [math.inf], [1.0, -math.inf]],
                         ids=["nan", "inf", "-inf"])
def test_non_finite_sample_set_rejected(values):
    with pytest.raises(PreconditionError, match="non-finite sample value"):
        SampleSet(values)


def test_custom_law_must_normalize():
    with pytest.raises(PreconditionError):
        AnalyticLaw.from_density(lambda x: np.full_like(np.asarray(x, float), 2.0),
                                 (0.0, 1.0))
