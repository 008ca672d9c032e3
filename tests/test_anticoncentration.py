"""Small-ball curves, Carbery-Wright ratios, smoothed indicator functional."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from poly_helpers import variables
from gamma_lab.anticoncentration import (
    DEFAULT_EPS_GRID,
    carbery_wright_check,
    kappa_fit,
    smoothed_indicator_functional,
)
from gamma_lab.errors import PreconditionError
from gamma_lab.measures import expectation, gaussian, raw_moment
from gamma_lab.poly import Polynomial

X1 = Polynomial.variable(1, 1)
GAUSSIAN = gaussian()


def x1x2():
    x1, x2 = variables(2)
    return x1 * x2


# -- small ball -----------------------------------------------------------------


def small_ball(q, family, alphas, n, seed):
    """The small-ball curve mu{|Q| <= alpha}, as carbery_wright_check estimates it."""
    return carbery_wright_check(q, family, alphas, n, seed, stability_factor=None).curve


def test_small_ball_gaussian_coordinate():
    # oracle: P(|X| <= 0.1) = 2 Phi(0.1) - 1 via the error function
    curve = small_ball(X1, GAUSSIAN, np.array([0.1]), n=1_000_000, seed=1)
    expected = 2 * stats.norm.cdf(0.1) - 1
    assert curve.probs[0] == pytest.approx(expected, abs=3 * curve.stderrs[0])


def test_small_ball_saturates():
    curve = small_ball(X1, GAUSSIAN, np.array([1e3]), n=10_000, seed=2)
    assert curve.probs[0] == 1.0


def test_small_ball_monotone_on_shared_samples():
    alphas = np.logspace(-3, 1, 30)
    curve = small_ball(x1x2(), GAUSSIAN, alphas, n=100_000, seed=3)
    assert np.all(np.diff(curve.probs) >= 0)
    assert np.all((curve.probs >= 0) & (curve.probs <= 1))


def test_small_ball_requires_ascending_alphas():
    with pytest.raises(PreconditionError, match="strictly ascending"):
        small_ball(X1, GAUSSIAN, np.array([0.3, 0.2]), 100, 1)


@pytest.mark.parametrize("alphas", [[math.nan], [0.1, math.nan]])
def test_small_ball_refuses_nan_alphas(alphas):
    # Both comparisons of the ascending check are False for NaN.
    with pytest.raises(PreconditionError, match="finite"):
        small_ball(X1, GAUSSIAN, alphas, 100, 1)


# -- Carbery-Wright ----------------------------------------------------------------


def test_cw_linear_ratio_bounded_by_density_sup():
    # oracle: P(|X| <= a)/a <= 2 phi(0) = sqrt(2/pi), exact for the normal density
    alphas = np.logspace(-3, 0, 20)
    report = carbery_wright_check(X1, GAUSSIAN, alphas, n=1_000_000, seed=4,
                                  stability_factor=None)
    limit = math.sqrt(2 / math.pi)
    se = np.sqrt(report.curve.probs * (1 - report.curve.probs) / report.curve.n)
    assert np.all(report.ratios <= limit + 3 * se / alphas)


def test_cw_constant_polynomial_zero_ratios():
    q = Polynomial.constant(5, 1)
    alphas = np.array([0.5, 1.0, 2.0])
    report = carbery_wright_check(q, GAUSSIAN, alphas, n=10_000, seed=5,
                                  stability_factor=None)
    assert np.all(report.curve.probs == 0) and np.all(report.ratios == 0)
    assert report.c_hat == 0


def test_cw_degenerate_rejected():
    with pytest.raises(PreconditionError):
        carbery_wright_check(Polynomial.zero(1), GAUSSIAN, np.array([0.1]), 100, 1)


def test_cw_stability_between_sample_sizes():
    alphas = np.logspace(-3, 0, 15)
    report = carbery_wright_check(x1x2(), GAUSSIAN, alphas, n=100_000, seed=6,
                                  stability_factor=10)
    assert report.stable is True
    assert report.c_hat_refined is not None
    assert np.isfinite(report.c_hat)


def test_cw_transfer_within_degree_class():
    # c_hat fitted on one member; inequality with 2 c_hat holds on held-out members
    alphas = np.logspace(-3, 0, 15)
    fitted = carbery_wright_check(x1x2(), GAUSSIAN, alphas, n=200_000, seed=7,
                                  stability_factor=None)
    x1, x2 = variables(2)
    for q in (x1 * x2 + x1, (x1 + x2) * x2):
        other = carbery_wright_check(q, GAUSSIAN, alphas, n=200_000, seed=8,
                                     stability_factor=None)
        k = other.params["k"]
        se = np.sqrt(other.curve.probs * (1 - other.curve.probs) / other.curve.n)
        margin = se * other.params["norm_factor"] / alphas ** (1.0 / k)
        assert np.all(other.ratios <= 2 * fitted.c_hat * k + 3 * margin)


def test_small_ball_of_gamma_q_variance_normalized_shape():
    # mu{Gamma(Q) <= u} <= c* u^(1/2d) / Var(Q)^(1/2d): fit c* on one member,
    # then the curve of a held-out member stays below 2 c* plus MC margin.
    from gamma_lab.measures import variance
    from gamma_lab.operators import DiffusionOperator, carre_du_champ

    d = 2
    us = np.logspace(-3, 0, 12)
    op = DiffusionOperator(gaussian(), 2)

    def shape_ratios(q, seed):
        gamma_q = carre_du_champ(op, q)
        curve = small_ball(gamma_q, GAUSSIAN, us, n=200_000, seed=seed)
        var_root = float(variance(q, GAUSSIAN)) ** (1.0 / (2 * d))
        se = curve.stderrs
        return curve.probs * var_root / us ** (1.0 / (2 * d)), se * var_root / us ** (
            1.0 / (2 * d)
        )

    x1, x2 = variables(2)
    fit_ratios, _ = shape_ratios(x1 * x2, seed=21)
    c_star = float(fit_ratios.max())
    held_ratios, margins = shape_ratios(x1 * x2 + x1, seed=22)
    assert np.all(held_ratios <= 2 * c_star + 3 * margins)


# -- smoothed indicator functional ----------------------------------------------------


def test_smoothed_functional_constant_gamma():
    # Gamma(x1) = 1 under the OU structure, so the integrand is constant
    for eps in (0.01, 0.5, 1e6):
        est, se = smoothed_indicator_functional(X1, GAUSSIAN, eps, n=10_000, seed=9)
        assert est == pytest.approx(eps / (1 + eps), abs=1e-12)
        assert se == pytest.approx(0.0, abs=1e-15)


def test_smoothed_functional_chi2_quadrature_oracle():
    # Gamma(x1 x2) = x1^2 + x2^2 ~ chi^2_2; oracle: 1-D quadrature of eps/(s+eps)
    eps = 0.01
    est, se = smoothed_indicator_functional(x1x2(), GAUSSIAN, eps, n=400_000, seed=10)
    oracle, _ = integrate.quad(
        lambda s: eps / (s + eps) * stats.chi2.pdf(s, 2), 0, np.inf, limit=300
    )
    assert est == pytest.approx(oracle, abs=3 * se)


def test_smoothed_functional_monotone_in_eps():
    est, _ = smoothed_indicator_functional(
        x1x2(), GAUSSIAN, DEFAULT_EPS_GRID, n=50_000, seed=11
    )
    assert np.all(np.diff(est) >= 0)  # grid is ascending in eps


def test_smoothed_functional_large_eps_limit():
    est, _ = smoothed_indicator_functional(x1x2(), GAUSSIAN, 1e6, n=50_000, seed=12)
    assert est == pytest.approx(1.0, abs=1e-4)


@pytest.mark.parametrize("eps", [math.nan, math.inf, [0.1, math.nan]],
                         ids=["nan", "inf", "grid-with-nan"])
def test_smoothed_functional_refuses_non_finite_eps(eps):
    with pytest.raises(PreconditionError, match="eps must be positive and finite"):
        smoothed_indicator_functional(x1x2(), GAUSSIAN, eps, n=1_000, seed=12)


# -- kappa fit ------------------------------------------------------------------------


def test_kappa_constant_gamma_case():
    # oracle: eps/(1+eps) <= eps^(1/3) on (0, 1], with max ratio 1/2 at eps = 1
    kappa = kappa_fit([X1], GAUSSIAN, d=1, n=20_000, seed=13)
    grid_max = max(e ** (2 / 3) / (1 + e) for e in DEFAULT_EPS_GRID)
    assert kappa == pytest.approx(grid_max, abs=1e-12)
    assert kappa <= 1.0


def test_kappa_decreases_when_variance_doubles():
    q = x1x2()
    kappa1 = kappa_fit([q], GAUSSIAN, d=2, n=50_000, seed=14)
    kappa2 = kappa_fit([q.scale(2)], GAUSSIAN, d=2, n=50_000, seed=14)
    assert kappa2 < kappa1


def test_one_family_serves_polynomials_of_every_dimension():
    # The product measure is the family plus the polynomial's variable count:
    # one family serves dimensions 1 and 3 in one fit, and 1 and 4 in E[.].
    y1, y2, y3 = variables(3)
    qs = [X1, y1 * y2 + y3]
    singles = [kappa_fit([q], GAUSSIAN, d=2, n=20_000, seed=15) for q in qs]
    assert kappa_fit(qs, GAUSSIAN, d=2, n=20_000, seed=15) == max(singles)
    for dim in (1, 4):
        p = Polynomial(dim, {tuple((i, 2 * i) for i in range(1, dim + 1)): 1})
        assert expectation(p, GAUSSIAN) == math.prod(
            raw_moment(GAUSSIAN, 2 * i) for i in range(1, dim + 1)
        )
