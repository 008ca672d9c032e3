"""Small-ball probabilities and anti-concentration diagnostics.

The Carbery-Wright inequality bounds small-ball probabilities of a
degree-k polynomial Q under a log-concave measure mu:

    (int Q^2 dmu)^(1/2k) * mu{ |Q| <= alpha }  <=  c k alpha^(1/k)

for an absolute constant c.  The constant is not pinned down numerically
anywhere usable, so this module treats it empirically: it estimates the
ratio curve

    ratio(alpha) = mu{|Q| <= alpha} * (E Q^2)^(1/2k) / alpha^(1/k)

by Monte Carlo (E Q^2 comes exactly from the moment engine) and reports
c_hat = sup ratio / k, together with a stability check of c_hat between n
and a multiple of n samples.

All alpha-grid estimates share one sample pool (common random numbers), so
monotonicity of the small-ball curve holds exactly on the frequencies, not
just in expectation.  The same convention applies to the smoothed-indicator
functional E[eps / (Gamma(Q) + eps)] across an eps-grid, whose fitted
growth constant kappa (against eps^(1/(2d+1))) feeds the total-variation
bound machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError
from .measures import ProductMeasure, expectation, functional_values
from .operators import DiffusionOperator, carre_du_champ
from .poly import Polynomial

DEFAULT_EPS_GRID = np.logspace(-6, 0, 25)


@dataclass(frozen=True)
class SmallBallCurve:
    """Monte-Carlo estimates of mu{|Q| <= alpha} over an alpha grid."""

    alphas: np.ndarray
    probs: np.ndarray
    stderrs: np.ndarray
    n: int
    seed: int
    degree: int
    l2_norm: float  # sqrt(E Q^2), exact moment engine


@dataclass(frozen=True)
class CWReport:
    curve: SmallBallCurve
    ratios: np.ndarray
    c_hat: float
    c_hat_refined: float | None = None  # at stability_factor * n samples
    stable: bool | None = None
    params: dict = field(default_factory=dict)


def _ball_probs(
    q: Polynomial, mu: ProductMeasure, alphas: np.ndarray, n: int, seed: int, *labels
) -> tuple[np.ndarray, np.ndarray]:
    vals = np.sort(np.abs(functional_values(q, mu, n, seed, *labels)))
    counts = np.searchsorted(vals, alphas, side="right")
    probs = counts / n
    stderrs = np.sqrt(probs * (1 - probs) / n)
    return probs, stderrs


def _check_alphas(alphas) -> np.ndarray:
    alphas = np.asarray(alphas, dtype=float)
    if alphas.size == 0 or np.any(alphas <= 0) or np.any(np.diff(alphas) <= 0):
        raise PreconditionError("alphas must be positive and strictly ascending")
    return alphas


def small_ball(
    q: Polynomial, mu: ProductMeasure, alphas, n: int, seed: int
) -> SmallBallCurve:
    """Estimate mu{|Q| <= alpha} with binomial standard errors attached."""
    alphas = _check_alphas(alphas)
    degree = q.degree()
    if degree is None or degree < 1:
        raise PreconditionError("small_ball requires a nonconstant polynomial")
    l2 = math.sqrt(float(expectation(q * q, mu)))
    probs, stderrs = _ball_probs(q, mu, alphas, n, seed, "small-ball")
    return SmallBallCurve(alphas, probs, stderrs, n, seed, degree, l2)


def carbery_wright_check(
    q: Polynomial,
    mu: ProductMeasure,
    alphas,
    n: int,
    seed: int,
    stability_factor: int | None = 10,
) -> CWReport:
    """Ratio curve and fitted c_hat for the small-ball inequality.

    ``stability_factor`` triggers a second, larger run whose c_hat must stay
    within a factor 2 of the first (``stable``); pass None to skip it.
    """
    alphas = _check_alphas(alphas)
    e_q2 = expectation(q * q, mu)
    if e_q2 <= 0:
        raise PreconditionError(
            "degenerate input: E[Q^2] = 0, the inequality is void"
        )
    degree = q.degree()
    k = max(1, degree if degree is not None else 0)
    l2 = math.sqrt(float(e_q2))
    norm_factor = float(e_q2) ** (1.0 / (2 * k))

    probs, stderrs = _ball_probs(q, mu, alphas, n, seed, "small-ball")
    ratios = probs * norm_factor / alphas ** (1.0 / k)
    c_hat = float(ratios.max() / k)
    curve = SmallBallCurve(alphas, probs, stderrs, n, seed, k, l2)

    c_big = None
    stable = None
    if stability_factor is not None:
        n_big = n * int(stability_factor)
        probs_big, _ = _ball_probs(q, mu, alphas, n_big, seed, "small-ball-refined")
        ratios_big = probs_big * norm_factor / alphas ** (1.0 / k)
        c_big = float(ratios_big.max() / k)
        if c_hat > 0 and c_big > 0:
            stable = max(c_hat, c_big) / min(c_hat, c_big) < 2.0
        else:
            stable = c_hat == c_big
    return CWReport(
        curve, ratios, c_hat, c_big, stable,
        params={"norm_factor": norm_factor, "k": k, "n": n},
    )


def _smoothed_indicator(gam: np.ndarray, eps_grid) -> tuple[np.ndarray, np.ndarray]:
    """E[eps / (G + eps)] and its standard error per eps, all on one column G."""
    n = gam.size
    est, se = np.empty((2, len(eps_grid)))
    for i, e in enumerate(eps_grid):
        r = e / (gam + e)
        est[i] = r.mean()
        se[i] = r.std(ddof=1) / math.sqrt(n) if n > 1 else 0.0
    return est, se


def kappa_envelope(gammas, eps_grid, d: int, se_margin: float) -> float:
    """Least kappa with est + se_margin * se <= kappa * eps^(1/(2d+1)).

    Fitted over every column of Gamma(Q) values in ``gammas`` and every eps.
    """
    root = 1.0 / (2 * d + 1)
    kappa = 0.0
    for gam in gammas:
        est, se = _smoothed_indicator(gam, eps_grid)
        for e, m, s in zip(eps_grid, est, se):
            kappa = max(kappa, float(m + se_margin * s) / e**root)
    return float(kappa)


def _gamma_values(q, mu, n, seed, gamma_q=None) -> np.ndarray:
    if gamma_q is None:
        gamma_q = carre_du_champ(DiffusionOperator(mu.family, mu.dim), q)
    return functional_values(gamma_q, mu, n, seed, "smoothed-indicator")


def smoothed_indicator_functional(
    q: Polynomial,
    mu: ProductMeasure,
    eps,
    n: int,
    seed: int,
    gamma_q: Polynomial | None = None,
):
    """E[ eps / (Gamma(Q) + eps) ] by Monte Carlo, with standard errors.

    ``eps`` may be a scalar or a grid; a grid shares one sample pool, so the
    estimates are exactly nonincreasing as eps decreases.  Gamma(Q) is
    computed symbolically (or supplied precomputed via ``gamma_q``).
    """
    eps_arr = np.atleast_1d(np.asarray(eps, dtype=float))
    if np.any(eps_arr <= 0):
        raise PreconditionError("eps must be positive")
    est, se = _smoothed_indicator(_gamma_values(q, mu, n, seed, gamma_q), eps_arr)
    if np.isscalar(eps) or np.ndim(eps) == 0:
        return float(est[0]), float(se[0])
    return est, se


def kappa_fit(
    qs,
    mu,
    d: int,
    eps_grid=None,
    n: int = 100_000,
    seed: int = 0,
    se_margin: float = 2.0,
) -> float:
    """Least kappa with functional(eps) <= kappa * eps^(1/(2d+1)) on the grid.

    ``qs`` is a sequence of polynomials of common degree bound d; ``mu`` is a
    matching ProductMeasure or a sequence of them.  The Monte-Carlo margin
    ``se_margin`` standard errors is added before fitting, so the returned
    kappa is an upper envelope at that confidence.
    """
    qs = list(qs)
    if not qs:
        raise PreconditionError("empty polynomial sequence")
    if eps_grid is None:
        eps_grid = DEFAULT_EPS_GRID
    eps_grid = np.asarray(eps_grid, dtype=float)
    if eps_grid.size == 0:
        raise PreconditionError("empty eps grid")
    if np.any(eps_grid <= 0):
        raise PreconditionError("eps grid must be positive")
    if d < 1:
        raise PreconditionError("degree bound d must be >= 1")
    mus = list(mu) if isinstance(mu, (list, tuple)) else [mu] * len(qs)
    gammas = (_gamma_values(q, m, n, seed) for q, m in zip(qs, mus))
    return kappa_envelope(gammas, eps_grid, d, se_margin)
