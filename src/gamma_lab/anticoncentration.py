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
from .measures import MeasureFamily, expectation, finite_float, functional_values
from .operators import DiffusionOperator, carre_du_champ
from .poly import Polynomial

DEFAULT_EPS_GRID = np.logspace(-6, 0, 25)
# Standard errors added to each smoothed-indicator estimate before kappa is
# fitted, so kappa is an upper envelope at that confidence.
SE_MARGIN = 2.0
# Smallest stability_factor the config and the CLI accept: the refined run
# must be larger than the first.
MIN_STABILITY_FACTOR = 2


@dataclass(frozen=True)
class SmallBallCurve:
    """Monte-Carlo estimates of mu{|Q| <= alpha} over an alpha grid."""

    alphas: np.ndarray
    probs: np.ndarray
    stderrs: np.ndarray
    n: int


@dataclass(frozen=True)
class CWReport:
    curve: SmallBallCurve
    ratios: np.ndarray
    c_hat: float
    c_hat_refined: float | None = None  # at stability_factor * n samples
    stable: bool | None = None
    params: dict = field(default_factory=dict)


def _ball_probs(
    q: Polynomial, family: MeasureFamily, alphas: np.ndarray, n: int, seed: int, *labels
) -> tuple[np.ndarray, np.ndarray]:
    vals = np.sort(np.abs(functional_values(q, family, n, seed, *labels)))
    counts = np.searchsorted(vals, alphas, side="right")
    probs = counts / n
    stderrs = np.sqrt(probs * (1 - probs) / n)
    return probs, stderrs


def _check_alphas(alphas) -> np.ndarray:
    alphas = np.asarray(alphas, dtype=float)
    if not np.isfinite(alphas).all():  # a NaN passes both comparisons below
        raise PreconditionError("alphas must be finite")
    if alphas.size == 0 or np.any(alphas <= 0) or np.any(np.diff(alphas) <= 0):
        raise PreconditionError("alphas must be positive and strictly ascending")
    return alphas


def carbery_wright_check(
    q: Polynomial,
    family: MeasureFamily,
    alphas,
    n: int,
    seed: int,
    stability_factor: int | None = 10,
) -> CWReport:
    """The small-ball curve (``curve``), its ratio curve and fitted c_hat for
    the small-ball inequality under ``family``^q.dim.

    ``stability_factor`` triggers a second, larger run whose c_hat must stay
    within a factor 2 of the first (``stable``); pass None to skip it.
    """
    alphas = _check_alphas(alphas)
    e_q2 = expectation(q * q, family)
    if e_q2 <= 0:
        raise PreconditionError(
            "degenerate input: E[Q^2] = 0, the inequality is void"
        )
    degree = q.degree()
    k = max(1, degree if degree is not None else 0)
    norm_factor = finite_float(e_q2, "E[Q^2]") ** (1.0 / (2 * k))

    probs, stderrs = _ball_probs(q, family, alphas, n, seed, "small-ball")
    ratios = probs * norm_factor / alphas ** (1.0 / k)
    c_hat = float(ratios.max() / k)
    curve = SmallBallCurve(alphas, probs, stderrs, n)

    n_big = c_big = stable = None
    if stability_factor is not None:
        n_big = n * int(stability_factor)
        probs_big, _ = _ball_probs(q, family, alphas, n_big, seed, "small-ball-refined")
        ratios_big = probs_big * norm_factor / alphas ** (1.0 / k)
        c_big = float(ratios_big.max() / k)
        if c_hat > 0 and c_big > 0:
            stable = max(c_hat, c_big) / min(c_hat, c_big) < 2.0
        else:
            stable = c_hat == c_big
    return CWReport(
        curve, ratios, c_hat, c_big, stable,
        params={"norm_factor": norm_factor, "k": k, "n": n, "n_refined": n_big},
    )


def _smoothed_indicator(gam: np.ndarray, eps_grid) -> tuple[np.ndarray, np.ndarray]:
    """E[eps / (G + eps)] and its standard error per eps, all on one column G."""
    n = gam.size
    est, se = np.empty((2, len(eps_grid)))
    r = np.empty(n)  # one buffer for every eps
    for i, e in enumerate(eps_grid):
        np.divide(e, np.add(gam, e, out=r), out=r)
        est[i] = r.mean()
        se[i] = r.std(ddof=1) / math.sqrt(n) if n > 1 else 0.0
    return est, se


def kappa_envelope(gammas, d: int) -> float:
    """Least kappa with est + SE_MARGIN * se <= kappa * eps^(1/(2d+1)).

    Fitted over every column of Gamma(Q) values in ``gammas`` and every eps
    of ``DEFAULT_EPS_GRID``.
    """
    root = 1.0 / (2 * d + 1)
    kappa = 0.0
    for gam in gammas:
        est, se = _smoothed_indicator(gam, DEFAULT_EPS_GRID)
        for e, m, s in zip(DEFAULT_EPS_GRID, est, se):
            kappa = max(kappa, float(m + SE_MARGIN * s) / e**root)
    return float(kappa)


def _gamma_values(q, family, n, seed) -> np.ndarray:
    gamma_q = carre_du_champ(DiffusionOperator(family, q.dim), q)
    return functional_values(gamma_q, family, n, seed, "smoothed-indicator")


def smoothed_indicator_functional(
    q: Polynomial,
    family: MeasureFamily,
    eps,
    n: int,
    seed: int,
):
    """E[ eps / (Gamma(Q) + eps) ] under ``family``^q.dim by Monte Carlo, with
    standard errors.

    ``eps`` may be a scalar or a grid; a grid shares one sample pool, so the
    estimates are exactly nonincreasing as eps decreases.  Gamma(Q) is
    computed symbolically.
    """
    eps_arr = np.atleast_1d(np.asarray(eps, dtype=float))
    if not np.all((eps_arr > 0) & np.isfinite(eps_arr)):
        raise PreconditionError("eps must be positive and finite")
    est, se = _smoothed_indicator(_gamma_values(q, family, n, seed), eps_arr)
    if np.isscalar(eps) or np.ndim(eps) == 0:
        return float(est[0]), float(se[0])
    return est, se


def kappa_fit(qs, family: MeasureFamily, d: int, n: int = 100_000, seed: int = 0) -> float:
    """Least kappa with functional(eps) <= kappa * eps^(1/(2d+1)) on ``DEFAULT_EPS_GRID``.

    ``qs`` is a sequence of polynomials of common degree bound d, each under
    ``family``^q.dim, so their dimensions may differ.  The Monte-Carlo margin
    of ``SE_MARGIN`` standard errors is added before fitting, so the returned
    kappa is an upper envelope at that confidence.
    """
    qs = list(qs)
    if not qs:
        raise PreconditionError("empty polynomial sequence")
    if d < 1:
        raise PreconditionError("degree bound d must be >= 1")
    return kappa_envelope((_gamma_values(q, family, n, seed) for q in qs), d)
