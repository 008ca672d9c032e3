"""Total-variation bound machinery for chains of polynomial functionals.

For two polynomial functionals F = Q(X), F' = Q'(X') of degree at most d
with smoothed-indicator constant kappa and moment budget

    S = sup_n ( int Gamma(Gamma(Q_n)) dmu + int |L Q_n| dmu ),

the total-variation distance is controlled, for any 0 < alpha <= 1 and
eps > 0, by the three-term bound

    d_TV(F, F')  <=  d_FM(F, F') / alpha
                     + 4 kappa eps^(1/(2d+1))
                     + 2 sqrt(2/pi) (alpha/eps) S.

The first term converts the bound-Lipschitz (Fortet-Mourier) distance
through a Gaussian mollifier of width alpha, the second pays for the region
where the carré du champ is small, and the third is the mollification error
against the integration-by-parts budget S.  This module evaluates the
right-hand side, optimizes it over a log grid of (alpha, eps), assembles
the moment budgets (exact where polynomial, Monte Carlo for E|LQ|), and
runs the desk-scale chain experiment: a sequence Q_n sampled on one common
pool per replicate, with empirical d_FM / d_TV to the last element standing
in for the (inaccessible) limit law.

Chains whose final element is constant are rejected up front: a polynomial
in independent absolutely-continuous inputs has an absolutely continuous
law if and only if its variance is nonzero, so a zero-variance limit makes
the experiment meaningless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy import integrate

from .anticoncentration import DEFAULT_EPS_GRID, kappa_envelope
from .distances import SampleSet, fortet_mourier, total_variation
from .errors import ConsistencyError, DegenerateFunctionalError, PreconditionError
from .measures import (
    MeasureFamily,
    ProductMeasure,
    draw_pool,
    expectation,
    functional_values,
    variance,
)
from .operators import DiffusionOperator, apply_generator, carre_du_champ
from .poly import Polynomial
from .sampling import ordered_map, substream

TWO_SQRT_2_OVER_PI = 2.0 * math.sqrt(2.0 / math.pi)
# Smallest pool of a chain replicate: ceil(1000^(1/3)) = 10 histogram bins.
MIN_CHAIN_SAMPLES = 1000


# ---------------------------------------------------------------------------
# Moment budgets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentBudget:
    """The integrability inputs of the total-variation bound for one Q."""

    e_gamma_gamma: float  # int Gamma(Gamma(Q)) dmu, exact moment engine
    e_abs_lq: float  # int |LQ| dmu, Monte Carlo or quadrature
    e_abs_lq_se: float
    var_q: float
    degenerate: bool
    method: str
    n_mc: int = 0

    @property
    def total(self) -> float:
        return self.e_gamma_gamma + self.e_abs_lq


def moment_budget(
    q: Polynomial,
    mu: ProductMeasure,
    n: int = 1_000_000,
    seed: int = 0,
    method: str = "mc",
) -> MomentBudget:
    """Assemble the budget for one polynomial.

    Polynomial moments come exactly from the moment engine; E|LQ| is not a
    polynomial moment and is estimated by Monte Carlo (default) or, in
    dimension <= 2, by quadrature against the product density
    (``method="quadrature"``).
    """
    op = DiffusionOperator(mu.family, mu.dim)
    gamma_q = carre_du_champ(op, q)
    e_gg = float(expectation(carre_du_champ(op, gamma_q), mu))
    var_q = float(variance(q, mu))
    lq = apply_generator(op, q)
    if method == "quadrature":
        if mu.dim > 2:
            raise PreconditionError("quadrature budget only supported for dim <= 2")
        e_lq, se = _abs_expectation_quadrature(lq, mu), 0.0
        n = 0
    elif method == "mc":
        vals = np.abs(functional_values(lq, mu, n, seed, "abs-moment"))
        e_lq, se = float(vals.mean()), float(vals.std()) / math.sqrt(n)
    else:
        raise PreconditionError(f"unknown budget method {method!r}")
    return MomentBudget(
        e_gamma_gamma=e_gg,
        e_abs_lq=e_lq,
        e_abs_lq_se=se,
        var_q=var_q,
        degenerate=var_q == 0.0,
        method=method,
        n_mc=n,
    )


def _effective_interval(family: MeasureFamily) -> tuple[float, float]:
    if family.kind == "gaussian":
        return (-12.0, 12.0)
    if family.kind == "gamma":
        from scipy import stats

        return (0.0, float(stats.gamma.ppf(1 - 1e-14, float(family.r))))
    return (-1.0, 1.0)


def _abs_expectation_quadrature(p: Polynomial, mu: ProductMeasure) -> float:
    fam = mu.family
    lo, hi = _effective_interval(fam)
    if mu.dim == 1:
        val, _ = integrate.quad(
            lambda t: abs(float(p.evaluate_batch(np.array([[t]]))[0]))
            * float(fam.pdf(np.asarray(t))),
            lo, hi, limit=400,
        )
        return val
    val, _ = integrate.dblquad(
        lambda s, t: abs(float(p.evaluate_batch(np.array([[t, s]]))[0]))
        * float(fam.pdf(np.asarray(t)))
        * float(fam.pdf(np.asarray(s))),
        lo, hi, lo, hi, epsabs=1e-10,
    )
    return val


def hypercontractivity_ratio(q: Polynomial, mu: ProductMeasure) -> float:
    """int Q^4 dmu / (int Q^2 dmu)^2, exact via the moment engine.

    Bounded uniformly over multilinear polynomials of a fixed degree; the
    ratio is what the chain experiment tracks for moment-growth stability.
    """
    if not q.is_multilinear():
        raise PreconditionError("hypercontractivity ratio requires a multilinear Q")
    q2 = q * q
    e2 = expectation(q2, mu)
    if e2 <= 0:
        raise PreconditionError("degenerate input: E[Q^2] = 0")
    e4 = expectation(q2 * q2, mu)
    if isinstance(e2, Fraction) and isinstance(e4, Fraction):
        return float(e4 / (e2 * e2))
    return float(e4) / float(e2) ** 2


# ---------------------------------------------------------------------------
# The bound and its optimization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    """One evaluation of the three-term right-hand side."""

    d_fm: float
    kappa: float
    degree: int
    budget_sup: float
    alpha: float
    eps: float
    fm_term: float
    smoothing_term: float
    regularity_term: float
    total: float
    trace: dict = field(default_factory=dict)


def evaluate_bound(
    d_fm: float, kappa: float, d: int, budget_sup: float, alpha: float, eps: float
) -> BoundReport:
    """Evaluate the bound at explicit (alpha, eps)."""
    if not 0 < alpha <= 1:
        raise PreconditionError(f"alpha must lie in (0, 1], got {alpha}")
    if eps <= 0:
        raise PreconditionError(f"eps must be positive, got {eps}")
    if d < 1:
        raise PreconditionError("degree bound d must be >= 1")
    if d_fm < 0 or kappa < 0 or budget_sup < 0:
        raise PreconditionError("bound inputs must be nonnegative")
    fm_term = d_fm / alpha
    smoothing = 4.0 * kappa * eps ** (1.0 / (2 * d + 1))
    regularity = TWO_SQRT_2_OVER_PI * (alpha / eps) * budget_sup
    return BoundReport(
        d_fm, kappa, d, budget_sup, alpha, eps,
        fm_term, smoothing, regularity, fm_term + smoothing + regularity,
    )


def optimize_bound(
    d_fm: float,
    kappa: float,
    d: int,
    budget_sup: float,
    n_alpha: int = 50,
    n_eps: int = 50,
    alpha_range: tuple[float, float] = (1e-6, 1.0),
    eps_range: tuple[float, float] = (1e-8, 1.0),
) -> BoundReport:
    """Grid-minimize the bound over logarithmic (alpha, eps) grids.

    Deterministic: ties resolve to the smallest (alpha, eps) in grid order.
    """
    if d_fm < 0 or kappa < 0 or budget_sup < 0:
        raise PreconditionError("bound inputs must be nonnegative")
    if d < 1:
        raise PreconditionError("degree bound d must be >= 1")
    alphas = np.logspace(math.log10(alpha_range[0]), math.log10(alpha_range[1]), n_alpha)
    epss = np.logspace(math.log10(eps_range[0]), math.log10(eps_range[1]), n_eps)
    fm_terms = d_fm / alphas[:, None]
    smoothing = 4.0 * kappa * epss[None, :] ** (1.0 / (2 * d + 1))
    regularity = TWO_SQRT_2_OVER_PI * budget_sup * alphas[:, None] / epss[None, :]
    totals = fm_terms + smoothing + regularity
    flat = int(np.argmin(totals))
    i, j = divmod(flat, n_eps)
    report = evaluate_bound(d_fm, kappa, d, budget_sup, float(alphas[i]), float(epss[j]))
    trace = {
        "alpha_grid": (alpha_range[0], alpha_range[1], n_alpha),
        "eps_grid": (eps_range[0], eps_range[1], n_eps),
        "best_index": (i, j),
        "grid_min": float(totals[i, j]),
    }
    return BoundReport(
        report.d_fm, report.kappa, report.degree, report.budget_sup,
        report.alpha, report.eps, report.fm_term, report.smoothing_term,
        report.regularity_term, report.total, trace,
    )


# ---------------------------------------------------------------------------
# Chain sequences
# ---------------------------------------------------------------------------


def linear_sum_sequence(family: MeasureFamily, n: int) -> Polynomial:
    """Standardized linear statistic sum_i (x_i - E X) / sqrt(n Var X), dim n.

    For the gaussian family this is exactly (x_1 + ... + x_n)/sqrt(n).
    """
    if n < 1:
        raise PreconditionError("sequence index must be >= 1")
    mean = float(family.mean())
    scale = 1.0 / math.sqrt(n * float(family.var()))
    terms: dict = {((i, 1),): scale for i in range(1, n + 1)}
    const = -n * mean * scale
    if const:
        terms[()] = const
    return Polynomial(n, terms, exact=False)


def pair_product_sequence(family: MeasureFamily, n: int) -> Polynomial:
    """Standardized sum of n disjoint centered pair products, dim 2n.

    Q_n = sum_i (x_{2i-1} - E X)(x_{2i} - E X) / (Var X sqrt(n)); an
    order-two analogue of the linear chain, multilinear by construction.
    """
    if n < 1:
        raise PreconditionError("sequence index must be >= 1")
    mean = float(family.mean())
    scale = 1.0 / (float(family.var()) * math.sqrt(n))
    q = Polynomial.zero(2 * n, exact=False)
    for i in range(1, n + 1):
        a, b = 2 * i - 1, 2 * i
        terms: dict = {((a, 1), (b, 1)): scale}
        if mean:
            terms[((a, 1),)] = -mean * scale
            terms[((b, 1),)] = -mean * scale
            terms[()] = mean * mean * scale
        q = q + Polynomial(2 * n, terms, exact=False)
    return q


SEQUENCES = {
    "clt_linear": linear_sum_sequence,
    "chaos2": pair_product_sequence,
}


# ---------------------------------------------------------------------------
# Chain experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainRow:
    n: int
    dim: int
    d_fm: float
    d_tv_hat: float
    d_tv_se: float
    kappa: float
    budget: float
    alpha_star: float
    eps_star: float
    bound: float


def run_chain_replicate(
    builder,
    family: MeasureFamily,
    n_grid,
    n_samples: int,
    seed: int,
    eps_grid=None,
    kappa_samples: int = 100_000,
    se_margin: float = 2.0,
    slack_sigmas: float = 3.0,
    threads: int = 1,
) -> list[ChainRow]:
    """One replicate of the chain experiment on a common sample pool.

    ``builder(n)`` returns the multilinear element Q_n; each element is
    evaluated on the leading columns of one shared pool, coupling the chain
    as tightly as the index sets allow (common random numbers).  The last
    element stands in for the limit law.  Raises DegenerateFunctionalError
    when that element has zero variance, and ConsistencyError when any
    empirical d_TV exceeds its optimized bound beyond ``slack_sigmas``
    pooled standard errors.  ``threads`` workers share the pool pass; the
    rows do not depend on it.  Fewer than ``MIN_CHAIN_SAMPLES`` samples
    raise PreconditionError.
    """
    n_grid = list(n_grid)
    if not n_grid or any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise PreconditionError("n_grid must be nonempty and strictly ascending")
    if n_samples < MIN_CHAIN_SAMPLES:
        raise PreconditionError(
            f"a chain replicate needs at least {MIN_CHAIN_SAMPLES} samples, got "
            f"{n_samples}: fewer leave the TV histogram under 10 bins"
        )
    if eps_grid is None:
        eps_grid = DEFAULT_EPS_GRID
    eps_grid = np.asarray(eps_grid, dtype=float)

    elements = [builder(n) for n in n_grid]
    dims = [q.dim for q in elements]
    degrees = []
    for n, q in zip(n_grid, elements):
        if not q.is_multilinear():
            raise PreconditionError(f"chain element n={n} is not multilinear")
        deg = q.degree()
        if deg is None:
            raise PreconditionError(f"chain element n={n} is the zero polynomial")
        degrees.append(deg)
    d = max(degrees)

    mus = [ProductMeasure(family, m) for m in dims]
    last = elements[-1]
    if float(variance(last, mus[-1])) <= 0.0:
        raise DegenerateFunctionalError(
            "chain limit proxy has zero variance: its law is a point mass, "
            "not absolutely continuous (variance criterion); refusing the "
            "total-variation chain experiment"
        )

    op_cache = {m: DiffusionOperator(family, m) for m in set(dims)}
    gammas = [carre_du_champ(op_cache[m], q) for q, m in zip(elements, dims)]
    lqs = [apply_generator(op_cache[m], q) for q, m in zip(elements, dims)]
    e_gamma_gammas = [
        float(expectation(carre_du_champ(op_cache[m], g), ProductMeasure(family, m)))
        for g, m in zip(gammas, dims)
    ]

    # One pass over a shared pool: functional values for every element,
    # |LQ| sums, and carré-du-champ values for the kappa fit.  Chunks run on
    # up to ``threads`` workers.  Each sums |LQ| once over its whole chunk,
    # so the sums do not depend on the block size, and the chunk sums are
    # added in chunk order.
    m_max = max(dims)
    k_rows = min(kappa_samples, n_samples)
    f_vals = [np.empty(n_samples) for _ in elements]
    gam_vals = [np.empty(k_rows) for _ in elements]

    def pass_chunk(chunk):
        c_lo, c_hi, blocks = chunk
        abs_lq = [np.empty(c_hi - c_lo) for _ in elements]
        for lo, hi, block in blocks:
            take = min(hi, k_rows) - lo
            for idx, (q, m) in enumerate(zip(elements, dims)):
                sub = block[:, :m]
                f_vals[idx][lo:hi] = q.evaluate_batch(sub)
                abs_lq[idx][lo - c_lo:hi - c_lo] = lqs[idx].evaluate_batch(sub)
                if take > 0:
                    gam_vals[idx][lo:lo + take] = gammas[idx].evaluate_batch(sub[:take])
        for a in abs_lq:
            np.abs(a, out=a)
        return [(float(a.sum()), float((a * a).sum())) for a in abs_lq]

    pool = draw_pool(family, m_max, n_samples, substream(seed, "chain-pool"))
    lq_sum = [0.0] * len(elements)
    lq_sumsq = [0.0] * len(elements)
    for sums in ordered_map(pass_chunk, pool, threads):
        for idx, (s, sq) in enumerate(sums):
            lq_sum[idx] += s
            lq_sumsq[idx] += sq

    e_abs_lqs = [s / n_samples for s in lq_sum]
    lq_ses = [
        math.sqrt(max(sq / n_samples - m * m, 0.0) / n_samples)
        for sq, m in zip(lq_sumsq, e_abs_lqs)
    ]
    budgets = [gg + lq for gg, lq in zip(e_gamma_gammas, e_abs_lqs)]
    sup_idx = int(np.argmax(budgets))
    budget_sup = budgets[sup_idx]

    kappa = kappa_envelope(gam_vals, eps_grid, d, se_margin)

    ref = SampleSet(f_vals[-1], seed=seed, provenance="chain-reference")
    rows = []
    for idx, n in enumerate(n_grid):
        cur = SampleSet(f_vals[idx], seed=seed, provenance=f"chain-n={n}")
        fm = fortet_mourier(cur, ref)
        tv = total_variation(cur, ref)
        report = optimize_bound(fm.estimate, kappa, d, budget_sup)
        se_bound = (
            TWO_SQRT_2_OVER_PI * (report.alpha / report.eps) * lq_ses[sup_idx]
        )
        pooled_se = math.sqrt(tv.uncertainty**2 + se_bound**2)
        if tv.estimate > report.total + slack_sigmas * pooled_se:
            raise ConsistencyError(
                f"chain pair n={n}: empirical d_TV {tv.estimate} exceeds the "
                f"optimized bound {report.total} beyond {slack_sigmas} pooled "
                "standard errors"
            )
        rows.append(
            ChainRow(
                n=n, dim=dims[idx],
                d_fm=fm.estimate,
                d_tv_hat=tv.estimate, d_tv_se=tv.uncertainty,
                kappa=kappa, budget=budgets[idx],
                alpha_star=report.alpha, eps_star=report.eps,
                bound=report.total,
            )
        )
    return rows
