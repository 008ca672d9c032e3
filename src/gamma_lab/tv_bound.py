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

A chain replicate runs in three stages, with one ``_Chain`` record between
them:

- prepare (``_prepare_chain``) owns every input check and the symbolic
  parts: Gamma(Q), LQ and the exact E[Gamma(Gamma(Q))] of each element,
  whether LQ is a power-of-two multiple of Q, and the columns the pool
  pass fills.  It draws nothing.
- the pool pass (``measures.pool_pass``, the one every Monte-Carlo
  estimate runs) owns the one draw: Q and Gamma(Q) values and the |LQ|
  sums, chunk by chunk, added in chunk order.  Where LQ = lam Q exactly
  (Q is an eigenfunction of the product generator, Bakry, Gentil and
  Ledoux 2014, and lam a power of two) the |LQ| sums are |lam| and lam^2
  times those of Q's column, and LQ is not evaluated.
- rows (``_chain_rows``) owns the estimates: the kappa envelope, FM, TV and
  its noise floor on the pool pass's threads, then the optimized bound and
  the consistency gate in element order.

A replicate keeps one copy of each value column.  The pool pass marks
every column read-only when it is filled, so each ``SampleSet`` of the
rows stage reads its Q column in place, and FM bins it a slice at a
time.  The per-replicate footprint is therefore

    elements x samples x 8 bytes          (Q values)
    + elements x kappa rows x 8 bytes     (Gamma(Q) values for the kappa fit)
    + about BATCH_VALUES x 8 bytes per pool thread  (the batch being evaluated)

with kappa rows = min(KAPPA_SAMPLES, samples); every other buffer is a
fixed number of chunks or batches.  A batch holds at least one block of
width x BLOCK_ROWS values, width the largest element dimension, so past
width 128 it grows with the width.  A pool thread lets go of its batch
before it draws the next one.

Chains whose final element is constant are rejected up front: a polynomial
in independent absolutely-continuous inputs has an absolutely continuous
law if and only if its variance is nonzero, so a zero-variance limit makes
the experiment meaningless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial

import numpy as np

from .anticoncentration import kappa_envelope
from .distances import SampleSet, fortet_mourier, histogram_tv_floor, total_variation
from .errors import (
    ConsistencyError, DegenerateFunctionalError, GammaLabError, PreconditionError,
)
from .measures import (
    MeasureFamily,
    expectation,
    finite_float,
    functional_values,
    pool_pass,
    variance,
)
from .operators import DiffusionOperator, apply_generator, carre_du_champ
from .poly import Polynomial
from .sampling import ordered_map, substream

TWO_SQRT_2_OVER_PI = 2.0 * math.sqrt(2.0 / math.pi)
# Smallest pool of a chain replicate: ceil(1000^(1/3)) = 10 histogram bins.
MIN_CHAIN_SAMPLES = 1000
# The rows of a chain replicate's pool that the kappa fit reads.
KAPPA_SAMPLES = 100_000
# Pooled standard errors an empirical d_TV may exceed its bound by before a
# chain replicate fails its consistency gate.
SLACK_SIGMAS = 3.0
# The optimizer's logarithmic grids: (low, high, points).
ALPHA_GRID = (1e-6, 1.0, 50)
EPS_GRID = (1e-8, 1.0, 50)


# ---------------------------------------------------------------------------
# Moment budgets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentBudget:
    """The integrability inputs of the total-variation bound for one Q."""

    e_gamma_gamma: float  # int Gamma(Gamma(Q)) dmu, exact moment engine
    e_abs_lq: float  # int |LQ| dmu, Monte Carlo
    e_abs_lq_se: float
    var_q: float
    degenerate: bool

    @property
    def total(self) -> float:
        return self.e_gamma_gamma + self.e_abs_lq


def moment_budget(
    q: Polynomial, family: MeasureFamily, n: int = 1_000_000, seed: int = 0
) -> MomentBudget:
    """Assemble the budget for one polynomial under ``family``^q.dim.

    Polynomial moments come exactly from the moment engine; E|LQ| is not a
    polynomial moment and is estimated by Monte Carlo on n samples.  A
    non-finite E[Gamma(Gamma(Q))] raises PreconditionError.
    """
    _, lq, e_gg = _gamma_parts(DiffusionOperator(family, q.dim), q, "Q")
    var_q = float(variance(q, family))
    vals = np.abs(functional_values(lq, family, n, seed, "abs-moment"))
    return MomentBudget(
        e_gamma_gamma=e_gg,
        e_abs_lq=float(vals.mean()),
        e_abs_lq_se=float(vals.std()) / math.sqrt(n),
        var_q=var_q,
        degenerate=var_q == 0.0,
    )


def hypercontractivity_ratio(q: Polynomial, family: MeasureFamily) -> float:
    """int Q^4 dmu / (int Q^2 dmu)^2 for mu = ``family``^q.dim, exact.

    Bounded uniformly over multilinear polynomials of a fixed degree; the
    ratio is what the chain experiment tracks for moment-growth stability.
    """
    if not q.is_multilinear():
        raise PreconditionError("hypercontractivity ratio requires a multilinear Q")
    q2 = q * q
    e2 = expectation(q2, family)
    if e2 <= 0:
        raise PreconditionError("degenerate input: E[Q^2] = 0")
    e4 = expectation(q2 * q2, family)
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
    at_grid_edge: bool = False  # set by optimize_bound: the optimum is on a grid edge


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


def optimize_bound(d_fm: float, kappa: float, d: int, budget_sup: float) -> BoundReport:
    """Grid-minimize the bound over the logarithmic ``ALPHA_GRID`` x ``EPS_GRID``.

    Deterministic: ties resolve to the smallest (alpha, eps) in grid order.
    The inputs are checked by the :func:`evaluate_bound` call at the optimum,
    so the grid may overflow or reach NaN on inputs that call then refuses.
    """
    (a_lo, a_hi, n_alpha), (e_lo, e_hi, n_eps) = ALPHA_GRID, EPS_GRID
    alphas = np.logspace(math.log10(a_lo), math.log10(a_hi), n_alpha)
    epss = np.logspace(math.log10(e_lo), math.log10(e_hi), n_eps)
    with np.errstate(over="ignore", invalid="ignore"):
        fm_terms = d_fm / alphas[:, None]
        smoothing = 4.0 * kappa * epss[None, :] ** (1.0 / (2 * d + 1))
        regularity = TWO_SQRT_2_OVER_PI * budget_sup * alphas[:, None] / epss[None, :]
        totals = fm_terms + smoothing + regularity
    flat = int(np.argmin(totals))
    i, j = divmod(flat, n_eps)
    report = evaluate_bound(d_fm, kappa, d, budget_sup, float(alphas[i]), float(epss[j]))
    return replace(report, at_grid_edge=i in (0, n_alpha - 1) or j in (0, n_eps - 1))


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
    """One chain pair.  The CSV columns are ``n``, ``d_fm``, ``d_tv_hat``,
    ``kappa``, ``budget``, ``alpha_star``, ``eps_star`` and ``bound``; the
    other fields are diagnostics.

    Every field converts to a finite float.
    """

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
    d_tv_floor: float  # distances.histogram_tv_floor of the reference column
    above_floor: bool  # d_tv_hat > d_tv_floor
    vacuous: bool  # bound >= 1, while d_TV <= 1 always
    at_grid_edge: bool  # the bound optimum sits on an edge of the (alpha, eps) grid
    tv_bins: int
    fm_step: float  # the Fortet-Mourier grid step, also its uncertainty


def run_chain_replicate(
    builder,
    family: MeasureFamily,
    n_grid,
    n_samples: int,
    seed: int,
    threads: int = 1,
) -> list[ChainRow]:
    """One replicate of the chain experiment on a common sample pool.

    ``builder(n)`` returns the multilinear element Q_n; each element is
    evaluated on the leading columns of one shared pool, coupling the chain
    as tightly as the index sets allow (common random numbers).  The last
    element stands in for the limit law.  Raises DegenerateFunctionalError
    when that element has zero variance, and ConsistencyError when any
    empirical d_TV exceeds its optimized bound beyond ``SLACK_SIGMAS``
    pooled standard errors.  ``threads`` workers share the pool pass; the
    rows do not depend on it.  Fewer than ``MIN_CHAIN_SAMPLES`` samples
    raise PreconditionError.
    """
    chain = _prepare_chain(builder, family, n_grid, n_samples)
    pool = pool_pass(family, n_samples, substream(seed, "chain-pool"), chain.columns,
                     chain.lqs, threads)
    return _chain_rows(chain, *pool, threads)


@dataclass(frozen=True)
class _Chain:
    """A checked chain and the symbolic parts of its elements; nothing drawn."""

    n_grid: list
    elements: list
    dims: list
    degree: int  # the largest element degree, the bound's d
    # The pool pass's columns: each Q on all rows, then each Gamma(Q) on the
    # first KAPPA_SAMPLES rows, for the kappa fit.
    columns: list
    # The pool pass's sums per element: LQ, or where LQ = lam Q for a power
    # of two |lam| >= 1 (see _eigenvalue), the index of Q's column.
    lqs: tuple
    lams: tuple  # that lam per element, 1 where LQ is evaluated
    e_gamma_gammas: tuple  # E[Gamma(Gamma(Q))] per element, exact moment engine

    def abs_lq_sums(self, sums) -> list[tuple[float, float]]:
        """(sum |LQ|, sum LQ^2) per element from the pool pass's ``sums``."""
        return [(abs(lam) * s, lam * lam * sq) for lam, (s, sq) in zip(self.lams, sums)]


def _gamma_parts(op: DiffusionOperator, q: Polynomial, what: str):
    """Gamma(Q), LQ and the finite E[Gamma(Gamma(Q))] of one polynomial."""
    gamma_q = carre_du_champ(op, q)
    e_gg = finite_float(expectation(carre_du_champ(op, gamma_q), op.family),
                        f"E[Gamma(Gamma(Q))] of {what}")
    return gamma_q, apply_generator(op, q), e_gg


def _eigenvalue(q: Polynomial, lq: Polynomial) -> int | None:
    """lam if LQ == lam Q exactly for a power of two |lam| >= 1, else None.

    Then LQ's values are lam times Q's, bit for bit: the evaluator's terms
    differ by the factor lam, and scaling by a power of two commutes with
    every rounding of the evaluation, short of overflow and of products
    below the normal float range, which coefficients of chain size never
    reach.  Multilinear elements of the product generator often are
    eigenfunctions: chaos2 under gaussian (lam = -2), gamma(2) (-2) and
    beta(2, 2) (-8), and the linear chain under gaussian (-1) and
    beta(2, 2) (-4).
    """
    mono = next((m for m in q.terms if m), None)
    if mono is None or mono not in lq.terms:
        return None
    ratio = lq.terms[mono] / q.terms[mono]
    lam = int(ratio) if abs(ratio) < math.inf else 0
    if lam != ratio or lam == 0 or abs(lam) & (abs(lam) - 1):
        return None
    return lam if lq == q.scale(lam) else None


def _prepare_chain(builder, family: MeasureFamily, n_grid, n_samples: int) -> _Chain:
    """Check the grid, the sample count and every element; draws nothing."""
    n_grid = list(n_grid)
    if not n_grid or any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise PreconditionError("n_grid must be nonempty and strictly ascending")
    if n_samples < MIN_CHAIN_SAMPLES:
        raise PreconditionError(
            f"a chain replicate needs at least {MIN_CHAIN_SAMPLES} samples, got "
            f"{n_samples}: fewer leave the TV histogram under 10 bins"
        )
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

    last = elements[-1]
    if finite_float(variance(last, family), "variance of the chain limit proxy") <= 0.0:
        raise DegenerateFunctionalError(
            "chain limit proxy has zero variance: its law is a point mass, "
            "not absolutely continuous (variance criterion); refusing the "
            "total-variation chain experiment"
        )

    op_cache = {m: DiffusionOperator(family, m) for m in set(dims)}
    gammas, lqs, e_gamma_gammas = zip(*(
        _gamma_parts(op_cache[m], q, f"chain element n={n}")
        for n, q, m in zip(n_grid, elements, dims)
    ))
    k_rows = min(KAPPA_SAMPLES, n_samples)
    columns = [(q, n_samples) for q in elements] + [(g, k_rows) for g in gammas]
    lams = [_eigenvalue(q, lq) for q, lq in zip(elements, lqs)]
    sums = tuple(lq if lam is None else i for i, (lq, lam) in enumerate(zip(lqs, lams)))
    return _Chain(n_grid, elements, dims, max(degrees), columns, sums,
                  tuple(1 if lam is None else lam for lam in lams), e_gamma_gammas)


def _chain_rows(chain: _Chain, values, sums, threads: int = 1) -> list[ChainRow]:
    """The kappa envelope, FM/TV/floor per element, the bound and its gate.

    ``values`` are the columns of ``chain.columns`` and ``sums`` those of
    ``chain.lqs``, as the pool pass returns them.  The kappa envelope and
    each element's FM, TV and floor run on up to ``threads`` workers; the
    bounds and gates then run in element order, so the first element that
    fails raises.
    """
    f_vals, gam_vals = values[:len(chain.elements)], values[len(chain.elements):]
    n_samples = f_vals[0].size
    lq_sums = chain.abs_lq_sums(sums)
    budgets = [gg + s / n_samples for gg, (s, _) in zip(chain.e_gamma_gammas, lq_sums)]
    sup_idx = int(np.argmax(budgets))
    budget_sup = budgets[sup_idx]
    lq_mean, lq_sq = (s / n_samples for s in lq_sums[sup_idx])
    lq_se = math.sqrt(max(lq_sq - lq_mean * lq_mean, 0.0) / n_samples)
    d = chain.degree
    ref = SampleSet(f_vals[-1], provenance="chain-reference")

    def distances(idx):
        # An error is returned, and raised below in element order.
        try:
            cur = SampleSet(f_vals[idx], provenance=f"chain-n={chain.n_grid[idx]}")
            tv = total_variation(cur, ref)
            return fortet_mourier(cur, ref), tv, histogram_tv_floor(ref, tv)
        except GammaLabError as err:
            return err

    jobs = [partial(kappa_envelope, gam_vals, d)]
    jobs += [partial(distances, idx) for idx in range(len(chain.n_grid))]
    kappa, *per_element = ordered_map(lambda job: job(), jobs, threads)
    rows = []
    for idx, (n, found) in enumerate(zip(chain.n_grid, per_element)):
        if isinstance(found, GammaLabError):
            raise found
        fm, tv, floor = found
        report = optimize_bound(fm.estimate, kappa, d, budget_sup)
        se_bound = TWO_SQRT_2_OVER_PI * (report.alpha / report.eps) * lq_se
        pooled_se = math.sqrt(tv.uncertainty**2 + se_bound**2)
        if tv.estimate > report.total + SLACK_SIGMAS * pooled_se:
            raise ConsistencyError(
                f"chain pair n={n}: empirical d_TV {tv.estimate} exceeds the "
                f"optimized bound {report.total} beyond {SLACK_SIGMAS} pooled "
                "standard errors"
            )
        rows.append(
            ChainRow(
                n=n, dim=chain.dims[idx],
                d_fm=fm.estimate,
                d_tv_hat=tv.estimate, d_tv_se=tv.uncertainty,
                kappa=kappa, budget=budgets[idx],
                alpha_star=report.alpha, eps_star=report.eps,
                bound=report.total,
                d_tv_floor=floor, above_floor=tv.estimate > floor,
                vacuous=report.total >= 1.0,
                at_grid_edge=report.at_grid_edge,
                tv_bins=tv.params["bins"], fm_step=fm.uncertainty,
            )
        )
    return rows
