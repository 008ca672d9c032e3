"""Kolmogorov, total-variation and Fortet-Mourier distance estimators.

Inputs are either empirical (:class:`SampleSet`, a 1-D column of functional
outputs) or analytic (:class:`AnalyticLaw`, a density/CDF pair on an
interval).  Every estimator dispatches to the most exact method available
for its input combination and records the method in the returned
:class:`DistanceReport`:

* Kolmogorov -- exact sup over CDF jump points for samples; for two
  analytic laws the sup is located at sign changes of the density
  difference and refined by bracketed root finding.
* total variation -- analytic mode integrates |f - g|/2 piecewise between
  density crossings (adaptive quadrature, tol ~1e-6); empirical mode is the
  L1/2 distance between common-bin histograms with ceil(n^(1/3)) bins over
  the pooled range.  The histogram value is an estimator of an
  (in general) non-estimable metric and is tagged as such.
* Fortet-Mourier -- the dual sup over |h| <= 1, Lip(h) <= 1 is solved
  exactly on a uniform grid of the pooled support (2048 points, 5% range
  expansion) by dynamic programming over concave piecewise-linear value
  functions; min(W1, 2) is also computed as an upper bound and reported.

The cos^2 family is the stock counterexample for "convergence in law
without convergence in total variation": against the uniform law on
[0, pi] its Kolmogorov distance is 1/(2 pi n) -> 0 while the total
variation distance stays at 1/pi for every frequency n.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np
from scipy import integrate, optimize, special

from .errors import PreconditionError
from .measures import ProductMeasure, functional_values
from .poly import Polynomial

GRID_POINTS = 2048
RANGE_EXPANSION = 0.05


@dataclass(frozen=True)
class SampleSet:
    """Reproducibly seeded draws of a scalar functional."""

    values: np.ndarray
    seed: int | None = None
    provenance: str = ""

    def __post_init__(self):
        # Own copy, frozen: value semantics without surprising the caller.
        vals = np.array(self.values, dtype=np.float64).ravel()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        if vals.size == 0:
            raise PreconditionError("empty sample set")
        finite = np.isfinite(vals)
        if not finite.all():
            raise PreconditionError(
                f"non-finite sample value {vals[~finite][0]} in sample set "
                f"{self.provenance!r}"
            )

    @property
    def n(self) -> int:
        return int(self.values.size)


class AnalyticLaw:
    """A continuous law given by density and CDF on a (possibly clipped) interval."""

    def __init__(
        self,
        kind: str,
        pdf: Callable[[np.ndarray], np.ndarray],
        cdf: Callable[[np.ndarray], np.ndarray],
        interval: tuple[float, float],
        grid_hint: int = 4097,
        params: dict | None = None,
        check: bool = True,
    ):
        self.kind = kind
        self.pdf = pdf
        self.cdf = cdf
        self.interval = (float(interval[0]), float(interval[1]))
        self.grid_hint = int(grid_hint)
        self.params = dict(params or {})
        if check:
            mass, _ = integrate.quad(
                lambda t: float(self.pdf(np.asarray(t))),
                *self.interval,
                limit=max(200, self.grid_hint // 8),
            )
            if abs(mass - 1.0) > 1e-9:
                raise PreconditionError(
                    f"density of {kind} integrates to {mass}, not 1"
                )

    def __repr__(self):
        return f"AnalyticLaw({self.kind}, {self.params})"

    @classmethod
    def uniform_0_pi(cls) -> "AnalyticLaw":
        return cls(
            "uniform",
            pdf=lambda x: np.where((x >= 0) & (x <= math.pi), 1.0 / math.pi, 0.0),
            cdf=lambda x: np.clip(x, 0.0, math.pi) / math.pi,
            interval=(0.0, math.pi),
        )

    @classmethod
    def cos2(cls, n: int) -> "AnalyticLaw":
        """Density (2/pi) cos^2(n x) on [0, pi]."""
        if n < 1:
            raise PreconditionError("cos2 frequency must be >= 1")

        def pdf(x):
            x = np.asarray(x, dtype=float)
            return np.where(
                (x >= 0) & (x <= math.pi),
                (2.0 / math.pi) * np.cos(n * x) ** 2,
                0.0,
            )

        def cdf(x):
            t = np.clip(np.asarray(x, dtype=float), 0.0, math.pi)
            return t / math.pi + np.sin(2 * n * t) / (2 * math.pi * n)

        return cls(
            "cos2", pdf, cdf, (0.0, math.pi),
            grid_hint=max(4097, 128 * n + 1), params={"n": n},
        )

    @classmethod
    def gaussian(cls, mu: float = 0.0, sigma: float = 1.0) -> "AnalyticLaw":
        if sigma <= 0:
            raise PreconditionError("sigma must be positive")
        # 12-sigma clipping leaves ~1e-33 of mass outside, far below tolerances.
        return cls(
            "gaussian",
            pdf=lambda x: np.exp(-0.5 * ((np.asarray(x) - mu) / sigma) ** 2)
            / (sigma * math.sqrt(2 * math.pi)),
            cdf=lambda x: special.ndtr((np.asarray(x) - mu) / sigma),
            interval=(mu - 12 * sigma, mu + 12 * sigma),
            params={"mu": mu, "sigma": sigma},
        )

    @classmethod
    def from_density(
        cls,
        pdf: Callable,
        interval: tuple[float, float],
        cdf: Callable | None = None,
        grid_hint: int = 4097,
    ) -> "AnalyticLaw":
        if cdf is None:
            lo = interval[0]

            def cdf(x, _lo=lo, _pdf=pdf):
                xs = np.atleast_1d(np.asarray(x, dtype=float))
                out = np.array(
                    [integrate.quad(_pdf, _lo, t, limit=200)[0] for t in xs]
                )
                return out if np.ndim(x) else float(out[0])

        return cls("custom", pdf, cdf, interval, grid_hint=grid_hint)


Input = Union[SampleSet, AnalyticLaw]


@dataclass(frozen=True)
class DistanceReport:
    metric: str  # "kol" | "fm" | "tv"
    estimate: float
    method: str
    uncertainty: float = 0.0
    params: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Kolmogorov
# ---------------------------------------------------------------------------


def kolmogorov(x: Input, y: Input) -> DistanceReport:
    """sup_t |P(F <= t) - P(G <= t)|, exact up to root-refinement tolerance."""
    if isinstance(x, SampleSet) and isinstance(y, SampleSet):
        xs, ys = np.sort(x.values), np.sort(y.values)
        pooled = np.concatenate([xs, ys])
        fx = np.searchsorted(xs, pooled, side="right") / xs.size
        fy = np.searchsorted(ys, pooled, side="right") / ys.size
        d = float(np.max(np.abs(fx - fy)))
        return DistanceReport("kol", d, "empirical-exact",
                              params={"n_left": xs.size, "n_right": ys.size})
    if isinstance(x, AnalyticLaw) and isinstance(y, AnalyticLaw):
        return _kolmogorov_analytic(x, y)
    samples, law = (x, y) if isinstance(x, SampleSet) else (y, x)
    xs = np.sort(samples.values)
    n = xs.size
    f = np.asarray(law.cdf(xs), dtype=float)
    hi = np.max(np.arange(1, n + 1) / n - f)
    lo = np.max(f - np.arange(0, n) / n)
    return DistanceReport("kol", float(max(hi, lo)), "mixed-exact", params={"n": n})


def _kolmogorov_analytic(x: AnalyticLaw, y: AnalyticLaw) -> DistanceReport:
    lo = min(x.interval[0], y.interval[0])
    hi = max(x.interval[1], y.interval[1])
    diff_pdf = lambda t: x.pdf(t) - y.pdf(t)
    # |F - G| is extremal where the densities cross, or at support edges.
    candidates = _sign_change_roots(diff_pdf, lo, hi, max(x.grid_hint, y.grid_hint))
    candidates = np.concatenate(
        [candidates, [lo, hi], list(x.interval), list(y.interval)]
    )
    gaps = np.abs(
        np.asarray(x.cdf(candidates), dtype=float)
        - np.asarray(y.cdf(candidates), dtype=float)
    )
    return DistanceReport(
        "kol", float(np.max(gaps)), "analytic", uncertainty=1e-12,
        params={"candidates": int(candidates.size)},
    )


def _sign_change_roots(fn, lo: float, hi: float, npts: int) -> np.ndarray:
    grid = np.linspace(lo, hi, max(npts, 257))
    vals = np.asarray(fn(grid), dtype=float)
    sign = np.sign(vals)
    idx = np.flatnonzero(sign[:-1] * sign[1:] < 0)
    roots = [
        optimize.brentq(lambda t: float(fn(np.asarray(t))), grid[i], grid[i + 1],
                        xtol=1e-13)
        for i in idx
    ]
    # Exact zeros on the grid count as crossings too.
    roots.extend(grid[np.flatnonzero(vals == 0.0)].tolist())
    return np.asarray(sorted(roots))


# ---------------------------------------------------------------------------
# Total variation
# ---------------------------------------------------------------------------


def total_variation(x: Input, y: Input, bins: int | None = None) -> DistanceReport:
    if isinstance(x, AnalyticLaw) and isinstance(y, AnalyticLaw):
        return _tv_analytic(x, y)
    if isinstance(x, SampleSet) and isinstance(y, SampleSet):
        return _tv_histogram(x, y, bins)
    samples, law = (x, y) if isinstance(x, SampleSet) else (y, x)
    return _tv_mixed(samples, law, bins)


def _tv_analytic(x: AnalyticLaw, y: AnalyticLaw) -> DistanceReport:
    lo = min(x.interval[0], y.interval[0])
    hi = max(x.interval[1], y.interval[1])
    diff = lambda t: x.pdf(t) - y.pdf(t)
    total, err = _integrate_abs(diff, lo, hi, max(x.grid_hint, y.grid_hint))
    return DistanceReport(
        "tv", 0.5 * total, "analytic", uncertainty=0.5 * err,
        params={"interval": (lo, hi)},
    )


def _integrate_abs(fn, lo: float, hi: float, npts: int) -> tuple[float, float]:
    """integral of |fn| via piecewise quadrature between sign changes."""
    cuts = _sign_change_roots(fn, lo, hi, npts)
    edges = np.concatenate([[lo], cuts[(cuts > lo) & (cuts < hi)], [hi]])
    total = 0.0
    err = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        if b <= a:
            continue
        piece, perr = integrate.quad(
            lambda t: float(fn(np.asarray(t))), a, b, limit=200
        )
        total += abs(piece)
        err += perr
    return total, err


def default_bin_count(n: int) -> int:
    return max(1, math.ceil(n ** (1.0 / 3.0)))


def _tv_histogram(x: SampleSet, y: SampleSet, bins: int | None) -> DistanceReport:
    if bins is None:
        bins = default_bin_count(min(x.n, y.n))
    lo = float(min(x.values.min(), y.values.min()))
    hi = float(max(x.values.max(), y.values.max()))
    if hi <= lo:
        # The pooled range is a single point, so both sets are that constant.
        return DistanceReport("tv", 0.0, "histogram",
                              params={"bins": bins, "degenerate": True})
    edges = np.linspace(lo, hi, bins + 1)
    px = np.histogram(x.values, bins=edges)[0] / x.n
    py = np.histogram(y.values, bins=edges)[0] / y.n
    est = 0.5 * float(np.abs(px - py).sum())
    se = 0.5 * math.sqrt(
        float((px * (1 - px)).sum()) / x.n + float((py * (1 - py)).sum()) / y.n
    )
    return DistanceReport("tv", est, "histogram", uncertainty=se,
                          params={"bins": bins, "range": (lo, hi)})


def _tv_mixed(x: SampleSet, law: AnalyticLaw, bins: int | None) -> DistanceReport:
    if bins is None:
        bins = default_bin_count(x.n)
    lo = min(float(x.values.min()), law.interval[0])
    hi = max(float(x.values.max()), law.interval[1])
    edges = np.linspace(lo, hi, bins + 1)
    px = np.histogram(x.values, bins=edges)[0] / x.n
    cdf_vals = np.asarray(law.cdf(edges), dtype=float)
    masses = np.diff(cdf_vals)
    masses[0] += cdf_vals[0]
    masses[-1] += 1.0 - cdf_vals[-1]
    est = 0.5 * float(np.abs(px - masses).sum())
    se = 0.5 * math.sqrt(float((px * (1 - px)).sum()) / x.n)
    return DistanceReport("tv", est, "histogram-vs-analytic", uncertainty=se,
                          params={"bins": bins})


# ---------------------------------------------------------------------------
# Fortet-Mourier (bounded-Lipschitz dual)
# ---------------------------------------------------------------------------


def fortet_mourier(
    x: Input, y: Input, grid_points: int = GRID_POINTS
) -> DistanceReport:
    """sup { E h(F) - E h(G) : |h| <= 1, |h'| <= 1 } on a grid of the pooled support.

    The discretized dual is solved exactly (see
    :func:`bounded_lipschitz_grid_value`); the reported uncertainty is the
    grid resolution, which bounds the discretization error of snapping mass
    to grid points against 1-Lipschitz test functions.
    """
    lo_x, hi_x = _input_range(x)
    lo_y, hi_y = _input_range(y)
    lo, hi = min(lo_x, lo_y), max(hi_x, hi_y)
    if hi <= lo:
        # Single support point on both sides: the test function cannot
        # separate anything.
        return DistanceReport("fm", 0.0, "grid-dual", params={"degenerate": True})
    pad = RANGE_EXPANSION * (hi - lo) / 2
    grid = np.linspace(lo - pad, hi + pad, grid_points)
    step = float(grid[1] - grid[0])
    w = _grid_masses(x, grid, step) - _grid_masses(y, grid, step)
    value = bounded_lipschitz_grid_value(w, step)
    w1 = _w1_grid(w, step)
    return DistanceReport(
        "fm", value, "grid-dual", uncertainty=step,
        params={"grid_points": grid_points, "w1_upper": min(w1, 2.0)},
    )


def _input_range(v: Input) -> tuple[float, float]:
    if isinstance(v, SampleSet):
        return float(v.values.min()), float(v.values.max())
    return v.interval


def _grid_masses(v: Input, grid: np.ndarray, step: float) -> np.ndarray:
    if isinstance(v, SampleSet):
        idx = np.clip(
            np.rint((v.values - grid[0]) / step).astype(np.int64), 0, grid.size - 1
        )
        return np.bincount(idx, minlength=grid.size) / v.n
    edges = grid[:-1] + step / 2
    cdf_vals = np.asarray(v.cdf(edges), dtype=float)
    masses = np.empty(grid.size)
    masses[0] = cdf_vals[0]
    masses[1:-1] = np.diff(cdf_vals)
    masses[-1] = 1.0 - cdf_vals[-1]
    return masses


def _w1_grid(w: np.ndarray, step: float) -> float:
    """W1 of the gridded mass difference: the dual without the |h| <= 1 box."""
    return float(np.sum(np.abs(np.cumsum(w)[:-1])) * step)


def bounded_lipschitz_grid_value(w: np.ndarray, step: float) -> float:
    """Exact max of sum_j w_j h_j over |h_j| <= 1, |h_{j+1} - h_j| <= step.

    Dynamic program from the right over concave piecewise-linear value
    functions V_j(h): a sliding-window max (the Lipschitz cone), a clip to
    [-1, 1], and a linear tilt by w_j h per grid point.  Runs of zero-weight
    points collapse into a single widened window step.
    """
    w = np.asarray(w, dtype=float)
    nz = np.flatnonzero(w)
    if nz.size == 0:
        return 0.0
    xs = np.array([-1.0, 1.0])
    vs = w[nz[-1]] * xs
    prev = nz[-1]
    for j in nz[-2::-1]:
        xs, vs = _window_max_clip(xs, vs, (prev - j) * step)
        vs = vs + w[j] * xs
        prev = j
    return float(vs.max())


def _window_max_clip(
    xs: np.ndarray, vs: np.ndarray, halfwidth: float
) -> tuple[np.ndarray, np.ndarray]:
    """M(h) = max_{|u - h| <= halfwidth} V(u), restricted back to [-1, 1].

    For concave V this splits V at its peak, shifts the rising part left and
    the falling part right, and inserts a plateau of width 2*halfwidth.
    """
    vmax = vs.max()
    peak = np.flatnonzero(vs == vmax)
    k_lo, k_hi = peak[0], peak[-1]
    new_xs = np.concatenate(
        [xs[:k_lo] - halfwidth,
         [xs[k_lo] - halfwidth, xs[k_hi] + halfwidth],
         xs[k_hi + 1:] + halfwidth]
    )
    new_vs = np.concatenate([vs[:k_lo], [vmax, vmax], vs[k_hi + 1:]])
    lo_val = np.interp(-1.0, new_xs, new_vs)
    hi_val = np.interp(1.0, new_xs, new_vs)
    inside = (new_xs > -1.0) & (new_xs < 1.0)
    out_xs = np.concatenate([[-1.0], new_xs[inside], [1.0]])
    out_vs = np.concatenate([[lo_val], new_vs[inside], [hi_val]])
    return out_xs, out_vs


# ---------------------------------------------------------------------------
# Polynomial functionals
# ---------------------------------------------------------------------------


def functional_samples(
    q: Polynomial, mu: ProductMeasure, n: int, seed: int, *labels
) -> SampleSet:
    """n draws of q(X_1, ..., X_m) under mu (q.dim must equal mu.dim)."""
    digest = hashlib.sha1(q.to_json().encode()).hexdigest()[:12]
    return SampleSet(
        functional_values(q, mu, n, seed, *labels), seed=seed,
        provenance=f"{mu.family.label()};m={mu.dim};poly={digest}",
    )
