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
  the laws' interval edges and density crossings (adaptive quadrature, tol
  ~1e-6; a quadrature that does not converge is a precondition error);
  empirical mode is the L1/2 distance between common-bin histograms with
  ceil(n^(1/3)) bins over the pooled range.  The histogram value is an
  estimator of an (in general) non-estimable metric and is tagged as such.
  Its report carries its noise floor (``DistanceReport.floor``): the second
  set is counted as its two halves, whose integer sum is its full count.
* Fortet-Mourier -- the dual sup over |h| <= 1, Lip(h) <= 1 is solved
  exactly on a uniform grid of the pooled support (2048 points, 5% range
  expansion) by dynamic programming over concave piecewise-linear value
  functions; min(W1, 2) is also computed as an upper bound and reported.

The cos^2 family is the stock counterexample for "convergence in law
without convergence in total variation": against the uniform law on
[0, pi] its Kolmogorov distance is 1/(2 pi n) -> 0 while the total
variation distance stays at 1/pi for every frequency n.

Only analytic laws need scipy, and it is imported where they use it: in
:func:`_quad` (``integrate.quad``), :func:`_sign_change_roots`
(``optimize.brentq``) and the CDF of :meth:`AnalyticLaw.gaussian`
(``special.ndtr``).  Empirical inputs, and the library's other modules, run
on numpy alone, so importing gamma_lab does not load scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .errors import PreconditionError
from .measures import MeasureFamily, functional_values
from .poly import Polynomial
from .sampling import CHUNK_ROWS

GRID_POINTS = 2048
RANGE_EXPANSION = 0.05
QUAD_TOL = 1.49e-8  # scipy quad's default epsabs and epsrel
ROOT_XTOL = 1e-13  # brentq's xtol for density crossings (its rtol is 4 eps)


@dataclass(frozen=True)
class SampleSet:
    """Draws of a scalar functional; ``provenance`` names their source.

    ``values`` is always a read-only 1-D float64 array.  An array that
    already is one, and owns its memory, is adopted as it is: nothing can
    write it through a view, so the set reads it in place.  Anything else
    is copied and the copy frozen; a caller's array is never frozen.
    """

    values: np.ndarray
    provenance: str = ""

    def __post_init__(self):
        vals = self.values
        if not (isinstance(vals, np.ndarray) and vals.dtype == np.float64
                and vals.ndim == 1 and vals.flags.owndata
                and not vals.flags.writeable):
            vals = np.array(vals, dtype=np.float64).ravel()
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
    ):
        self.kind = kind
        self.pdf = pdf
        self.cdf = cdf
        self.interval = (float(interval[0]), float(interval[1]))
        self.grid_hint = int(grid_hint)
        self.params = dict(params or {})
        mass, err = _quad(
            lambda t: float(self.pdf(np.asarray(t))),
            *self.interval,
            limit=max(200, self.grid_hint // 8),
        )
        # Within quad's own tolerance (its default epsabs plus epsrel times
        # the mass) plus the error estimate it returns.
        if abs(mass - 1.0) > QUAD_TOL * (1.0 + abs(mass)) + err:
            raise PreconditionError(f"density of {kind} integrates to {mass}, not 1")

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
        if not (sigma > 0 and math.isfinite(1.0 / (sigma * math.sqrt(2 * math.pi)))):
            raise PreconditionError(
                f"sigma must be positive with a finite peak density, got {sigma}"
            )

        def pdf(x):
            # Far from mu the square overflows to inf, and the density to 0.
            with np.errstate(over="ignore"):
                z = (np.asarray(x) - mu) / sigma
                return np.exp(-0.5 * z * z) / (sigma * math.sqrt(2 * math.pi))

        def cdf(x):
            from scipy.special import ndtr

            return ndtr((np.asarray(x) - mu) / sigma)

        # 12-sigma clipping leaves ~1e-33 of mass outside, far below tolerances.
        return cls(
            "gaussian",
            pdf=pdf,
            cdf=cdf,
            interval=(mu - 12 * sigma, mu + 12 * sigma),
            params={"mu": mu, "sigma": sigma},
        )


Input = Union[SampleSet, AnalyticLaw]


@dataclass(frozen=True)
class DistanceReport:
    metric: str  # "kol" | "fm" | "tv"
    estimate: float
    method: str
    uncertainty: float = 0.0
    params: dict = field(default_factory=dict)
    # A sample-sample histogram TV's noise floor: the histogram TV between the
    # two halves of the second set on the report's bins, over sqrt(2).  Both
    # halves share that set's law, so their distance is pure histogram noise,
    # and halving the samples scales it by sqrt(2).  An estimate at or below
    # the floor cannot be told from zero.  0.0 for every other report.
    floor: float = 0.0


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
    from scipy.optimize import brentq

    grid = np.linspace(lo, hi, max(npts, 257))
    vals = np.asarray(fn(grid), dtype=float)
    sign = np.sign(vals)
    idx = np.flatnonzero(sign[:-1] * sign[1:] < 0)
    # disp=False: a bracket brentq cannot shrink to xtol (a jump of fn on a
    # wide grid) yields its last estimate, still inside the bracket.
    roots = [
        brentq(lambda t: float(fn(np.asarray(t))), grid[i], grid[i + 1],
               xtol=ROOT_XTOL, disp=False)
        for i in idx
    ]
    # An exact zero on the grid counts as a crossing too, unless both its
    # neighbours are zeros (past an end counts as zero): there fn vanishes
    # on a stretch, as for two equal laws, and no piece needs cutting.
    zero = np.concatenate([[True], vals == 0.0, [True]])
    roots.extend(grid[zero[1:-1] & ~(zero[:-2] & zero[2:])].tolist())
    return np.asarray(sorted(roots))


# ---------------------------------------------------------------------------
# Total variation
# ---------------------------------------------------------------------------


def total_variation(x: Input, y: Input) -> DistanceReport:
    if isinstance(x, AnalyticLaw) and isinstance(y, AnalyticLaw):
        return _tv_analytic(x, y)
    if isinstance(x, SampleSet) and isinstance(y, SampleSet):
        return _tv_histogram(x, y)
    samples, law = (x, y) if isinstance(x, SampleSet) else (y, x)
    return _tv_mixed(samples, law)


def _tv_analytic(x: AnalyticLaw, y: AnalyticLaw) -> DistanceReport:
    # Each law's own interval edges cut the integration, so a law much
    # narrower than the other is never lost between points of a search grid.
    edges = sorted({*x.interval, *y.interval})
    diff = lambda t: x.pdf(t) - y.pdf(t)
    npts = max(x.grid_hint, y.grid_hint)
    total = err = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        piece, perr = _integrate_abs(diff, a, b, npts)
        total += piece
        err += perr
    return DistanceReport(
        "tv", 0.5 * total, "analytic", uncertainty=0.5 * err,
        params={"interval": (edges[0], edges[-1])},
    )


def _integrate_abs(fn, lo: float, hi: float, npts: int) -> tuple[float, float]:
    """integral of |fn| via piecewise quadrature between sign changes.

    A root within brentq's tolerance of lo or hi is that edge (a density
    jumping there reads as a crossing), so no sliver piece is cut off.
    """
    cuts = _sign_change_roots(fn, lo, hi, npts)
    tol = ROOT_XTOL + 4 * np.finfo(float).eps * max(abs(lo), abs(hi))
    edges = np.concatenate([[lo], cuts[(cuts > lo + tol) & (cuts < hi - tol)], [hi]])
    total = 0.0
    err = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        if b <= a:
            continue
        piece, perr = _quad(lambda t: float(fn(np.asarray(t))), a, b, limit=200)
        total += abs(piece)
        err += perr
    return total, err


def _quad(fn, a: float, b: float, limit: int) -> tuple[float, float]:
    """scipy's ``quad`` of fn over [a, b]; PreconditionError if it does not converge."""
    from scipy.integrate import quad

    value, err, _, *failure = quad(fn, a, b, limit=limit, full_output=1)
    if failure:
        reason = " ".join(failure[0].split())
        raise PreconditionError(f"quadrature over [{a}, {b}] did not converge: {reason}")
    return value, err


def default_bin_count(n: int) -> int:
    return max(1, math.ceil(n ** (1.0 / 3.0)))


def _check_span(lo: float, hi: float, what: str, pad: float = 0.0) -> None:
    """PreconditionError when [lo - pad, hi + pad] is wider than float
    range: its bins or grid steps would be infinite."""
    if not math.isfinite((hi + pad) - (lo - pad)):
        raise PreconditionError(f"{what} [{lo}, {hi}] is too wide for float arithmetic")


def _tv_histogram(x: SampleSet, y: SampleSet) -> DistanceReport:
    bins = default_bin_count(min(x.n, y.n))
    lo = float(min(x.values.min(), y.values.min()))
    hi = float(max(x.values.max(), y.values.max()))
    _check_span(lo, hi, "pooled sample range")
    if hi <= lo:
        # The pooled range is a single point, so both sets are that constant.
        return DistanceReport("tv", 0.0, "histogram",
                              params={"bins": bins, "degenerate": True})
    edges = np.linspace(lo, hi, bins + 1)
    px = np.histogram(x.values, bins=edges)[0] / x.n
    half = y.n // 2
    halves = [np.histogram(part, bins=edges)[0]
              for part in (y.values[:half], y.values[half:])]
    py = (halves[0] + halves[1]) / y.n
    est = 0.5 * float(np.abs(px - py).sum())
    se = 0.5 * math.sqrt(
        float((px * (1 - px)).sum()) / x.n + float((py * (1 - py)).sum()) / y.n
    )
    floor = 0.0  # one sample: no noise to see
    if half:
        diff = halves[0] / half - halves[1] / (y.n - half)
        floor = 0.5 * float(np.abs(diff).sum()) / math.sqrt(2.0)
    return DistanceReport("tv", est, "histogram", uncertainty=se,
                          params={"bins": bins, "range": (lo, hi)}, floor=floor)


def _tv_mixed(x: SampleSet, law: AnalyticLaw) -> DistanceReport:
    bins = default_bin_count(x.n)
    lo = min(float(x.values.min()), law.interval[0])
    hi = max(float(x.values.max()), law.interval[1])
    _check_span(lo, hi, "pooled sample and law range")
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


def fortet_mourier(x: Input, y: Input) -> DistanceReport:
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
    _check_span(lo, hi, "pooled range of the fm grid", pad)
    grid = np.linspace(lo - pad, hi + pad, GRID_POINTS)
    step = float(grid[1] - grid[0])
    w = _grid_masses(x, grid, step) - _grid_masses(y, grid, step)
    value = bounded_lipschitz_grid_value(w, step)
    w1 = _w1_grid(w, step)
    return DistanceReport(
        "fm", value, "grid-dual", uncertainty=step,
        params={"grid_points": GRID_POINTS, "w1_upper": min(w1, 2.0)},
    )


def _input_range(v: Input) -> tuple[float, float]:
    if isinstance(v, SampleSet):
        return float(v.values.min()), float(v.values.max())
    return v.interval


def _grid_masses(v: Input, grid: np.ndarray, step: float) -> np.ndarray:
    if isinstance(v, SampleSet):
        # Binned CHUNK_ROWS values at a time, so the temporaries stay small.
        counts = np.zeros(grid.size, dtype=np.int64)
        for lo in range(0, v.n, CHUNK_ROWS):
            part = v.values[lo:lo + CHUNK_ROWS]
            idx = np.clip(
                np.rint((part - grid[0]) / step).astype(np.int64), 0, grid.size - 1
            )
            counts += np.bincount(idx, minlength=grid.size)
        return counts / v.n
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
    functions V_j(h), kept as breakpoints ``xs[s:e]`` and values
    ``vs[s:e]``: a sliding-window max (the Lipschitz cone), a clip to
    [-1, 1], and a linear tilt by w_j h per grid point.  Runs of zero-weight
    points collapse into a single widened window step.

    The window max splits V at its peak run, shifts the rising part left
    and the falling part right by the half-width, and joins the two by a
    plateau.  The falling part stays in place and the rising part is
    written next to it, so the live range starts at most one slot further
    left per step and never ends further right.  The clip values at -1 and
    1 follow ``np.interp``'s own formula, so every breakpoint is the one
    the array-building form of this program computes, bit for bit.
    """
    w = np.asarray(w, dtype=float)
    nz = np.flatnonzero(w)
    if nz.size == 0:
        return 0.0
    cap = nz.size + 1
    xs, vs, tilt = np.empty(cap), np.empty(cap), np.empty(cap)
    s, e = cap - 2, cap
    xs[s:] = (-1.0, 1.0)
    np.multiply(xs[s:], w[nz[-1]], out=vs[s:])
    prev = int(nz[-1])
    for j in nz[-2::-1].tolist():
        half = (prev - j) * step
        prev = j
        # The window max: the first and last index of the peak run.
        live = vs[s:e]
        k_lo = s + int(live.argmax())
        k_hi = e - 1 - int(live[::-1].argmax())
        vmax = vs[k_lo]
        if vmax == 0.0:  # of zeros of both signs, max() may pick another than argmax()
            vmax = live.max()
        s_new = s + k_hi - 1 - k_lo
        np.subtract(xs[s:k_lo + 1], half, out=xs[s_new:k_hi])
        vs[s_new:k_hi] = vs[s:k_lo + 1]
        vs[k_hi - 1] = vs[k_hi] = vmax
        np.add(xs[k_hi:e], half, out=xs[k_hi:e])
        s = s_new
        # The clip: xs[s] <= -1 and xs[e - 1] >= 1 after the shifts, so the
        # points inside (-1, 1) are xs[a:b].
        a = s + 1
        while xs[a] <= -1.0:
            a += 1
        b = e - 1
        while xs[b - 1] >= 1.0:
            b -= 1
        lo_val = _interp_at(-1.0, xs, vs, a - 1)
        k = b
        while k + 1 < e and xs[k + 1] == 1.0:
            k += 1
        hi_val = _interp_at(1.0, xs, vs, k if xs[b] == 1.0 else b - 1)
        s, e = a - 1, b + 1
        xs[s], vs[s], xs[b], vs[b] = -1.0, lo_val, 1.0, hi_val
        # The tilt by w_j h.
        np.multiply(xs[s:e], w[j], out=tilt[:e - s])
        vs[s:e] += tilt[:e - s]
    return float(vs[s:e].max())


def _interp_at(x: float, xs: np.ndarray, vs: np.ndarray, j: int) -> float:
    """``np.interp(x, xs, vs)`` where j is the last index with xs[j] <= x,
    inside the array, and xs[j + 1] exists unless xs[j] == x."""
    xj, vj = xs[j], vs[j]
    if xj == x:
        return vj
    slope = (vs[j + 1] - vj) / (xs[j + 1] - xj)
    return slope * (x - xj) + vj


# ---------------------------------------------------------------------------
# Polynomial functionals
# ---------------------------------------------------------------------------


def functional_samples(
    q: Polynomial, family: MeasureFamily, n: int, seed: int, *labels
) -> SampleSet:
    """n draws of q(X_1, ..., X_m), m = q.dim, with i.i.d. ``family`` coordinates."""
    return SampleSet(functional_values(q, family, n, seed, *labels),
                     provenance=f"{family.label()};m={q.dim}")
