"""Reference measures, exact moment engine, orthogonal bases, samplers.

A reference law is a ``MeasureFamily``, one of three single-variable
distributions:

* ``gaussian`` -- standard normal N(0,1) on the real line;
* ``gamma(r)`` -- Gamma(r, 1) on [0, inf) with density x^(r-1) e^-x / G(r),
  log-concave for r >= 1 (enforced);
* ``beta(a, b)`` -- Beta(a, b) mapped onto the canonical interval [-1, 1]
  via x = 1 - 2B, giving density proportional to (1-x)^(a-1) (1+x)^(b-1),
  log-concave for a, b >= 1 (enforced).

The [-1, 1] convention for the beta family is deliberate: it is the support
on which the Jacobi generator (1-x^2) d^2/dx^2 + (b-a-(a+b)x) d/dx is
self-adjoint with respect to the invariant density above.  The operators
module enforces this by an adjointness sentinel, so a wrong orientation
cannot pass silently.

A product measure on R^m is m i.i.d. copies of one family, and m is the
number of variables of the polynomial at hand: the functions that need one
take the family and read m from the polynomial.  ``sample``, which has no
polynomial, takes m as ``dim``.

Raw moments have closed forms in all three cases and are exact rationals
whenever the family parameters are rational; expectations of polynomials
under the product measure factor across coordinates by independence.  The
orthogonal bases (Hermite, Laguerre, Jacobi) are generated monic by the
moment-based three-term recurrence

    p_{k+1} = (x - a_k) p_k - b_k p_{k-1},
    a_k = E[x p_k^2] / E[p_k^2],   b_k = E[p_k^2] / E[p_{k-1}^2],

which is exact in rational mode and uniform across families; squared norms
are exposed separately (``BasisPolynomial.norm2``).

Every Monte-Carlo pool is drawn by :func:`draw_pool`, and every estimate
evaluates its polynomials over one in :func:`pool_pass`, chunk-parallel.

The module imports numpy and no scipy: nothing here needs a family's
density or CDF.  Those serve only as test oracles and live with the tests
(``tests/reference_laws.py``, on ``scipy.stats``).

``MeasureFamily.draw`` uses an exact construction where it is cheaper than
numpy's sampler (Devroye, *Non-Uniform Random Variate Generation*, 1986):

* gaussian -- ``rng.standard_normal``;
* beta(a, b), integer-valued a, b with a + b - 1 <= ``BETA_ORDER_MAX`` (6)
  -- B is the a-th smallest of a + b - 1 uniforms from ``rng.random``, one
  element's uniforms on the trailing axis, picked by a min/max
  compare-exchange network of min(a, b) passes;
* gamma(r), integer-valued r <= ``GAMMA_SUM_MAX`` (3) -- the sum of r
  standard exponentials from ``rng.standard_exponential``, on the trailing
  axis (gamma(1) is numpy's own gamma(1) stream);
* every other beta or gamma, e.g. beta(4, 4), beta(5/2, 2), gamma(4),
  gamma(5/2) -- ``rng.beta`` / ``rng.gamma``.

The path depends on the parameter's value, not its type: beta(2, 2) and
beta(2.0, 2.0) draw the same bytes.  The caps sit at the measured
crossover on SFC64 streams, as the pool draws: median seconds for 32768 x
64 values, the construction in (64, 256) slabs vs numpy in (64, 4096)
blocks, 15 interleaved runs per pair, 2-core Xeon.  Six uniforms win every
run: beta(3,4) 0.08-0.10 vs 0.14-0.15, beta(4,3) 0.09 vs 0.14, beta(2,5)
0.07-0.08 vs 0.13-0.14, beta(1,6) 0.05-0.06 vs 0.10-0.11.  At seven,
beta(4,4) is a coin toss (0.14-0.15 vs 0.13-0.16; faster in 14, 0 and 12
of 15 runs over three sets), and at eight beta(4,5) loses (0.17 vs 0.14).
gamma(3) 0.04-0.05 vs 0.05-0.06 (faster in 13 and 15 of 15), gamma(4)
0.05-0.06 vs 0.05-0.06 (faster in 3 and 5 of 15).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Union

import numpy as np

from .errors import PreconditionError
from .poly import Coef, Polynomial
from .sampling import (
    BATCH_VALUES, BLOCK_ROWS, CHUNK_ROWS, SLAB_ROWS, chunk_edges, generator, ordered_map,
    substream,
)

Param = Union[Fraction, float]

_KINDS = ("gaussian", "gamma", "beta")


def _as_param(value, name: str) -> Param:
    """Normalize a family parameter; int/Fraction stay exact, float stays float.

    The value must be finite in floating point: samplers and double-mode
    operators convert it to float.
    """
    if isinstance(value, bool) or value is None:
        raise PreconditionError(f"parameter {name} must be a number")
    if isinstance(value, (int, Fraction)):
        value = Fraction(value)
    elif not isinstance(value, float):
        raise PreconditionError(f"parameter {name} must be a number, got {type(value)!r}")
    if not abs(value) <= sys.float_info.max:  # also refuses NaN
        raise PreconditionError(f"parameter {name} = {value} is not a finite float")
    return value


@dataclass(frozen=True)
class MeasureFamily:
    """One of the three single-variable reference laws."""

    kind: str
    r: Param | None = None
    a: Param | None = None
    b: Param | None = None
    # True if all parameters are rational, enabling exact moments.  A field,
    # so equality and hashing see it: gamma(1) and gamma(1.0) are one law in
    # two arithmetic modes, and the cached moment tables must keep them apart.
    exact: bool = field(init=False, repr=False)
    # What _construction_terms resolves, once per family rather than per draw.
    _terms: int | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise PreconditionError(f"unknown family kind {self.kind!r}")
        if self.kind == "gaussian":
            if self.r is not None or self.a is not None or self.b is not None:
                raise PreconditionError("gaussian family takes no parameters")
        elif self.kind == "gamma":
            if self.r is None or self.a is not None or self.b is not None:
                raise PreconditionError("gamma family takes exactly the parameter r")
            if self.r < 1:
                raise PreconditionError(
                    f"gamma requires r >= 1 for log-concavity, got r={self.r}"
                )
        else:
            if self.a is None or self.b is None or self.r is not None:
                raise PreconditionError("beta family takes exactly the parameters a, b")
            if self.a < 1 or self.b < 1:
                raise PreconditionError(
                    f"beta requires a, b >= 1 for log-concavity, got a={self.a}, b={self.b}"
                )
        exact = not any(isinstance(p, float) for p in (self.r, self.a, self.b))
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "_terms", self._construction_terms())

    def label(self) -> str:
        if self.kind == "gaussian":
            return "gaussian"
        if self.kind == "gamma":
            return f"gamma(r={self.r})"
        return f"beta(a={self.a},b={self.b})"

    def draw(
        self, rng: np.random.Generator, shape: tuple[int, int],
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """A (rows, width) array of i.i.d. draws; the module docstring gives
        the method per family.

        The stream fills the result column-major: it is the transpose of the
        C-order draw of (width, rows), a Fortran-contiguous array.  Given
        ``out``, a (rows, width) array in any memory layout, the draws are
        written there and returned: an exact construction computes its
        values in place, the other samplers copy theirs in.  The bytes do
        not depend on ``out``.
        """
        c_shape = shape[::-1]
        terms = self._terms
        if terms is None:
            if self.kind == "gaussian":
                values = rng.standard_normal(c_shape)
            elif self.kind == "gamma":
                values = rng.gamma(float(self.r), size=c_shape)
            else:
                values = 1.0 - 2.0 * rng.beta(float(self.a), float(self.b), size=c_shape)
            if out is None:
                return values.T
            out.T[...] = values
            return out
        if out is None:
            out = np.empty(shape, order="F")
        if self.kind == "gamma":
            _exponential_sum(rng.standard_exponential((*c_shape, terms)), out.T)
            return out
        b = _order_statistic(rng.random((*c_shape, terms)), int(self.a))
        np.multiply(b, -2.0, out=b)  # 1 - 2B as -2B + 1: the same rounding
        np.add(b, 1.0, out=out.T)
        return out

    def _construction_terms(self) -> int | None:
        """Variates per value on the trailing axis of an exact construction.

        a + b - 1 uniforms for a small integer beta, r exponentials for a
        small integer gamma; None where numpy's own sampler draws.
        """
        if self.kind == "gamma":
            return _small_int(self.r, GAMMA_SUM_MAX)
        if self.kind == "beta":
            a, b = _small_int(self.a, BETA_ORDER_MAX), _small_int(self.b, BETA_ORDER_MAX)
            if a is not None and b is not None and a + b - 1 <= BETA_ORDER_MAX:
                return a + b - 1
        return None

    def mean(self) -> Coef:
        return raw_moment(self, 1)

    def var(self) -> Coef:
        m1 = raw_moment(self, 1)
        return raw_moment(self, 2) - m1 * m1


def gaussian() -> MeasureFamily:
    return MeasureFamily("gaussian")


def gamma(r) -> MeasureFamily:
    return MeasureFamily("gamma", r=_as_param(r, "r"))


def beta(a, b) -> MeasureFamily:
    return MeasureFamily("beta", a=_as_param(a, "a"), b=_as_param(b, "b"))


# ---------------------------------------------------------------------------
# Moment engine
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def raw_moment(family: MeasureFamily, k: int) -> Coef:
    """E[X^k] under the family's canonical-support density.

    Gaussian: 0 for odd k, (k-1)!! for even k.
    Gamma(r): rising factorial r (r+1) ... (r+k-1).
    Beta(a,b) on [-1,1]: binomial expansion of E[(1-2B)^k] with
    E[B^j] = prod_{i<j} (a+i)/(a+b+i).

    Exact ``Fraction`` when the parameters are rational, ``float`` otherwise.
    """
    if k < 0:
        raise PreconditionError("moment order must be >= 0")
    if k == 0:
        return Fraction(1) if family.exact else 1.0
    if family.kind == "gaussian":
        if k % 2 == 1:
            return Fraction(0)
        acc = Fraction(1)
        for j in range(1, k, 2):
            acc *= j
        return acc
    if family.kind == "gamma":
        r = family.r
        acc = Fraction(1) if family.exact else 1.0
        for i in range(k):
            acc = acc * (r + i)
        return acc
    a, b = family.a, family.b
    one = Fraction(1) if family.exact else 1.0
    total = one * 0
    moment_b = one  # E[B^j], updated incrementally
    for j in range(k + 1):
        if j > 0:
            moment_b = moment_b * (a + (j - 1)) / (a + b + (j - 1))
        total = total + math.comb(k, j) * (-2) ** j * moment_b
    return total


def expectation(p: Polynomial, family: MeasureFamily) -> Coef:
    """E[p(X)] for X of p.dim i.i.d. ``family`` coordinates, by independence."""
    # Each power's moment, looked up once per call rather than once per factor
    # through raw_moment's cache, which hashes the family every time.
    if p.exact and family.exact:
        # p's integer numerators times the moments' numerators, summed per
        # product of the moments' denominators; one Fraction at the end.
        ratios: dict[int, tuple[int, int]] = {}
        sums: dict[int, int] = {}
        den, nums = p.integer_form()
        for mono, term in nums.items():
            term_den = 1
            for _, power in mono:
                ratio = ratios.get(power)
                if ratio is None:
                    ratio = raw_moment(family, power).as_integer_ratio()
                    ratios[power] = ratio
                m_num, m_den = ratio
                if not m_num:
                    break
                term *= m_num
                term_den *= m_den
            else:
                sums[term_den] = sums.get(term_den, 0) + term
        common = math.lcm(*sums)
        return Fraction(sum(s * (common // d) for d, s in sums.items()), common * den)
    # Each moment as a float, converted once per call; None for a zero moment.
    moments: dict[int, float | None] = {}
    total = 0.0
    try:
        for mono, coef in p.sorted_terms():
            term = float(coef)
            for _, power in mono:
                if power not in moments:
                    m = raw_moment(family, power)
                    moments[power] = float(m) if m else None
                m = moments[power]
                if m is None:
                    term = 0
                    break
                term = term * m
            total = total + term
    except OverflowError:  # an exact coefficient or moment beyond float range
        raise PreconditionError(
            f"E[p] under {family.label()} needs a value beyond float range"
        ) from None
    return total


def variance(p: Polynomial, family: MeasureFamily) -> Coef:
    """Var[p(X)] = E[(p - E p)^2] for X of p.dim i.i.d. ``family`` coordinates.

    Centered before squaring: in double mode E[p^2] - (E p)^2 cancels when
    the mean is large (0.0 for x1 + 1e9 under gaussian, whose variance is 1).
    """
    centered = p - expectation(p, family)
    return expectation(centered * centered, family)


def finite_float(value: Coef, what: str) -> float:
    """An exact or float moment as a finite float; PreconditionError otherwise."""
    try:
        number = float(value)
    except OverflowError:  # an exact value beyond float range
        number = math.inf
    if not math.isfinite(number):
        raise PreconditionError(f"{what} = {number} is not finite in floating point")
    return number


# ---------------------------------------------------------------------------
# Orthogonal bases
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BasisPolynomial:
    """Monic degree-i orthogonal polynomial of a family, with its squared norm."""

    family: MeasureFamily
    index: int
    poly: Polynomial  # univariate, dim 1
    norm2: Coef  # E[poly^2] under the family measure


@lru_cache(maxsize=None)
def basis(family: MeasureFamily, i: int) -> BasisPolynomial:
    """The degree-i monic orthogonal polynomial (Hermite/Laguerre/Jacobi).

    Generated by the moment-based three-term recurrence from the cached
    degrees i - 1 and i - 2; exact in rational mode.  ``basis(f, 0)`` is the
    constant 1.
    """
    if i < 0:
        raise PreconditionError("basis index must be >= 0")
    if i == 0:
        one = Polynomial.constant(1, 1, exact=family.exact)
        return BasisPolynomial(family, 0, one, raw_moment(family, 0))
    x = Polynomial.variable(1, 1, exact=family.exact)
    prev = basis(family, i - 1)
    pk, nk = prev.poly, prev.norm2
    ak = expectation(x * pk * pk, family) / nk
    nxt = (x - Polynomial.constant(ak, 1, family.exact)) * pk
    if i > 1:
        before = basis(family, i - 2)
        nxt = nxt - before.poly.scale(nk / before.norm2)
    return BasisPolynomial(family, i, nxt, expectation(nxt * nxt, family))


@lru_cache(maxsize=None)
def monomial_in_basis(family: MeasureFamily, k: int) -> tuple[tuple[int, Coef], ...]:
    """Expansion x^k = sum_i c_i p_i in the family's monic basis.

    Returned as ((i, c_i), ...) with zero coefficients dropped; exact via
    moment-engine projections c_i = E[x^k p_i] / E[p_i^2].
    """
    xk = Polynomial.variable(1, 1, family.exact) ** k
    out = []
    for i in range(k + 1):
        bp = basis(family, i)
        c = expectation(xk * bp.poly, family) / bp.norm2
        if c != 0:
            out.append((i, c))
    return tuple(out)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


BETA_ORDER_MAX = 6  # largest a + b - 1 drawn as an order statistic of uniforms
GAMMA_SUM_MAX = 3  # largest r drawn as a sum of standard exponentials


def _small_int(p: Param, cap: int) -> int | None:
    """p as an int when its value is an integer no larger than cap, else None."""
    return int(p) if p <= cap and p == int(p) else None


def _order_statistic(u: np.ndarray, a: int) -> np.ndarray:
    """The a-th smallest entry along the trailing axis of u, overwriting u.

    A compare-exchange network of min(a, b) passes, with b = n + 1 - a for
    n entries.  For a <= b each pass but the last sweeps the running minimum
    through the remaining entries, leaving the larger value of each
    comparison in place, and drops the minimum without writing it; after
    a - 1 such passes the a-th smallest is the minimum of the rest.  For
    a > b the same runs with maxima, b - 1 drops and a final maximum.
    """
    n = u.shape[-1]
    b = n + 1 - a
    drop, keep = (np.minimum, np.maximum) if a <= b else (np.maximum, np.minimum)
    cols = [u[..., i] for i in range(n)]
    bufs = (np.empty(u.shape[:-1]), np.empty(u.shape[:-1]))
    for _ in range(min(a, b) - 1):
        head, *cols = cols
        for i, c in enumerate(cols[:-1]):
            drop(head, c, out=bufs[i % 2])
            keep(head, c, out=c)
            head = bufs[i % 2]
        keep(head, cols[-1], out=cols[-1])
    head, *cols = cols
    for c in cols:
        head = drop(head, c, out=bufs[0])
    return head


def _exponential_sum(e: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The sum along the trailing axis of e, added left to right into out."""
    np.copyto(out, e[..., 0])
    for i in range(1, e.shape[-1]):
        out += e[..., i]
    return out


def draw_pool(
    family: MeasureFamily, width: int, n: int, stream: np.random.SeedSequence
) -> list[tuple[int, int, Iterator[tuple[int, int, np.ndarray]]]]:
    """The (start, stop, batches) chunks of an (n, width) i.i.d. pool.

    Every Monte-Carlo pool is drawn here: :func:`pool_pass` evaluates
    polynomials over it, and :func:`sample` returns it.  ``batches`` draws
    its chunk lazily from the chunk's own generator, one batch of rows at a
    time, yielding (lo, hi, X[lo:hi]).  A batch is the whole blocks that
    hold at most ``BATCH_VALUES`` values, at least one block and at most a
    chunk: 4096 rows at width 128, 8192 at width 64, a whole chunk from
    width 8 down.  Each X[lo:hi] is a column-major (rows, width) view on a
    fresh buffer: index it by column, and keep it if needed.  Output
    depends only on ``stream`` and ``n``, never on how chunks are consumed
    or parallelized.
    """
    if n < 1:
        raise PreconditionError("sample count must be >= 1")
    edges = chunk_edges(n)
    return [
        (lo, hi, _draw_batches(family, width, lo, hi, generator(child)))
        for (lo, hi), child in zip(edges, stream.spawn(len(edges)))
    ]


def _draw_batches(family: MeasureFamily, width: int, lo: int, hi: int, rng):
    # A batch is the .T view of a fresh C-order (width, rows) buffer, filled
    # block after block by one column-major draw each.  An exact
    # construction fills it SLAB_ROWS rows at a time instead, in place, so
    # that its per-value variates stay cache-sized: a whole-block draw of
    # beta(2, 2) measured ~25% slower.  numpy's own samplers allocate their
    # draw, so a batch of one block is that draw, not a copy of it.
    blocks = min(max(BATCH_VALUES // (width * BLOCK_ROWS), 1), CHUNK_ROWS // BLOCK_ROWS)
    rows = SLAB_ROWS if family._terms is not None else BLOCK_ROWS
    for start in range(lo, hi, blocks * BLOCK_ROWS):
        stop = min(start + blocks * BLOCK_ROWS, hi)
        if rows == BLOCK_ROWS and stop - start <= BLOCK_ROWS:
            yield start, stop, family.draw(rng, (stop - start, width))
            continue
        buf = np.empty((width, stop - start))
        for s in range(0, stop - start, rows):
            e = min(s + rows, stop - start)
            family.draw(rng, (e - s, width), out=buf[:, s:e].T)
        yield start, stop, buf.T
        # Hold no batch across the next draw: a consumer that drops each
        # batch before asking for the next keeps one alive, not two.
        del buf


def sample(family: MeasureFamily, dim: int, n: int, seed: int, *labels) -> np.ndarray:
    """n i.i.d. draws of the dim-dimensional vector, shape (n, dim) float64.

    The pool is that of the ``("vector-samples", *labels)`` stream.
    """
    if dim < 1:
        raise PreconditionError("sample dimension must be >= 1")
    pool = draw_pool(family, dim, n, substream(seed, "vector-samples", *labels))
    return np.concatenate([x for _, _, batches in pool for _, _, x in batches])


def pool_pass(
    family: MeasureFamily, n: int, stream: np.random.SeedSequence, columns, sums=(),
    threads: int = 1,
) -> tuple[list[np.ndarray], list[tuple[float, float]]]:
    """Evaluate polynomials over the (n, width) pool of ``stream``: (columns, sums).

    The pool is drawn once by :func:`draw_pool`, its width the largest
    ``p.dim``, and each polynomial p reads its leading p.dim columns.  Each
    (p, k) pair of ``columns`` gives a read-only column of p's values on the
    first k rows.  Each entry of ``sums`` gives (sum |v|, sum v^2) over all
    n rows, where v is a polynomial's values or, for an int i, the values of
    column i, which must span all n rows: that sum evaluates nothing more.
    Each chunk sums its whole chunk, so the sums do not depend on the batch
    size, and the chunk sums are added in chunk order.  Chunks run on up to
    ``threads`` workers; nothing returned depends on ``threads``.  Values
    that overflow to inf or NaN pass through unflagged: a caller checks what
    it needs finite.
    """
    polys = [p for p, _ in columns] + [p for p in sums if not isinstance(p, int)]
    pool = draw_pool(family, max(p.dim for p in polys), n, stream)
    values = [np.empty(k) for _, k in columns]

    def pass_chunk(chunk):
        c_lo, c_hi, batches = chunk
        parts = [None if isinstance(p, int) else np.empty(c_hi - c_lo) for p in sums]
        # numpy's error state is per thread, so each worker sets its own.
        with np.errstate(over="ignore", invalid="ignore"):
            for lo, hi, batch in batches:
                for (p, k), vals in zip(columns, values):
                    if lo < k:
                        top = min(hi, k)
                        vals[lo:top] = p.evaluate_batch(batch[:top - lo, :p.dim])
                for p, part in zip(sums, parts):
                    if part is not None:
                        part[lo - c_lo:hi - c_lo] = p.evaluate_batch(batch[:, :p.dim])
                batch = None  # let the batch go before the next one is drawn
            parts = [np.abs(values[p][c_lo:c_hi]) if part is None
                     else np.abs(part, out=part) for p, part in zip(sums, parts)]
            return [(float(a.sum()), float((a * a).sum())) for a in parts]

    totals = [(0.0, 0.0)] * len(sums)
    for chunk_sums in ordered_map(pass_chunk, pool, threads):
        totals = [(s + cs, sq + csq) for (s, sq), (cs, csq) in zip(totals, chunk_sums)]
    for vals in values:
        vals.flags.writeable = False  # so a SampleSet adopts it without a copy
    return values, totals


def functional_values(
    q: Polynomial, family: MeasureFamily, n: int, seed: int, *labels
) -> np.ndarray:
    """q(X) for n draws of X ~ ``family``^q.dim, shape (n,), on the pool of ``sample``.

    The column is read-only.  A value that overflows to inf or NaN is a
    ``PreconditionError``.
    """
    stream = substream(seed, "vector-samples", *labels)
    (values,), _ = pool_pass(family, n, stream, [(q, n)])
    if not np.isfinite(values).all():
        raise PreconditionError(f"non-finite polynomial value under {family.label()}")
    return values
