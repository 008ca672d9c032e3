"""Reference measures, exact moment engine, orthogonal bases, samplers.

Three product measures are supported, each the law of i.i.d. copies of a
single-variable distribution:

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

Raw moments have closed forms in all three cases and are exact rationals
whenever the family parameters are rational; expectations of polynomials
under the product measure factor across coordinates by independence.  The
orthogonal bases (Hermite, Laguerre, Jacobi) are generated monic by the
moment-based three-term recurrence

    p_{k+1} = (x - a_k) p_k - b_k p_{k-1},
    a_k = E[x p_k^2] / E[p_k^2],   b_k = E[p_k^2] / E[p_{k-1}^2],

which is exact in rational mode and uniform across families; squared norms
are exposed separately so both monic and orthonormal views are available.

Every Monte-Carlo pool is drawn by :func:`draw_pool`; every column of one
polynomial over a pool is computed by :func:`functional_values`.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Union

import numpy as np
from scipy import special, stats

from .errors import DimensionMismatchError, PreconditionError
from .poly import Coef, Polynomial
from .sampling import BLOCK_ROWS, SLAB_ROWS, chunk_edges, generator, substream

Param = Union[Fraction, float]

_KINDS = ("gaussian", "gamma", "beta")


def _as_param(value, name: str) -> Param:
    """Normalize a family parameter; int/Fraction stay exact, float stays float."""
    if isinstance(value, bool) or value is None:
        raise PreconditionError(f"parameter {name} must be a number")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, float):
        return value
    raise PreconditionError(f"parameter {name} must be a number, got {type(value)!r}")


@dataclass(frozen=True)
class MeasureFamily:
    """One of the three single-variable reference laws."""

    kind: str
    r: Param | None = None
    a: Param | None = None
    b: Param | None = None

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

    @property
    def exact(self) -> bool:
        """True if all parameters are rational, enabling exact moments."""
        return not any(isinstance(p, float) for p in (self.r, self.a, self.b))

    def support(self) -> tuple[float, float]:
        if self.kind == "gaussian":
            return (-math.inf, math.inf)
        if self.kind == "gamma":
            return (0.0, math.inf)
        return (-1.0, 1.0)

    def label(self) -> str:
        if self.kind == "gaussian":
            return "gaussian"
        if self.kind == "gamma":
            return f"gamma(r={self.r})"
        return f"beta(a={self.a},b={self.b})"

    # Densities / CDFs are float-valued conveniences for tests and fixtures.

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "gaussian":
            return np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
        if self.kind == "gamma":
            return stats.gamma.pdf(x, float(self.r))
        a, b = float(self.a), float(self.b)
        out = np.zeros_like(x)
        inside = (x >= -1) & (x <= 1)
        z = 2.0 ** (a + b - 1) * special.beta(a, b)
        xi = x[inside]
        out[inside] = (1 - xi) ** (a - 1) * (1 + xi) ** (b - 1) / z
        return out

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "gaussian":
            return special.ndtr(x)
        if self.kind == "gamma":
            return stats.gamma.cdf(x, float(self.r))
        # x = 1 - 2B:  P(x <= v) = P(B >= (1-v)/2)
        return stats.beta.sf((1 - x) / 2, float(self.a), float(self.b))

    def draw(self, rng: np.random.Generator, shape) -> np.ndarray:
        if self.kind == "gaussian":
            return rng.standard_normal(shape)
        if self.kind == "gamma":
            return rng.gamma(float(self.r), size=shape)
        return 1.0 - 2.0 * rng.beta(float(self.a), float(self.b), size=shape)

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


@dataclass(frozen=True)
class ProductMeasure:
    """The law of (X_1, ..., X_m) with i.i.d. coordinates from one family."""

    family: MeasureFamily
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise PreconditionError("product measure dimension must be >= 1")


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


def expectation(p: Polynomial, mu: ProductMeasure) -> Coef:
    """E[p(X)] under the product measure, by independence factorization."""
    if p.dim != mu.dim:
        raise DimensionMismatchError(
            f"polynomial dimension {p.dim} != measure dimension {mu.dim}"
        )
    exact = p.exact and mu.family.exact
    total: Coef = Fraction(0) if exact else 0.0
    for mono, coef in p.sorted_terms():
        term = coef if exact else float(coef)
        for _, power in mono:
            m = raw_moment(mu.family, power)
            if m == 0:
                term = 0
                break
            term = term * (m if exact else float(m))
        total = total + term
    return total


def variance(p: Polynomial, mu: ProductMeasure) -> Coef:
    mean = expectation(p, mu)
    return expectation(p * p, mu) - mean * mean


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

    def orthonormal(self) -> Polynomial:
        """Unit-norm version (double mode: the norm is generally irrational)."""
        return self.poly.to_double().scale(1.0 / math.sqrt(float(self.norm2)))


_BASIS_CACHE: dict[MeasureFamily, list[BasisPolynomial]] = {}
_BASIS_LOCK = threading.Lock()


def basis(family: MeasureFamily, i: int) -> BasisPolynomial:
    """The degree-i monic orthogonal polynomial (Hermite/Laguerre/Jacobi).

    Generated by the moment-based three-term recurrence; exact in rational
    mode.  ``basis(f, 0)`` is the constant 1.
    """
    if i < 0:
        raise PreconditionError("basis index must be >= 0")
    with _BASIS_LOCK:
        chain = _BASIS_CACHE.setdefault(family, [])
        mu1 = ProductMeasure(family, 1)
        x = Polynomial.variable(1, 1, exact=family.exact)
        if not chain:
            one = Polynomial.constant(1, 1, exact=family.exact)
            chain.append(BasisPolynomial(family, 0, one, raw_moment(family, 0)))
        while len(chain) <= i:
            k = len(chain) - 1
            pk = chain[k].poly
            nk = chain[k].norm2
            ak = expectation(x * pk * pk, mu1) / nk
            nxt = (x - Polynomial.constant(ak, 1, family.exact)) * pk
            if k > 0:
                bk = nk / chain[k - 1].norm2
                nxt = nxt - chain[k - 1].poly.scale(bk)
            chain.append(
                BasisPolynomial(family, k + 1, nxt, expectation(nxt * nxt, mu1))
            )
        return chain[i]


@lru_cache(maxsize=None)
def monomial_in_basis(family: MeasureFamily, k: int) -> tuple[tuple[int, Coef], ...]:
    """Expansion x^k = sum_i c_i p_i in the family's monic basis.

    Returned as ((i, c_i), ...) with zero coefficients dropped; exact via
    moment-engine projections c_i = E[x^k p_i] / E[p_i^2].
    """
    mu1 = ProductMeasure(family, 1)
    xk = Polynomial.variable(1, 1, family.exact) ** k
    out = []
    for i in range(k + 1):
        bp = basis(family, i)
        c = expectation(xk * bp.poly, mu1) / bp.norm2
        if c != 0:
            out.append((i, c))
    return tuple(out)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def draw_pool(
    family: MeasureFamily, width: int, n: int, stream: np.random.SeedSequence
) -> list[tuple[int, int, Iterator[tuple[int, int, np.ndarray]]]]:
    """The (start, stop, blocks) chunks of an (n, width) i.i.d. pool.

    The one sampling pass of the package: every Monte-Carlo estimate draws
    its pool here.  ``blocks`` draws its chunk lazily from the chunk's own
    generator, ``BLOCK_ROWS`` rows at a time, yielding (lo, hi, X[lo:hi]).
    Each X[lo:hi] is a column-major (rows, width) view on a fresh buffer:
    index it by column, and keep it if needed.  Output depends only on
    ``stream`` and ``n``, never on how chunks are consumed or parallelized.
    """
    if n < 1:
        raise PreconditionError("sample count must be >= 1")
    edges = chunk_edges(n)
    return [
        (lo, hi, _draw_blocks(family, width, lo, hi, generator(child)))
        for (lo, hi), child in zip(edges, stream.spawn(len(edges)))
    ]


def _draw_blocks(family: MeasureFamily, width: int, lo: int, hi: int, rng):
    for start in range(lo, hi, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, hi)
        # Fill a fresh (width, rows) buffer one row slab at a time, so the
        # transposing copy of each slab stays cache-resident; its .T view
        # is the (rows, width) block with contiguous columns.
        rows = stop - start
        buf = np.empty((width, rows))
        for s in range(0, rows, SLAB_ROWS):
            e = min(s + SLAB_ROWS, rows)
            buf[:, s:e] = family.draw(rng, (e - s, width)).T
        yield start, stop, buf.T


def _pool_blocks(mu: ProductMeasure, n: int, seed: int, labels) -> Iterator:
    """The blocks of the ``("vector-samples", *labels)`` pool, in row order."""
    pool = draw_pool(mu.family, mu.dim, n, substream(seed, "vector-samples", *labels))
    for _, _, blocks in pool:
        for _, _, x in blocks:
            yield x


def sample(mu: ProductMeasure, n: int, seed: int, *labels) -> np.ndarray:
    """n i.i.d. draws of the m-dimensional vector, shape (n, m) float64."""
    return np.concatenate(list(_pool_blocks(mu, n, seed, labels)))


def functional_values(
    q: Polynomial, mu: ProductMeasure, n: int, seed: int, *labels
) -> np.ndarray:
    """q(X) for n draws of X ~ mu, shape (n,), on the pool of ``sample``."""
    return np.concatenate(
        [q.evaluate_batch(x) for x in _pool_blocks(mu, n, seed, labels)]
    )


def save_samples(
    path,
    values: np.ndarray,
    *,
    seed,
    provenance: str = "",
    family: str = "",
    m: int | None = None,
) -> None:
    """Write a 1-D sample column as CSV with a commented reproducibility header."""
    values = np.asarray(values, dtype=float).ravel()
    with open(path, "w") as fh:
        fh.write("# gamma-lab samples v1\n")
        fh.write(f"# seed={seed}\n")
        fh.write(f"# m={'' if m is None else m}\n")
        fh.write(f"# n={values.size}\n")
        fh.write(f"# family={family}\n")
        fh.write(f"# provenance={provenance}\n")
        fh.write("value\n")
        for v in values:
            fh.write(repr(float(v)) + "\n")


def load_samples(path) -> tuple[np.ndarray, dict]:
    """Read a sample column written by :func:`save_samples`."""
    meta: dict[str, str] = {}
    values = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line.lstrip("# ")
                if "=" in body:
                    key, _, val = body.partition("=")
                    meta[key.strip()] = val.strip()
                continue
            if line == "value":
                continue
            values.append(float(line))
    return np.asarray(values), meta
