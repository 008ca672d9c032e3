"""Sparse multivariate polynomials with exact rational or float coefficients.

A polynomial in variables x1..xm is stored as a map from monomials to
coefficients.  A monomial is a sorted tuple of (variable index, power)
pairs with strictly positive powers; the empty tuple is the constant
monomial (the empty product is 1).  Zero coefficients are never stored, so
the zero polynomial has an empty term map and its degree is reported as
``None`` rather than 0 or -inf: callers must handle the degenerate case
explicitly.

Two coefficient modes exist and are tracked by the ``exact`` flag:

* exact mode -- coefficients are ``fractions.Fraction``; all ring
  operations, derivatives and moment computations are exact, which is what
  the symbolic operator identities rely on;
* double mode -- coefficients are ``float``; intended for sampling-scale
  work in hundreds of variables where exact arithmetic is too slow.

Mixing an exact and a double operand yields a double result.  In double
mode only coefficients that are exactly 0.0 are pruned; there is no epsilon
threshold, so degrees never change silently.

Polynomials are immutable after construction and safe to share between
threads.  Iteration over terms is always in sorted monomial order, which
keeps float accumulation deterministic.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence, Union

import numpy as np

from .errors import DimensionMismatchError, PreconditionError

Coef = Union[Fraction, float]
#: Monomial: sorted ((var, power), ...) with 1-based vars and powers >= 1.
Mono = tuple[tuple[int, int], ...]

_CONST: Mono = ()


def _mono(exps: Mapping[int, int] | Iterable[tuple[int, int]], dim: int) -> Mono:
    """Canonicalize an exponent map into a monomial key, validating indices."""
    items = exps.items() if isinstance(exps, Mapping) else exps
    merged: dict[int, int] = {}
    for var, power in items:
        if not 1 <= var <= dim:
            raise DimensionMismatchError(
                f"variable index {var} outside 1..{dim}"
            )
        if power < 0:
            raise PreconditionError(f"negative exponent {power} for x{var}")
        if power:
            merged[var] = merged.get(var, 0) + power
    return tuple(sorted(merged.items()))


def _mono_mul(m1: Mono, m2: Mono) -> Mono:
    if not m1:
        return m2
    if not m2:
        return m1
    merged = dict(m1)
    for var, power in m2:
        merged[var] = merged.get(var, 0) + power
    return tuple(sorted(merged.items()))


def _mono_degree(m: Mono) -> int:
    return sum(p for _, p in m)


class Polynomial:
    """Immutable sparse polynomial over x1..x{dim}."""

    __slots__ = ("dim", "exact", "_terms")

    def __init__(
        self,
        dim: int,
        terms: Mapping[Mono, Coef] | None = None,
        exact: bool = True,
    ):
        if dim < 1:
            raise PreconditionError("dimension must be >= 1")
        self.dim = int(dim)
        self.exact = bool(exact)
        clean: dict[Mono, Coef] = {}
        if terms:
            for mono, coef in terms.items():
                c = self._coerce(coef)
                if c != 0:
                    clean[_mono(mono, dim)] = c
        self._terms = clean

    def _coerce(self, value) -> Coef:
        if self.exact:
            if isinstance(value, float):
                raise PreconditionError(
                    "float coefficient in exact mode; use to_double() first"
                )
            return Fraction(value)
        return float(value)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim: int, exact: bool = True) -> "Polynomial":
        return cls(dim, {}, exact)

    @classmethod
    def constant(cls, value, dim: int = 1, exact: bool = True) -> "Polynomial":
        return cls(dim, {_CONST: value}, exact)

    @classmethod
    def variable(cls, i: int, dim: int | None = None, exact: bool = True) -> "Polynomial":
        """The polynomial x_i (1-based) in the given dimension (default i)."""
        dim = i if dim is None else dim
        return cls(dim, {((i, 1),): 1}, exact)

    # -- structure ---------------------------------------------------------

    @property
    def terms(self) -> Mapping[Mono, Coef]:
        """Read-only view of the term map (do not mutate)."""
        return self._terms

    def sorted_terms(self) -> list[tuple[Mono, Coef]]:
        return sorted(self._terms.items())

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int | None:
        """Total degree, or None for the zero polynomial."""
        if not self._terms:
            return None
        return max(_mono_degree(m) for m in self._terms)

    def is_multilinear(self) -> bool:
        """True iff every stored exponent equals 1."""
        return all(p == 1 for m in self._terms for _, p in m)

    def variables(self) -> set[int]:
        """Indices of variables that actually occur."""
        return {v for m in self._terms for v, _ in m}

    def constant_term(self) -> Coef:
        return self._terms.get(_CONST, Fraction(0) if self.exact else 0.0)

    # -- ring operations ---------------------------------------------------

    def _check_dim(self, other: "Polynomial") -> None:
        if self.dim != other.dim:
            raise DimensionMismatchError(
                f"dimension mismatch: {self.dim} vs {other.dim}"
            )

    def _result_mode(self, other: "Polynomial") -> bool:
        return self.exact and other.exact

    def __add__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction, float)):
            other = Polynomial.constant(
                other, self.dim, exact=not isinstance(other, float)
            )
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_dim(other)
        exact = self._result_mode(other)
        conv: Callable[[Coef], Coef] = Fraction if exact else float
        out: dict[Mono, Coef] = {m: conv(c) for m, c in self._terms.items()}
        for m, c in other._terms.items():
            s = out.get(m, 0) + conv(c)
            if s == 0:
                out.pop(m, None)
            else:
                out[m] = s
        return self._wrap(out, exact)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return self._wrap({m: -c for m, c in self._terms.items()}, self.exact)

    def __sub__(self, other) -> "Polynomial":
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def scale(self, factor) -> "Polynomial":
        """Multiply by a scalar; a float factor demotes to double mode."""
        exact = self.exact and not isinstance(factor, float)
        conv: Callable[[Coef], Coef] = Fraction if exact else float
        f = conv(factor)
        if f == 0:
            return Polynomial.zero(self.dim, exact)
        return self._wrap({m: conv(c) * f for m, c in self._terms.items()}, exact)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction, float)):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_dim(other)
        exact = self._result_mode(other)
        conv: Callable[[Coef], Coef] = Fraction if exact else float
        out: dict[Mono, Coef] = {}
        for m1, c1 in self._terms.items():
            c1 = conv(c1)
            for m2, c2 in other._terms.items():
                m = _mono_mul(m1, m2)
                s = out.get(m, 0) + c1 * conv(c2)
                if s == 0:
                    out.pop(m, None)
                else:
                    out[m] = s
        return self._wrap(out, exact)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if not isinstance(k, int) or k < 0:
            raise PreconditionError("polynomial powers must be nonnegative integers")
        result = Polynomial.constant(1, self.dim, self.exact)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def _wrap(self, terms: dict[Mono, Coef], exact: bool) -> "Polynomial":
        p = Polynomial.__new__(Polynomial)
        p.dim = self.dim
        p.exact = exact
        p._terms = {m: c for m, c in terms.items() if c != 0}
        return p

    # -- calculus ----------------------------------------------------------

    def partial(self, i: int) -> "Polynomial":
        """Formal partial derivative with respect to x_i (1-based)."""
        if not 1 <= i <= self.dim:
            raise DimensionMismatchError(f"variable index {i} outside 1..{self.dim}")
        out: dict[Mono, Coef] = {}
        for m, c in self._terms.items():
            d = dict(m)
            p = d.get(i, 0)
            if p == 0:
                continue
            if p == 1:
                del d[i]
            else:
                d[i] = p - 1
            key = tuple(sorted(d.items()))
            out[key] = out.get(key, 0) + c * p
        return self._wrap(out, self.exact)

    def compose(self, inner: "Polynomial") -> "Polynomial":
        """Substitute ``inner`` for the single variable of this polynomial.

        Only valid for univariate self (dim 1); returns a polynomial in
        inner's variables.  Used for the diffusion chain rule phi(f).
        """
        if self.dim != 1:
            raise PreconditionError("compose() requires a univariate outer polynomial")
        exact = self._result_mode(inner)
        coeffs = self._coeff_map()
        if not coeffs:
            return Polynomial.zero(inner.dim, exact)
        zero: Coef = Fraction(0) if exact else 0.0
        result = Polynomial.zero(inner.dim, exact)
        # Horner evaluation in the polynomial ring, dense in the power.
        for k in range(max(coeffs), -1, -1):
            c = coeffs.get(k, zero)
            result = result * inner + Polynomial.constant(
                c if exact else float(c), inner.dim, exact
            )
        return result

    def _coeff_map(self) -> dict[int, Coef]:
        return {m[0][1] if m else 0: c for m, c in self._terms.items()}

    def embed(self, var: int, dim: int) -> "Polynomial":
        """Rename the single variable of a univariate polynomial to x_var in R^dim."""
        if self.dim != 1:
            raise PreconditionError("embed() requires a univariate polynomial")
        out = {}
        for m, c in self._terms.items():
            out[((var, m[0][1]),) if m else _CONST] = c
        return Polynomial(dim, out, self.exact)

    # -- evaluation --------------------------------------------------------

    def evaluate(self, point: Sequence) -> Coef:
        """Evaluate at a point of length dim (exact for exact inputs)."""
        if len(point) != self.dim:
            raise DimensionMismatchError(
                f"point has length {len(point)}, expected {self.dim}"
            )
        total: Coef = Fraction(0) if self.exact else 0.0
        for m, c in self.sorted_terms():
            term = c
            for var, power in m:
                term = term * point[var - 1] ** power
            total = total + term
        return total

    def evaluate_batch(self, x: np.ndarray) -> np.ndarray:
        """Evaluate on an (n, dim) sample matrix, returning (n,) float64.

        Terms accumulate in sorted monomial order through one reused buffer,
        so results are bit-reproducible regardless of construction history
        and the traffic per term stays cache-resident even for hundreds of
        variables at a million samples.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise DimensionMismatchError(
                f"sample matrix has shape {x.shape}, expected (n, {self.dim})"
            )
        n = x.shape[0]
        out = np.zeros(n)
        tmp = np.empty(n)
        for m, c in self.sorted_terms():
            fc = float(c)
            if not m:
                out += fc
                continue
            var, power = m[0]
            col = x[:, var - 1]
            if power == 1:
                np.multiply(col, fc, out=tmp)
            else:
                np.power(col, power, out=tmp)
                tmp *= fc
            for var, power in m[1:]:
                col = x[:, var - 1]
                if power == 1:
                    tmp *= col
                else:
                    tmp *= col**power
            out += tmp
        return out

    # -- mode conversion ----------------------------------------------------

    def to_double(self) -> "Polynomial":
        if not self.exact:
            return self
        return self._wrap({m: float(c) for m, c in self._terms.items()}, False)

    def to_exact(self) -> "Polynomial":
        """Lift float coefficients to exact rationals (binary-exact)."""
        if self.exact:
            return self
        p = Polynomial.__new__(Polynomial)
        p.dim = self.dim
        p.exact = True
        p._terms = {m: Fraction(c) for m, c in self._terms.items()}
        return p

    # -- equality / display --------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.dim == other.dim and self._terms == other._terms

    def __hash__(self):
        return hash((self.dim, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        if not self._terms:
            return f"Polynomial({self.dim}, 0)"
        bits = []
        for m, c in self.sorted_terms():
            mono = "*".join(
                f"x{v}" if p == 1 else f"x{v}^{p}" for v, p in m
            )
            bits.append(f"{c}" if not mono else f"{c}*{mono}")
        return f"Polynomial({self.dim}, {' + '.join(bits)})"

    # -- JSON text format ----------------------------------------------------
    # {"dim": m, "terms": [{"exps": [[var, power], ...], "coef": <number|string>}]}
    # Rational coefficients serialize as exact strings ("7/3"); integers and
    # doubles as JSON numbers.  Round-trips are lossless in both modes.

    def to_json_dict(self) -> dict:
        terms = []
        for m, c in self.sorted_terms():
            if isinstance(c, Fraction):
                coef = int(c) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
            else:
                coef = c
            terms.append({"exps": [[v, p] for v, p in m], "coef": coef})
        return {"dim": self.dim, "terms": terms}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: Mapping, exact: bool | None = None) -> "Polynomial":
        try:
            dim = int(data["dim"])
            coefs = [(entry["exps"], entry["coef"]) for entry in data["terms"]]
            if any(isinstance(c, bool) for _, c in coefs):
                raise PreconditionError("boolean coefficient")
            coefs = [(e, Fraction(c) if isinstance(c, str) else c) for e, c in coefs]
            if exact is None:
                exact = not any(isinstance(c, float) for _, c in coefs)
            terms: dict[Mono, Coef] = {}
            for exps, c in coefs:
                if exact and isinstance(c, float):
                    # Decimal semantics: 0.1 in a rational-mode file means 1/10.
                    c = Fraction(repr(c))
                key = _mono([(int(v), int(p)) for v, p in exps], dim)
                terms[key] = terms.get(key, 0) + (Fraction(c) if exact else float(c))
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise PreconditionError(f"bad polynomial record: {exc}") from exc
        return cls(dim, terms, exact)

    @classmethod
    def from_json(cls, text: str, exact: bool | None = None) -> "Polynomial":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise PreconditionError(f"invalid polynomial JSON: {exc}") from exc
        return cls.from_json_dict(data, exact)


def variables(dim: int, exact: bool = True) -> list[Polynomial]:
    """Convenience: the list [x1, ..., x_dim]."""
    return [Polynomial.variable(i, dim, exact) for i in range(1, dim + 1)]
