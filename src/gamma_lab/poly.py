"""Sparse multivariate polynomials with exact rational or float coefficients.

A polynomial in variables x1..xm is stored as a map from monomials to
coefficients.  A monomial is a sorted tuple of (variable index, power)
pairs with strictly positive powers; the empty tuple is the constant
monomial (the empty product is 1).  Zero coefficients are never stored, so
the zero polynomial has an empty term map and its degree is reported as
``None`` rather than 0 or -inf: callers must handle the degenerate case
explicitly.

Two coefficient modes exist and are tracked by the ``exact`` flag:

* exact mode -- coefficients are rationals, read as ``fractions.Fraction``;
  all ring operations, derivatives and moment computations are exact, which
  is what the symbolic operator identities rely on;
* double mode -- coefficients are ``float``; intended for sampling-scale
  work in hundreds of variables where exact arithmetic is too slow.

Mixing an exact and a double operand yields a double result.  In double
mode only coefficients that are exactly 0.0 are pruned; there is no epsilon
threshold, so degrees never change silently.

An exact polynomial is stored as integer numerators over one positive
denominator ``den``: the coefficient of a monomial is ``n / den``.  Its
normal form has gcd(den, every numerator) = 1 (the zero polynomial has
den = 1), so it is canonical and two exact polynomials are equal exactly
when their denominators and numerator maps are.  Ring operations multiply
and add Python ints: a product multiplies the denominators, a sum rescales
to their lcm, and each result gets one gcd pass.  A ``Fraction`` is built
only when a caller reads a coefficient through :attr:`Polynomial.terms`.
A double polynomial stores ``float`` coefficients.  Same-mode operations
read an operand's term map as it is; only the exact operand of a mixed
operation is converted, to the correctly rounded float ``n / den``, by
:meth:`Polynomial._coefs`.  A sum that reaches zero is deleted where it
arises, so every stored term map is already free of zeros.

Polynomials are immutable after construction and safe to share between
threads.  Iteration over terms is always in sorted monomial order, which
keeps float accumulation deterministic.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from types import MappingProxyType
from typing import Union

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
    # Disjoint, ordered variable ranges: the sorted merge is the concatenation.
    if m1[-1][0] < m2[0][0]:
        return m1 + m2
    if m2[-1][0] < m1[0][0]:
        return m2 + m1
    merged = dict(m1)
    for var, power in m2:
        merged[var] = merged.get(var, 0) + power
    return tuple(sorted(merged.items()))


def _mono_degree(m: Mono) -> int:
    return sum(p for _, p in m)


def _add_terms(out: dict[Mono, Coef], items: Iterable[tuple[Mono, Coef]]) -> None:
    """Add (monomial, coefficient) pairs into ``out`` in their order; a
    coefficient or sum that is zero is deleted, never kept."""
    for m, c in items:
        s = out.get(m)
        if s is not None:
            c = s + c
        if c:
            out[m] = c
        elif s is not None:
            del out[m]


def _rescaled(nums: Mapping[Mono, int], k: int) -> dict[Mono, int]:
    """A new numerator map, each numerator times ``k``."""
    return dict(nums) if k == 1 else {m: n * k for m, n in nums.items()}


class _ExactTerms(Mapping):
    """Read-only view of an exact term map.

    A coefficient is built as ``Fraction(n, den)`` when it is read; keys,
    length and membership build none.
    """

    __slots__ = ("_nums", "_den")

    def __init__(self, nums: Mapping[Mono, int], den: int):
        self._nums = nums
        self._den = den

    def __getitem__(self, mono: Mono) -> Fraction:
        return Fraction(self._nums[mono], self._den)

    def __iter__(self) -> Iterator[Mono]:
        return iter(self._nums)

    def __len__(self) -> int:
        return len(self._nums)

    def __contains__(self, mono) -> bool:
        return mono in self._nums


class Polynomial:
    """Immutable sparse polynomial over x1..x{dim}."""

    __slots__ = ("dim", "exact", "_terms", "_den")

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
            # Keys naming one monomial add up, in input order.
            _add_terms(clean, (
                (_mono(mono, dim), self._coerce(coef)) for mono, coef in terms.items()
            ))
        den = 1
        if self.exact:
            den = math.lcm(*(c.denominator for c in clean.values()))
            clean = {m: c.numerator * (den // c.denominator) for m, c in clean.items()}
        self._terms = clean
        self._den = den

    def _coerce(self, value) -> Coef:
        """An exact coefficient as an int or Fraction, a double one as float."""
        if self.exact:
            if isinstance(value, (int, Fraction)):
                return value
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

    @classmethod
    def _sum(cls, dim: int, exact: bool, parts: Iterable["Polynomial"]) -> "Polynomial":
        """The fold zero(dim, exact) + p1 + p2 + ..., added into one term map.

        Parts are added left to right, so the per-monomial sums and the term
        order are those of the fold, without its copy of the running total
        per step.  ``exact`` must be the fold's mode: False if any part is
        double; an exact part of a double sum is converted as ``+`` does.
        """
        total = cls.zero(dim, exact)
        out: dict[Mono, Coef] = {}
        den = 1
        for part in parts:
            total._check_dim(part)
            if part.exact and not exact:
                part = part.to_double()
            terms = part._terms
            if exact and part._den != den:
                # The running sum and the part over the lcm of their denominators.
                common = math.lcm(den, part._den)
                if common != den:
                    k = common // den
                    for m in out:
                        out[m] *= k
                    den = common
                terms = _rescaled(terms, den // part._den)
            _add_terms(out, terms.items())
        return total._wrap(out, exact, den)

    # -- structure ---------------------------------------------------------

    @property
    def terms(self) -> Mapping[Mono, Coef]:
        """Read-only view of the term map; exact coefficients read as Fraction."""
        if self.exact:
            return _ExactTerms(self._terms, self._den)
        return MappingProxyType(self._terms)

    def sorted_terms(self) -> list[tuple[Mono, Coef]]:
        return sorted(self.terms.items())

    def integer_form(self) -> tuple[int, Mapping[Mono, int]]:
        """(den, numerators) of an exact polynomial: each coefficient is n / den."""
        if not self.exact:
            raise PreconditionError("integer_form() needs an exact polynomial")
        return self._den, MappingProxyType(self._terms)

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

    # -- ring operations ---------------------------------------------------

    def _check_dim(self, other: "Polynomial") -> None:
        if self.dim != other.dim:
            raise DimensionMismatchError(
                f"dimension mismatch: {self.dim} vs {other.dim}"
            )

    def _result_mode(self, other: "Polynomial") -> bool:
        return self.exact and other.exact

    def _coefs(self, exact: bool) -> Mapping[Mono, Coef]:
        """The term map read in a result mode: as stored when the modes
        match (numerators over ``_den`` in exact mode), else each exact
        coefficient as the float n / den (a tiny one as 0.0, which the caller
        prunes)."""
        if self.exact == exact:
            return self._terms
        den = self._den
        try:
            return {m: n / den for m, n in self._terms.items()}
        except OverflowError:
            raise PreconditionError("exact coefficient beyond float range") from None

    def __add__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction, float)):
            other = Polynomial.constant(
                other, self.dim, exact=not isinstance(other, float)
            )
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_dim(other)
        if self._result_mode(other):
            den = math.lcm(self._den, other._den)
            out = _rescaled(self._terms, den // self._den)
            _add_terms(out, _rescaled(other._terms, den // other._den).items())
            return self._wrap(out, True, den)
        out = dict(self._coefs(False))
        _add_terms(out, other._coefs(False).items())
        if self.exact != other.exact:  # prune conversions that underflowed to 0.0
            out = {m: c for m, c in out.items() if c}
        return self._wrap(out, False)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return self._wrap({m: -c for m, c in self._terms.items()}, self.exact, self._den)

    def __sub__(self, other) -> "Polynomial":
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def scale(self, factor) -> "Polynomial":
        """Multiply by a scalar; a float factor demotes to double mode."""
        exact = self.exact and not isinstance(factor, float)
        if exact:
            f = factor if isinstance(factor, (int, Fraction)) else Fraction(factor)
            if f == 0:
                return Polynomial.zero(self.dim, True)
            fn = f.numerator
            return self._wrap(
                {m: n * fn for m, n in self._terms.items()}, True, self._den * f.denominator
            )
        f = float(factor)
        if f == 0:
            return Polynomial.zero(self.dim, False)
        # A double product can underflow to zero.
        scaled = ((m, c * f) for m, c in self._coefs(False).items())
        return self._wrap({m: c for m, c in scaled if c}, False)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction, float)):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_dim(other)
        exact = self._result_mode(other)
        right = other._coefs(exact)
        out: dict[Mono, Coef] = {}
        for m1, c1 in self._coefs(exact).items():
            for m2, c2 in right.items():
                m = _mono_mul(m1, m2)
                s = out.get(m)
                s = c1 * c2 if s is None else s + c1 * c2
                if s:  # a double product alone can also be zero
                    out[m] = s
                else:
                    out.pop(m, None)
        return self._wrap(out, exact, self._den * other._den if exact else 1)

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

    def _wrap(self, terms: dict[Mono, Coef], exact: bool, den: int = 1) -> "Polynomial":
        """A polynomial of this dimension that takes ``terms`` as its term map.

        ``terms`` must hold no zero: floats in double mode (``den`` 1),
        integer numerators over ``den`` > 0 in exact mode, which one gcd pass
        brings to the normal form.
        """
        if exact:
            g = math.gcd(den, *terms.values())
            if g != 1:
                terms = {m: n // g for m, n in terms.items()}
                den //= g
        p = Polynomial.__new__(Polynomial)
        p.dim = self.dim
        p.exact = exact
        p._terms = terms
        p._den = den
        return p

    # -- calculus ----------------------------------------------------------

    def partial(self, i: int) -> "Polynomial":
        """Formal partial derivative with respect to x_i (1-based)."""
        if not 1 <= i <= self.dim:
            raise DimensionMismatchError(f"variable index {i} outside 1..{self.dim}")
        out: dict[Mono, Coef] = {}
        # Distinct monomials have distinct derivatives: no sums arise.
        for m, c in self._terms.items():
            for j, (var, p) in enumerate(m):
                if var == i:
                    lower = ((i, p - 1),) if p > 1 else ()
                    out[m[:j] + lower + m[j + 1 :]] = c * p
                    break
        return self._wrap(out, self.exact, self._den)

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
        return {m[0][1] if m else 0: c for m, c in self.terms.items()}

    def embed(self, var: int, dim: int) -> "Polynomial":
        """Rename the single variable of a univariate polynomial to x_var in R^dim."""
        if self.dim != 1:
            raise PreconditionError("embed() requires a univariate polynomial")
        # Renaming the variable keeps every coefficient, and so the normal form.
        out = {_mono(((var, m[0][1]),), dim) if m else _CONST: c
               for m, c in self._terms.items()}
        return Polynomial.zero(dim, self.exact)._wrap(out, self.exact, self._den)

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
        exact, den = self.exact, self._den
        for m, c in sorted(self._terms.items()):
            try:
                fc = c / den if exact else c
            except OverflowError:  # an exact coefficient beyond float range
                raise PreconditionError(
                    f"coefficient of monomial {m} is beyond float range"
                ) from None
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
        # A tiny exact coefficient can underflow to 0.0.
        return self._wrap({m: c for m, c in self._coefs(False).items() if c}, False)

    # -- equality / display --------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.exact and other.exact:  # normal forms: compare (den, numerators)
            return (self.dim == other.dim and self._den == other._den
                    and self._terms == other._terms)
        return self.dim == other.dim and self.terms == other.terms

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

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

    @classmethod
    def from_json_dict(cls, data: Mapping, exact: bool | None = None) -> "Polynomial":
        """A polynomial record, or PreconditionError: ``dim``, variables and
        powers are ints (no bool or float), and a stray key is refused."""
        try:
            stray = (set(data) - {"dim", "terms"}).union(
                *(set(entry) - {"exps", "coef"} for entry in data["terms"]))
            if stray:
                raise ValueError(f"unknown keys {sorted(stray)}")
            dim = data["dim"]
            coefs = [(entry["exps"], entry["coef"]) for entry in data["terms"]]
            ints = [dim, *(x for exps, _ in coefs for pair in exps for x in pair)]
            for x in ints:
                if isinstance(x, bool) or not isinstance(x, int):
                    raise TypeError(f"{x!r} is not an integer")
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
                key = _mono(exps, dim)
                terms[key] = terms.get(key, 0) + (Fraction(c) if exact else float(c))
        except (KeyError, TypeError, ValueError, ZeroDivisionError,
                OverflowError) as exc:  # OverflowError: an int beyond float range
            raise PreconditionError(f"bad polynomial record: {exc}") from exc
        return cls(dim, terms, exact)

    @classmethod
    def from_json(cls, text: str | bytes, exact: bool | None = None) -> "Polynomial":
        """Read a polynomial record; bytes are decoded as UTF-8."""
        try:
            data = json.loads(text.decode() if isinstance(text, bytes) else text)
        except ValueError as exc:  # bad JSON or UTF-8, or an int over the digit limit
            raise PreconditionError(f"invalid polynomial JSON: {exc}") from exc
        return cls.from_json_dict(data, exact)


def variables(dim: int, exact: bool = True) -> list[Polynomial]:
    """Convenience: the list [x1, ..., x_dim]."""
    return [Polynomial.variable(i, dim, exact) for i in range(1, dim + 1)]
