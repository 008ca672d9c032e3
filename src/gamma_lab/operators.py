"""Symbolic diffusion generators, carré du champ, spectra and Poincaré checks.

For each reference family the generator acts coordinatewise as

    L f = sum_i  A(x_i) d^2f/dx_i^2 + B(x_i) df/dx_i

with
    gaussian:  A = 1,        B = -x            (Ornstein-Uhlenbeck),
    gamma(r):  A = x,        B = r - x         (Laguerre),
    beta(a,b): A = 1 - x^2,  B = (b-a) - (a+b) x   (Jacobi on [-1,1]).

The carré du champ of all three is Gamma(f, g) = sum_i A(x_i) d_if d_ig,
which agrees with the defining combination (L(fg) - f Lg - g Lf)/2 as a
polynomial identity.  The Dirichlet form is computed both as -int f Lg dmu
and as int Gamma(f,g) dmu, with mu the operator family's product measure on
R^dim; a disagreement means the generator is not self-adjoint for that
measure and raises ConsistencyError.  That sentinel is what pins the
Laguerre drift to (r - x): the variant (r+1-x) is the gamma(r+1) generator,
self-adjoint for Gamma(r+1,1) and not for Gamma(r,1).

Eigenstructure: products of monic basis polynomials prod_j p_{i_j}(x_j) are
eigenfunctions.  The eigenvalue of a single index i is i for the gaussian
and gamma families and i (i + a + b - 1) for the beta family, and adds
across coordinates.  Note the beta spectral gap is therefore a + b (the
index-1 value); the value a + b - 1 sometimes quoted for this operator is
surfaced in the Poincaré report as ``lambda1_alt`` but never used.

How they are computed: L and Gamma write their result's term map directly.
One pass over f buckets its terms by the variable they are differentiated
in, in f's term order; A and B are read once per call from the polynomials
``_diffusion_coeff`` and ``_drift_coeff`` build; and each variable's terms
are multiplied out and added in sorted variable order.  The spectral
decomposition keeps integer tensor-basis coefficients and expands each one
times its basis polynomials into one term map per eigenvalue.  Exact mode
works on integer numerators over one denominator, with one gcd pass per
result.  Double mode runs the same loops: each coefficient's float
operations and their order, and the order terms enter the result, are those
of the polynomial ring fold (a product, then a sum per variable), which the
records in ``tests/data/kernel_outputs.json`` pin byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from typing import Mapping

from .errors import ConsistencyError, DimensionMismatchError, PreconditionError
from .measures import (
    MeasureFamily,
    basis,
    expectation,
    finite_float,
    monomial_in_basis,
    variance,
)
from .poly import Coef, Polynomial, _add_terms, _mono_mul

MAX_EXACT_DEGREE = 8
MAX_EXACT_DIM = 12
# Relative tolerances of the double-mode Dirichlet-form and Poincaré checks.
DIRICHLET_RTOL = 1e-10
POINCARE_RTOL = 1e-9


@dataclass(frozen=True)
class DiffusionOperator:
    """Generator of the reversible diffusion for one family on R^dim."""

    family: MeasureFamily
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise PreconditionError("operator dimension must be >= 1")


def _diffusion_coeff(op: DiffusionOperator, i: int, exact: bool) -> Polynomial:
    """A(x_i) as a polynomial in R^dim."""
    x = Polynomial.variable(i, op.dim, exact)
    if op.family.kind == "gaussian":
        return Polynomial.constant(1, op.dim, exact)
    if op.family.kind == "gamma":
        return x
    return Polynomial.constant(1, op.dim, exact) - x * x


def _drift_coeff(op: DiffusionOperator, i: int, exact: bool) -> Polynomial:
    """B(x_i) as a polynomial in R^dim."""
    x = Polynomial.variable(i, op.dim, exact)
    if op.family.kind == "gaussian":
        return -x
    if op.family.kind == "gamma":
        r = op.family.r
        return Polynomial.constant(r if exact else float(r), op.dim, exact) - x
    a, b = op.family.a, op.family.b
    const = (b - a) if exact else float(b) - float(a)
    slope = (a + b) if exact else float(a) + float(b)
    return Polynomial.constant(const, op.dim, exact) - x.scale(slope)


def _common_exact(op: DiffusionOperator, *polys: Polynomial) -> bool:
    return op.family.exact and all(p.exact for p in polys)


def _univariate(p: Polynomial) -> tuple[int, list[tuple[int, Coef]]]:
    """(den, [(power, c), ...]) of a polynomial in x_1 alone, in its term
    order: exact coefficients are numerators over den, double ones floats."""
    den, terms = p.integer_form() if p.exact else (1, p.terms)
    return den, [(m[0][1] if m else 0, c) for m, c in terms.items()]


def _partials(p: Polynomial, exact: bool) -> tuple[int, dict[int, list]]:
    """Every first partial derivative of p, from one pass over its terms.

    Returns (den, parts): ``parts[i]`` lists the terms of d_i p in p's term
    order as (head, e, tail, d), the monomial head + ((i, e),) + tail (no x_i
    when e is 0) with coefficient d.  In exact mode d is an integer numerator
    over den; in double mode it is a float, the power times a double
    coefficient, or the exact (power * n) / den rounded once, as __mul__
    reads an exact operand of a double product.
    """
    den, terms = p.integer_form() if p.exact else (1, p.terms)
    convert = p.exact and not exact
    parts: dict[int, list] = {}
    try:
        for m, c in terms.items():
            for j, (var, power) in enumerate(m):
                d = c * power / den if convert else c * power
                entry = (m[:j], power - 1, m[j + 1:], d)
                part = parts.get(var)
                if part is None:
                    parts[var] = [entry]
                else:
                    part.append(entry)
    except OverflowError:
        raise PreconditionError("exact coefficient beyond float range") from None
    return (den if exact else 1), parts


def _times_coefficient(coefs: list[tuple[int, Coef]], part: list, i: int) -> dict:
    """The term map of C(x_i) * P, for C as [(power, c)] and P as (head, e,
    tail, d) terms: __mul__'s loop, C's terms outer, with each monomial
    written in place."""
    out: dict = {}
    for k, c in coefs:
        for head, e, tail, d in part:
            e += k
            m = head + ((i, e),) + tail if e else head + tail
            s = out.get(m)
            s = c * d if s is None else s + c * d
            if s:  # a double product alone can also be zero
                out[m] = s
            else:
                out.pop(m, None)
    return out


def apply_generator(op: DiffusionOperator, f: Polynomial) -> Polynomial:
    """Lf, computed term-exactly; never raises the degree."""
    if f.dim != op.dim:
        raise DimensionMismatchError(f"f has dimension {f.dim}, operator {op.dim}")
    exact = _common_exact(op, f)
    if exact != f.exact:
        f = f.to_double()
    den, parts = _partials(f, exact)
    a_den, a_coefs = _univariate(_diffusion_coeff(op, 1, exact))
    b_den, b_coefs = _univariate(_drift_coeff(op, 1, exact))
    # A and B over one denominator; a double one is 1, and c * 1 is c.
    common = math.lcm(a_den, b_den)
    a_coefs = [(k, c * (common // a_den)) for k, c in a_coefs]
    b_coefs = [(k, c * (common // b_den)) for k, c in b_coefs]
    out: dict = {}
    for i in sorted(parts):
        first = parts[i]
        second = [(head, e - 1, tail, d * e) for head, e, tail, d in first if e]
        _add_terms(out, _times_coefficient(a_coefs, second, i).items())
        _add_terms(out, _times_coefficient(b_coefs, first, i).items())
    return f._wrap(out, exact, common * den)


def carre_du_champ(
    op: DiffusionOperator, f: Polynomial, g: Polynomial | None = None
) -> Polynomial:
    """Gamma(f, g) = sum_i A(x_i) d_if d_ig (closed form); Gamma(f) if g omitted."""
    if g is None:
        g = f
    if f.dim != op.dim or g.dim != op.dim:
        raise DimensionMismatchError("operand dimensions do not match the operator")
    exact = _common_exact(op, f, g)
    f_den, f_parts = _partials(f, exact)
    g_den, g_parts = (f_den, f_parts) if g is f else _partials(g, exact)
    a_den, a_coefs = _univariate(_diffusion_coeff(op, 1, exact))
    out: dict = {}
    for i in sorted(f_parts.keys() & g_parts.keys()):
        # (A d_i f) * d_i g, the product's loop with the left factor outer.
        left = _times_coefficient(a_coefs, f_parts[i], i)
        right = [(head + ((i, e),) + tail if e else head + tail, d)
                 for head, e, tail, d in g_parts[i]]
        prod: dict = {}
        for m1, c1 in left.items():
            for m2, c2 in right:
                m = _mono_mul(m1, m2)
                s = prod.get(m)
                s = c1 * c2 if s is None else s + c1 * c2
                if s:
                    prod[m] = s
                else:
                    prod.pop(m, None)
        _add_terms(out, prod.items())
    return f._wrap(out, exact, a_den * f_den * g_den)


def carre_du_champ_from_definition(
    op: DiffusionOperator, f: Polynomial, g: Polynomial | None = None
) -> Polynomial:
    """Gamma via (L(fg) - f Lg - g Lf)/2; cross-check route for the closed form."""
    if g is None or g is f:
        # f Lg and g Lf are one product: compute it once, subtract it twice.
        flf = f * apply_generator(op, f)
        combo = apply_generator(op, f * f) - flf - flf
    else:
        lfg = apply_generator(op, f * g)
        combo = lfg - f * apply_generator(op, g) - g * apply_generator(op, f)
    return combo.scale(Fraction(1, 2) if combo.exact else 0.5)


def check_diffusion(
    op: DiffusionOperator, phi: Polynomial, f: Polynomial, g: Polynomial
) -> bool:
    """Chain rule Gamma(phi(f), g) == phi'(f) Gamma(f, g), as exact polynomials."""
    if phi.dim != 1:
        raise PreconditionError("phi must be univariate")
    lhs = carre_du_champ(op, phi.compose(f), g)
    rhs = phi.partial(1).compose(f) * carre_du_champ(op, f, g)
    return lhs == rhs


def dirichlet_energy(
    op: DiffusionOperator, f: Polynomial, g: Polynomial | None = None
) -> Coef:
    """E(f, g) = -int f Lg dmu = int Gamma(f, g) dmu.

    Both routes are evaluated; they must agree (exactly in rational mode,
    within ``DIRICHLET_RTOL`` relative in double mode).  This is the adjointness
    sentinel for the generator/measure conventions.
    """
    if g is None:
        g = f
    via_gamma = expectation(carre_du_champ(op, f, g), op.family)
    via_l = -expectation(f * apply_generator(op, g), op.family)
    if isinstance(via_gamma, Fraction) and isinstance(via_l, Fraction):
        mismatch = via_gamma != via_l
    else:
        scale = max(abs(float(via_gamma)), abs(float(via_l)), 1.0)
        mismatch = abs(float(via_gamma) - float(via_l)) > DIRICHLET_RTOL * scale
    if mismatch:
        raise ConsistencyError(
            "Dirichlet-form routes disagree "
            f"(int Gamma = {via_gamma}, -int f Lg = {via_l}): "
            "generator is not self-adjoint for this measure"
        )
    return via_gamma


# ---------------------------------------------------------------------------
# Spectrum
# ---------------------------------------------------------------------------


def eigenvalue_1d(family: MeasureFamily, i: int) -> Coef:
    """Eigenvalue of -L on the degree-i basis polynomial in one variable."""
    if i < 0:
        raise PreconditionError("basis index must be >= 0")
    if family.kind == "beta":
        val = i * (i + family.a + family.b - 1)
        return val if family.exact else float(val)
    return Fraction(i)


def eigenvalue(family: MeasureFamily, index: tuple[int, ...]) -> Coef:
    """Eigenvalue of -L on prod_j p_{index_j}(x_j): additive across coordinates."""
    total = Fraction(0) if family.exact else 0.0
    for i in index:
        total = total + eigenvalue_1d(family, i)
    return total


def spectral_gap(op: DiffusionOperator) -> Coef:
    """lambda_1, the smallest nonzero eigenvalue of -L."""
    return eigenvalue_1d(op.family, 1)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalue-indexed components of a polynomial in the tensor basis.

    ``components[lam]`` is the orthogonal projection onto Ker(L + lam I);
    the components sum to the decomposed polynomial (exactly in rational
    mode) and each satisfies L c = -lam c.
    """

    family: MeasureFamily
    dim: int
    components: Mapping[Coef, Polynomial]

    def eigenvalues(self) -> list[Coef]:
        return sorted(self.components, key=float)

    def reconstruct(self) -> Polynomial:
        exact = all(c.exact for c in self.components.values())
        return Polynomial._sum(
            self.dim, exact, (self.components[lam] for lam in self.eigenvalues())
        )


def spectral_decompose(op: DiffusionOperator, f: Polynomial) -> SpectralDecomposition:
    """Expand f in the tensor orthogonal basis and group by eigenvalue.

    Works monomial by monomial via the cached one-dimensional expansions
    x^k = sum c_i p_i, so the cost tracks the sparsity of f rather than the
    full tensor grid.  Desk-scale guard rails: total degree <=
    ``MAX_EXACT_DEGREE``, dimension <= ``MAX_EXACT_DIM``.
    """
    if f.dim != op.dim:
        raise DimensionMismatchError(f"f has dimension {f.dim}, operator {op.dim}")
    deg = f.degree()
    if deg is not None and deg > MAX_EXACT_DEGREE:
        raise PreconditionError(
            f"degree {deg} exceeds the spectral-decomposition limit {MAX_EXACT_DEGREE}"
        )
    if op.dim > MAX_EXACT_DIM:
        raise PreconditionError(
            f"dimension {op.dim} exceeds the spectral-decomposition limit {MAX_EXACT_DIM}"
        )
    family = op.family
    exact = _common_exact(op, f)
    work = f if exact == f.exact else f.to_double()

    # One row per monomial: its coefficient and, per variable, the expansion
    # of its power.  In exact mode the coefficient is f's numerator and each
    # expansion is brought to integers over its lcm denominator, which the
    # row's denominator collects.
    den, terms = work.integer_form() if exact else (1, work.terms)
    rows = []
    for mono, coef in sorted(terms.items()):
        per_var = []
        row_den = 1
        for var, power in mono:
            expansion = monomial_in_basis(family, power)
            if exact:
                lcm = math.lcm(*(c.denominator for _, c in expansion))
                row_den *= lcm
                per_var.append([(var, i, c.numerator * (lcm // c.denominator))
                                for i, c in expansion])
            else:
                per_var.append([(var, i, float(c)) for i, c in expansion])
        rows.append((coef, row_den, per_var))
    # Every row over one common denominator: exact sums are integer sums.
    common = math.lcm(*(row_den for _, row_den, _ in rows))

    # Tensor-basis coefficients, accumulated sparsely: index -> coefficient.
    coeffs: dict[tuple[tuple[int, int], ...], Coef] = {}
    for coef, row_den, per_var in rows:
        if exact:
            coef *= common // row_den
        for combo in iter_product(*per_var):
            key = tuple((var, i) for var, i, _ in combo if i > 0)
            c = coef
            for _, _, ci in combo:
                c = c * ci
            if c != 0:
                coeffs[key] = coeffs.get(key, 0) + c

    # Each nonzero coefficient joins its eigenvalue's group, in key order.
    members: dict[Coef, list] = {}
    bases: dict[int, tuple[int, list[tuple[int, Coef]]]] = {}
    for key in sorted(coeffs):
        c = coeffs[key]
        if c == 0:
            continue
        lam = eigenvalue(family, tuple(i for _, i in key))
        if not exact:
            lam = _match_float_eigenvalue(members, float(lam))
        members.setdefault(lam, []).append((c, key))
        for _, i in key:
            if i not in bases:
                bp = basis(family, i).poly
                bases[i] = _univariate(bp if exact else bp.to_double())
    # Exact terms over one denominator: every key's basis product is brought
    # from the product of its basis denominators to their lcm over all keys.
    key_dens = {key: math.prod(bases[i][0] for _, i in key)
                for items in members.values() for _, key in items}
    basis_den = math.lcm(*key_dens.values())

    # A key's term is c times its basis polynomials, multiplied out in key
    # order (the product's loop, earlier variables outer); each group adds its
    # terms into one map in key order.  The key's variables are distinct, so
    # its monomials are too; a double product that underflows to zero stays
    # zero, and _add_terms drops it where the product would have.
    components: dict[Coef, Polynomial] = {}
    for lam, items in members.items():
        out: dict = {}
        for c, key in items:
            term = [((), c * (basis_den // key_dens[key]))]
            for var, i in key:
                term = [(m + ((var, k),) if k else m, v * b)
                        for m, v in term for k, b in bases[i][1]]
            _add_terms(out, term)
        if out:
            components[lam] = work._wrap(out, exact, common * den * basis_den)
    return SpectralDecomposition(family, op.dim, components)


def _match_float_eigenvalue(groups: Mapping[Coef, object], lam: float) -> float:
    # Distinct eigenvalues only collide exactly, never approximately, for the
    # families at hand; 1e-9 relative matching just absorbs float roundoff.
    for key in groups:
        if abs(float(key) - lam) <= 1e-9 * max(1.0, abs(lam)):
            return key
    return lam


# ---------------------------------------------------------------------------
# Poincaré and eigenspace identities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PoincareReport:
    variance: Coef
    energy: Coef
    lambda1: Coef
    holds: bool
    #: a+b-1 for the beta family (a gap value quoted in some references for
    #: this operator; inconsistent with the index-1 eigenvalue, never used).
    lambda1_alt: Coef | None = None


def poincare_check(op: DiffusionOperator, f: Polynomial) -> PoincareReport:
    """Var(f) <= E(f)/lambda_1, both sides via the moment engine."""
    var = variance(f, op.family)
    energy = dirichlet_energy(op, f)
    lam1 = spectral_gap(op)
    if isinstance(var, Fraction) and isinstance(energy, Fraction) and isinstance(lam1, Fraction):
        holds = var * lam1 <= energy
    else:
        var_f = finite_float(var, "variance")
        lam_f = finite_float(lam1, "spectral gap")
        e = finite_float(energy, "Dirichlet energy")
        holds = var_f * lam_f <= e + POINCARE_RTOL * max(1.0, abs(e))
    alt = None
    if op.family.kind == "beta":
        alt = op.family.a + op.family.b - 1
    return PoincareReport(var, energy, lam1, bool(holds), alt)


def eigenspace_gamma_identity(
    op: DiffusionOperator, p: Polynomial, lam: Coef | None = None
) -> bool:
    """On an eigenfunction L p = -lam p, check Gamma(p) == L(p^2)/2 + lam p^2.

    Raises PreconditionError when p is not an eigenfunction of the claimed
    (or inferred) eigenvalue.
    """
    if lam is None:
        dec = spectral_decompose(op, p)
        eigs = dec.eigenvalues()
        if len(eigs) != 1:
            raise PreconditionError(
                f"input spans {len(eigs)} eigenspaces; not an eigenfunction"
            )
        lam = eigs[0]
    lp = apply_generator(op, p)
    if lp != p.scale(-lam if p.exact and not isinstance(lam, float) else -float(lam)):
        raise PreconditionError(f"L p != -{lam} p; input is not an eigenfunction")
    p2 = p * p
    half = Fraction(1, 2) if p2.exact else 0.5
    rhs = apply_generator(op, p2).scale(half) + p2.scale(
        lam if p2.exact and not isinstance(lam, float) else float(lam)
    )
    return carre_du_champ(op, p) == rhs
