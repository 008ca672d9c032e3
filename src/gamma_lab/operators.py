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
from .poly import Coef, Polynomial

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


def apply_generator(op: DiffusionOperator, f: Polynomial) -> Polynomial:
    """Lf, computed term-exactly; never raises the degree."""
    if f.dim != op.dim:
        raise DimensionMismatchError(f"f has dimension {f.dim}, operator {op.dim}")
    exact = _common_exact(op, f)
    if exact != f.exact:
        f = f.to_double()
    parts = []
    for i in sorted(f.variables()):
        fi = f.partial(i)
        parts.append(_diffusion_coeff(op, i, exact) * fi.partial(i))
        parts.append(_drift_coeff(op, i, exact) * fi)
    return Polynomial._sum(op.dim, exact, parts)


def carre_du_champ(
    op: DiffusionOperator, f: Polynomial, g: Polynomial | None = None
) -> Polynomial:
    """Gamma(f, g) = sum_i A(x_i) d_if d_ig (closed form); Gamma(f) if g omitted."""
    if g is None:
        g = f
    if f.dim != op.dim or g.dim != op.dim:
        raise DimensionMismatchError("operand dimensions do not match the operator")
    exact = _common_exact(op, f, g)
    return Polynomial._sum(op.dim, exact, (
        _diffusion_coeff(op, i, exact) * f.partial(i) * g.partial(i)
        for i in sorted(f.variables() & g.variables())
    ))


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

    def component(self, lam) -> Polynomial:
        key = _match_float_eigenvalue(self.components, float(lam))
        return self.components.get(key, Polynomial.zero(self.dim, self.family.exact))


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

    groups: dict[Coef, Polynomial] = {}
    for key in sorted(coeffs):
        c = coeffs[key]
        if c == 0:
            continue
        lam = eigenvalue(family, tuple(i for _, i in key))
        if not exact:
            lam = _match_float_eigenvalue(groups, float(lam))
        term = Polynomial.constant(Fraction(c, common * den) if exact else c, op.dim, exact)
        for var, i in key:
            bp = basis(family, i).poly
            term = term * (bp if exact else bp.to_double()).embed(var, op.dim)
        groups[lam] = groups.get(lam, Polynomial.zero(op.dim, exact)) + term
    groups = {lam: comp for lam, comp in groups.items() if not comp.is_zero()}
    return SpectralDecomposition(family, op.dim, groups)


def _match_float_eigenvalue(groups: Mapping[Coef, Polynomial], lam: float) -> float:
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
