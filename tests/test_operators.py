"""Generator, carré du champ, spectral and Poincaré machinery."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poly_helpers import embed, occurring_variables, variables
from gamma_lab import operators
from gamma_lab.errors import ConsistencyError, PreconditionError
from gamma_lab.measures import (
    basis,
    beta,
    expectation,
    gamma,
    gaussian,
    raw_moment,
    sample,
    variance,
)
from gamma_lab.operators import (
    DiffusionOperator,
    apply_generator,
    carre_du_champ,
    carre_du_champ_from_definition,
    check_diffusion,
    dirichlet_energy,
    eigenspace_gamma_identity,
    eigenvalue,
    eigenvalue_1d,
    poincare_check,
    spectral_decompose,
    spectral_gap,
)
from gamma_lab.poly import Polynomial
from gamma_lab.tv_bound import linear_sum_sequence, pair_product_sequence

FAMILIES = [gaussian(), gamma(2), beta(2, 3)]


def random_poly(rng, dim, degree, exact=True):
    terms = {}
    for _ in range(rng.randint(1, 6)):
        mono = {}
        budget = degree
        for var in rng.sample(range(1, dim + 1), rng.randint(0, dim)):
            if budget == 0:
                break
            power = rng.randint(1, budget)
            mono[var] = power
            budget -= power
        coef = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        if coef:
            terms[tuple(sorted(mono.items()))] = (
                terms.get(tuple(sorted(mono.items())), 0) + coef
            )
    return Polynomial(dim, terms)


# -- reference folds ------------------------------------------------------------
# The operators as they were built from polynomial ring operations, before
# they wrote their term maps directly; the kernel must match them to the bit
# and in term order.


def reference_apply_generator(op, f):
    """L f as the sum of A(x_i) d_ii f and B(x_i) d_i f, one polynomial each."""
    exact = operators._common_exact(op, f)
    if exact != f.exact:
        f = f.to_double()
    parts = []
    for i in sorted(occurring_variables(f)):
        fi = f.partial(i)
        parts.append(operators._diffusion_coeff(op, i, exact) * fi.partial(i))
        parts.append(operators._drift_coeff(op, i, exact) * fi)
    return Polynomial._sum(op.dim, exact, parts)


def reference_carre_du_champ(op, f, g=None):
    """Gamma(f, g) as the sum of the products A(x_i) * d_i f * d_i g."""
    if g is None:
        g = f
    exact = operators._common_exact(op, f, g)
    return Polynomial._sum(op.dim, exact, (
        operators._diffusion_coeff(op, i, exact) * f.partial(i) * g.partial(i)
        for i in sorted(occurring_variables(f) & occurring_variables(g))
    ))


def reference_spectral_components(op, f):
    """The eigenvalue groups as sums of a constant times embedded basis polynomials."""
    family = op.family
    exact = operators._common_exact(op, f)
    work = f if exact == f.exact else f.to_double()
    den, terms = work.integer_form() if exact else (1, work.terms)
    rows = []
    for mono, coef in sorted(terms.items()):
        per_var = []
        row_den = 1
        for var, power in mono:
            expansion = operators.monomial_in_basis(family, power)
            if exact:
                lcm = math.lcm(*(c.denominator for _, c in expansion))
                row_den *= lcm
                per_var.append([(var, i, c.numerator * (lcm // c.denominator))
                                for i, c in expansion])
            else:
                per_var.append([(var, i, float(c)) for i, c in expansion])
        rows.append((coef, row_den, per_var))
    common = math.lcm(*(row_den for _, row_den, _ in rows))
    coeffs = {}
    for coef, row_den, per_var in rows:
        if exact:
            coef *= common // row_den
        for combo in itertools.product(*per_var):
            key = tuple((var, i) for var, i, _ in combo if i > 0)
            c = coef
            for _, _, ci in combo:
                c = c * ci
            if c != 0:
                coeffs[key] = coeffs.get(key, 0) + c
    groups = {}
    for key in sorted(coeffs):
        c = coeffs[key]
        if c == 0:
            continue
        lam = eigenvalue(family, tuple(i for _, i in key))
        if not exact:
            lam = operators._match_float_eigenvalue(groups, float(lam))
        term = Polynomial.constant(Fraction(c, common * den) if exact else c, op.dim, exact)
        for var, i in key:
            bp = basis(family, i).poly
            term = term * embed(bp if exact else bp.to_double(), var, op.dim)
        groups[lam] = groups.get(lam, Polynomial.zero(op.dim, exact)) + term
    return {lam: comp for lam, comp in groups.items() if not comp.is_zero()}


def stored(p):
    """A polynomial as stored: mode, denominator and terms in insertion order,
    double coefficients as float hex (so equal bits compare equal)."""
    return (p.dim, p.exact, p._den,
            [(m, c.hex() if isinstance(c, float) else c) for m, c in p._terms.items()])


def assert_kernel_matches_reference(op, f, g):
    assert stored(apply_generator(op, f)) == stored(reference_apply_generator(op, f))
    assert stored(carre_du_champ(op, f)) == stored(reference_carre_du_champ(op, f))
    assert stored(carre_du_champ(op, f, g)) == stored(reference_carre_du_champ(op, f, g))
    components = spectral_decompose(op, f).components
    reference = reference_spectral_components(op, f)
    assert list(components) == list(reference)
    assert [stored(c) for c in components.values()] == [
        stored(c) for c in reference.values()]


def tensor_eigenfunction(fam, index, dim):
    p = Polynomial.constant(1, dim)
    for var, i in enumerate(index, start=1):
        if i:
            p = p * embed(basis(fam, i).poly, var, dim)
    return p


# -- generator ----------------------------------------------------------------


def test_ou_generator_on_square():
    op = DiffusionOperator(gaussian(), 1)
    x = Polynomial.variable(1, 1)
    assert apply_generator(op, x * x) == Polynomial.constant(2, 1) - (x * x).scale(2)


def test_ou_eigenrelation_h3_h2():
    fam = gaussian()
    op = DiffusionOperator(fam, 2)
    p = embed(basis(fam, 3).poly, 1, 2) * embed(basis(fam, 2).poly, 2, 2)
    assert apply_generator(op, p) == p.scale(-5)


def test_jacobi_generator_on_coordinate():
    a, b = 2, 3
    op = DiffusionOperator(beta(a, b), 1)
    x = Polynomial.variable(1, 1)
    expected = Polynomial.constant(b - a, 1) - x.scale(a + b)
    assert apply_generator(op, x) == expected


def test_generator_never_raises_degree():
    rng = random.Random(4)
    for fam in FAMILIES:
        op = DiffusionOperator(fam, 3)
        for _ in range(20):
            f = random_poly(rng, 3, 4)
            lf = apply_generator(op, f)
            if not lf.is_zero():
                assert lf.degree() <= f.degree()


# -- carré du champ -------------------------------------------------------------


def test_gamma_closed_forms():
    x1, x2 = variables(2)
    ou = DiffusionOperator(gaussian(), 2)
    assert carre_du_champ(ou, x1 * x2) == x1 * x1 + x2 * x2
    lag = DiffusionOperator(gamma(2), 1)
    x = Polynomial.variable(1, 1)
    assert carre_du_champ(lag, x) == x
    jac = DiffusionOperator(beta(2, 3), 1)
    assert carre_du_champ(jac, x) == Polynomial.constant(1, 1) - x * x


def test_gamma_closed_form_equals_definition_randomized():
    rng = random.Random(11)
    for fam in FAMILIES:
        op = DiffusionOperator(fam, 3)
        for _ in range(15):
            f = random_poly(rng, 3, 4)
            g = random_poly(rng, 3, 4)
            assert carre_du_champ(op, f, g) == carre_du_champ_from_definition(op, f, g)


def test_gamma_degree_at_most_2d():
    rng = random.Random(5)
    for fam in FAMILIES:
        op = DiffusionOperator(fam, 3)
        for _ in range(20):
            f = random_poly(rng, 3, 4)
            gf = carre_du_champ(op, f)
            if not gf.is_zero() and f.degree():
                assert gf.degree() <= 2 * f.degree()


def test_gamma_nonnegative_on_support():
    rng = random.Random(6)
    for fam in FAMILIES:
        op = DiffusionOperator(fam, 2)
        pts = sample(fam, 2, 100_000, seed=42)
        for _ in range(5):
            f = random_poly(rng, 2, 3)
            vals = carre_du_champ(op, f).evaluate_batch(pts)
            assert vals.min() > -1e-12


def test_diffusion_property_examples():
    t = Polynomial.variable(1, 1)
    phi = t * t
    x1, x2 = variables(2)
    assert check_diffusion(DiffusionOperator(gaussian(), 2), phi, x1, x2)
    lag = DiffusionOperator(gamma(2), 2)
    assert check_diffusion(lag, phi, x1, x1)


def test_diffusion_property_randomized():
    rng = random.Random(13)
    for fam in FAMILIES:
        op = DiffusionOperator(fam, 2)
        for _ in range(10):
            phi = random_poly(rng, 1, 3)
            f = random_poly(rng, 2, 3)
            g = random_poly(rng, 2, 3)
            assert check_diffusion(op, phi, f, g)


# -- Dirichlet form ---------------------------------------------------------------


def test_dirichlet_examples():
    x = Polynomial.variable(1, 1)
    assert dirichlet_energy(DiffusionOperator(gaussian(), 1), x) == 1
    for r in (1, 2, 5):
        assert dirichlet_energy(DiffusionOperator(gamma(r), 1), x) == r
    for a, b in ((2, 2), (2, 3)):
        fam = beta(a, b)
        e = dirichlet_energy(DiffusionOperator(fam, 1), x)
        assert e == 1 - raw_moment(fam, 2)


def test_dirichlet_sentinel_fires_on_shifted_drift(monkeypatch):
    # drift (r + 1 - x) is self-adjoint for Gamma(r+1,1), not Gamma(r,1)
    def shifted(op, i, exact):
        x = Polynomial.variable(i, op.dim, exact)
        return Polynomial.constant(op.family.r + 1, op.dim, exact) - x

    monkeypatch.setattr(operators, "_drift_coeff", shifted)
    op = DiffusionOperator(gamma(2), 1)
    with pytest.raises(ConsistencyError):
        dirichlet_energy(op, Polynomial.variable(1, 1))


def test_shifted_drift_consistent_with_shifted_measure():
    # the (r + 1 - x) drift with A = x is the gamma(r+1) generator: measured
    # against Gamma(r+1,1) the routes agree
    op = DiffusionOperator(gamma(3), 1)
    f = Polynomial.variable(1, 1)
    lf = apply_generator(op, f)
    assert -expectation(f * lf, gamma(3)) == expectation(carre_du_champ(op, f), gamma(3))


def test_generator_integrates_to_zero_and_self_adjoint():
    rng = random.Random(21)
    for fam in FAMILIES:
        op = DiffusionOperator(fam, 3)
        for _ in range(10):
            f = random_poly(rng, 3, 4)
            g = random_poly(rng, 3, 4)
            assert expectation(apply_generator(op, f), fam) == 0
            assert expectation(f * apply_generator(op, g), fam) == expectation(
                g * apply_generator(op, f), fam
            )


# -- spectral decomposition ---------------------------------------------------------


def test_decompose_example_ou():
    x1, x2 = variables(2)
    op = DiffusionOperator(gaussian(), 2)
    dec = spectral_decompose(op, x1 * x2 + x1)
    assert dec.eigenvalues() == [1, 2]
    assert dec.components[1] == x1
    assert dec.components[2] == x1 * x2


def test_decompose_constant():
    for fam in FAMILIES:
        op = DiffusionOperator(fam, 2)
        dec = spectral_decompose(op, Polynomial.constant(Fraction(5, 3), 2))
        assert dec.eigenvalues() == [0]


def test_decompose_jacobi_first_eigenvalue_is_a_plus_b():
    a, b = 2, 3
    fam = beta(a, b)
    op = DiffusionOperator(fam, 1)
    j1 = basis(fam, 1).poly
    dec = spectral_decompose(op, j1)
    assert dec.eigenvalues() == [a + b]
    assert spectral_gap(op) == a + b


def test_eigenrelation_all_tensor_elements():
    for fam in FAMILIES:
        op = DiffusionOperator(fam, 2)
        for index in itertools.product(range(4), repeat=2):
            if sum(index) == 0 or sum(index) > 5:
                continue
            p = tensor_eigenfunction(fam, index, 2)
            lam = eigenvalue(fam, index)
            assert apply_generator(op, p) == p.scale(-lam)


def test_decompose_sums_and_parseval():
    rng = random.Random(31)
    for fam in FAMILIES:
        op = DiffusionOperator(fam, 3)
        for _ in range(5):
            f = random_poly(rng, 3, 4)
            dec = spectral_decompose(op, f)
            assert dec.reconstruct() == f
            var = variance(f, fam)
            parseval = sum(
                expectation(dec.components[lam] ** 2, fam)
                for lam in dec.eigenvalues()
                if lam != 0
            )
            assert float(var) == pytest.approx(float(parseval), abs=1e-10)
            energy = dirichlet_energy(op, f)
            via_spectrum = sum(
                lam * expectation(dec.components[lam] ** 2, fam)
                for lam in dec.eigenvalues()
            )
            assert float(energy) == pytest.approx(float(via_spectrum), abs=1e-10)


def test_decompose_rejects_oversize():
    op = DiffusionOperator(gaussian(), 1)
    x = Polynomial.variable(1, 1)
    with pytest.raises(PreconditionError):
        spectral_decompose(op, x**9)


def test_generator_operator_norm_on_low_eigenspaces():
    # E[(Lf)^2] <= lam^2 E[f^2] for degree <= 2d inputs, where lam, the largest
    # eigenvalue of -L up to degree 2d, puts the whole degree on one coordinate
    rng = random.Random(41)
    d = 2
    for fam in FAMILIES:
        op = DiffusionOperator(fam, 2)
        lam = eigenvalue_1d(op.family, 2 * d)
        for _ in range(10):
            f = random_poly(rng, 2, 2 * d)
            lf = apply_generator(op, f)
            assert expectation(lf * lf, fam) <= lam * lam * expectation(f * f, fam)


# -- Poincaré ---------------------------------------------------------------------


def test_poincare_equality_on_first_eigenspace():
    x = Polynomial.variable(1, 1)
    rep = poincare_check(DiffusionOperator(gaussian(), 1), x)
    assert rep.holds and rep.variance == rep.energy == rep.lambda1 == 1


def test_poincare_ou_mixed_levels():
    fam = gaussian()
    f = Polynomial.variable(1, 1) + basis(fam, 2).poly
    rep = poincare_check(DiffusionOperator(fam, 1), f)
    assert rep.variance == 3 and rep.energy == 5 and rep.holds


def test_poincare_randomized_all_families():
    rng = random.Random(51)
    for fam in FAMILIES:
        op = DiffusionOperator(fam, 2)
        for _ in range(15):
            f = random_poly(rng, 2, 3)
            assert poincare_check(op, f).holds


def test_poincare_beta_reports_alt_gap():
    rep = poincare_check(DiffusionOperator(beta(2, 3), 1), Polynomial.variable(1, 1))
    assert rep.lambda1 == 5
    assert rep.lambda1_alt == 4


# -- eigenspace Gamma identity -------------------------------------------------------


def test_eigenspace_identity_h1():
    op = DiffusionOperator(gaussian(), 1)
    assert eigenspace_gamma_identity(op, Polynomial.variable(1, 1), 1)


def test_eigenspace_identity_examples():
    fam = gaussian()
    op = DiffusionOperator(fam, 1)
    assert eigenspace_gamma_identity(op, basis(fam, 2).poly)
    lag = gamma(2)
    assert eigenspace_gamma_identity(
        DiffusionOperator(lag, 1), basis(lag, 1).poly
    )


def test_eigenspace_identity_rejects_non_eigenfunction():
    op = DiffusionOperator(gaussian(), 2)
    x1, x2 = variables(2)
    with pytest.raises(PreconditionError):
        eigenspace_gamma_identity(op, x1 + x1 * x2)


# -- the term-by-term kernel against the reference folds -------------------------


params = st.one_of(
    st.integers(1, 4),
    st.fractions(min_value=1, max_value=5, max_denominator=7),
    st.floats(min_value=1.0, max_value=5.0),
)
operator_families = st.one_of(
    st.just(gaussian()),
    st.builds(gamma, params),
    st.builds(beta, params, params),
)
exact_coefficients = st.fractions(min_value=-50, max_value=50, max_denominator=12)
# Down to subnormals and up to near overflow, so products underflow to zero
# and sums overflow, and the kernel's zero pruning is exercised.
double_coefficients = st.floats(min_value=-1e300, max_value=1e300, allow_subnormal=True)


@st.composite
def polynomials(draw, dim):
    """Up to 8 terms of total degree <= 4 in x1..x{dim}, all exact or all double."""
    exact = draw(st.booleans())
    terms = {}
    for _ in range(draw(st.integers(0, 8))):
        exps = {}
        for _ in range(draw(st.integers(0, 4))):
            var = draw(st.integers(1, dim))
            exps[var] = exps.get(var, 0) + 1
        terms[tuple(sorted(exps.items()))] = draw(
            exact_coefficients if exact else double_coefficients)
    return Polynomial(dim, terms, exact)


@st.composite
def operator_inputs(draw):
    dim = draw(st.integers(1, 4))
    return (DiffusionOperator(draw(operator_families), dim),
            draw(polynomials(dim)), draw(polynomials(dim)))


@settings(max_examples=300)
@given(operator_inputs())
def test_kernel_matches_reference_fold(inputs):
    assert_kernel_matches_reference(*inputs)


CHAIN_FAMILIES = [gaussian(), beta(2, 2), gamma(2), beta(2.5, 3.0), gamma(2.5)]


@pytest.mark.parametrize("fam", CHAIN_FAMILIES, ids=str)
@pytest.mark.parametrize("sequence", [linear_sum_sequence, pair_product_sequence])
def test_kernel_matches_reference_fold_on_chain_elements(fam, sequence):
    q = sequence(fam, 4)
    op = DiffusionOperator(fam, q.dim)
    gq = carre_du_champ(op, q)
    for f, g in ((q, gq), (gq, q), (q * q, q)):
        assert_kernel_matches_reference(op, f, g)


def test_kernel_matches_reference_fold_on_exact_compositions():
    rng = random.Random(7)
    for fam in FAMILIES:
        op = DiffusionOperator(fam, 3)
        for _ in range(5):
            f = random_poly(rng, 3, 4)
            g = carre_du_champ(op, f)
            assert_kernel_matches_reference(op, f * f, g)
            assert_kernel_matches_reference(op, g, f.to_double())


def test_kernel_matches_reference_fold_on_underflowing_products():
    # Subnormal coefficients times basis or A/B coefficients below 1 round to
    # zero; the fold drops such a term, and a later sum into its monomial
    # goes to the end of the term order.  Under beta(2.9, 3) B(x_1) is
    # 0.1 - 5.9 x_1, and 0.1 * 1e-323 is 0.0 at x1 x2 before 1.0 * -5.9
    # lands there.
    for fam in FAMILIES + [beta(2.5, 3.0), beta(2.9, 3.0)]:
        op = DiffusionOperator(fam, 2)
        f = Polynomial(2, {((1, 2), (2, 1)): 5e-324, ((1, 1), (2, 1)): 1.0,
                           ((1, 2), (2, 2)): 5e-324, ((1, 3),): -1e-323,
                           ((2, 1),): 3.0}, exact=False)
        assert_kernel_matches_reference(op, f, f.scale(0.25))
        assert_kernel_matches_reference(op, f, Polynomial(2, {((1, 1),): 5e-324}, False))


def test_kernel_mixed_mode_conversion_matches_reference_fold():
    # An exact derivative coefficient is rounded once in a double result: to
    # 0.0 when it is tiny, which is never stored, and beyond float range it is
    # a precondition error, as in a double product.
    d = Polynomial(2, {((1, 1), (2, 1)): 0.5, ((1, 2),): -2.0}, exact=False)
    tiny = Polynomial(2, {((1, 2),): Fraction(1, 10**400), ((1, 1), (2, 1)): 3})
    for fam in FAMILIES:
        op = DiffusionOperator(fam, 2)
        assert stored(carre_du_champ(op, tiny, d)) == stored(reference_carre_du_champ(op, tiny, d))
        assert stored(carre_du_champ(op, d, tiny)) == stored(reference_carre_du_champ(op, d, tiny))
    huge = Polynomial(2, {((1, 1),): 10**400})
    with pytest.raises(PreconditionError, match="beyond float range"):
        carre_du_champ(DiffusionOperator(gaussian(), 2), huge, d)
