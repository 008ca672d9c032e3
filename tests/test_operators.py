"""Generator, carré du champ, spectral and Poincaré machinery."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

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
from gamma_lab.poly import Polynomial, variables

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


def tensor_eigenfunction(fam, index, dim):
    p = Polynomial.constant(1, dim)
    for var, i in enumerate(index, start=1):
        if i:
            p = p * basis(fam, i).poly.embed(var, dim)
    return p


# -- generator ----------------------------------------------------------------


def test_ou_generator_on_square():
    op = DiffusionOperator(gaussian(), 1)
    x = Polynomial.variable(1, 1)
    assert apply_generator(op, x * x) == Polynomial.constant(2, 1) - (x * x).scale(2)


def test_ou_eigenrelation_h3_h2():
    fam = gaussian()
    op = DiffusionOperator(fam, 2)
    p = basis(fam, 3).poly.embed(1, 2) * basis(fam, 2).poly.embed(2, 2)
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
    assert dec.component(1) == x1
    assert dec.component(2) == x1 * x2


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
