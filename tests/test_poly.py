"""Exact sparse polynomial arithmetic."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gamma_lab.errors import DimensionMismatchError, PreconditionError
from gamma_lab.poly import Polynomial, variables


def xvar(i, dim):
    return Polynomial.variable(i, dim)


# -- strategies --------------------------------------------------------------

coefficients = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=4
)


@st.composite
def polynomials(draw, dim=3, max_terms=5, max_power=3):
    n_terms = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n_terms):
        n_vars = draw(st.integers(0, dim))
        mono = {}
        for _ in range(n_vars):
            mono[draw(st.integers(1, dim))] = draw(st.integers(1, max_power))
        terms[tuple(sorted(mono.items()))] = draw(coefficients)
    return Polynomial(dim, terms)


# -- direct examples ---------------------------------------------------------


def test_evaluate_product():
    p = xvar(1, 2) * xvar(2, 2)
    assert p.evaluate((2, 3)) == 6


def test_evaluate_constant_empty_product():
    p = Polynomial.constant(1, dim=3)
    assert p.evaluate((5, -2, 7)) == 1


def test_evaluate_univariate():
    x = xvar(1, 1)
    p = x * x - x.scale(3)
    assert p.evaluate((2,)) == -2


def test_evaluate_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        xvar(1, 2).evaluate((1,))


def test_ring_examples():
    x = xvar(1, 1)
    one = Polynomial.constant(1, 1)
    assert (x + one) * (x - one) == x * x - one
    p = x * x + x.scale(Fraction(1, 2))
    assert (p + p.scale(-1)).is_zero()
    xy = xvar(1, 2) * xvar(2, 2)
    assert xy * xy == xvar(1, 2) ** 2 * xvar(2, 2) ** 2


def test_partial_derivative_examples():
    x1, x2 = variables(2)
    assert (x1 * x1 * x2).partial(1) == (x1 * x2).scale(2)
    assert x1.partial(2).is_zero()
    assert (x1 * x2 + x1).partial(1) == x2 + Polynomial.constant(1, 2)
    with pytest.raises(DimensionMismatchError):
        x1.partial(3)


def test_degree_and_multilinear():
    x1, x2, x3 = variables(3)
    p = x1 * x2 * x3
    assert p.degree() == 3 and p.is_multilinear()
    q = xvar(1, 1) ** 2
    assert q.degree() == 2 and not q.is_multilinear()
    assert Polynomial.zero(2).degree() is None


def test_scale_by_float_demotes_mode():
    p = xvar(1, 1).scale(0.5)
    assert not p.exact
    assert p.to_exact().exact


def test_exact_mode_rejects_float_coefficients():
    with pytest.raises(PreconditionError):
        Polynomial(1, {((1, 1),): 0.5}, exact=True)


def test_compose_sparse_powers():
    # phi(t) = t^3 + 1 must compose densely, not term by term.
    t = xvar(1, 1)
    phi = t**3 + Polynomial.constant(1, 1)
    f = xvar(1, 2) + xvar(2, 2)
    assert phi.compose(f) == f * f * f + Polynomial.constant(1, 2)


def test_pow_zero_is_one():
    p = xvar(1, 2)
    assert p**0 == Polynomial.constant(1, 2)


# -- properties --------------------------------------------------------------


@given(polynomials(), polynomials(), polynomials())
def test_distributivity_exact(p, q, r):
    assert (p + q) * r == p * r + q * r


@given(polynomials(), polynomials())
def test_product_evaluation_homomorphism(p, q):
    x = np.array([[0.7, -1.3, 0.4]])
    lhs = (p * q).to_double().evaluate_batch(x)[0]
    rhs = p.to_double().evaluate_batch(x)[0] * q.to_double().evaluate_batch(x)[0]
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@given(polynomials(), st.integers(1, 3), st.integers(1, 3))
def test_mixed_partials_commute(p, i, j):
    assert p.partial(i).partial(j) == p.partial(j).partial(i)


@given(st.integers(1, 3), st.integers(1, 3))
def test_disjoint_multilinear_product_is_multilinear(k1, k2):
    dim = k1 + k2
    left = Polynomial.constant(1, dim)
    for i in range(1, k1 + 1):
        left = left * xvar(i, dim)
    right = Polynomial.constant(1, dim)
    for j in range(k1 + 1, k1 + k2 + 1):
        right = right * xvar(j, dim)
    assert left.is_multilinear() and right.is_multilinear()
    assert (left * right).is_multilinear()


@given(polynomials())
def test_evaluate_batch_matches_evaluate(p):
    pts = np.array([[0.3, -0.9, 1.7], [0.0, 2.0, -1.0]])
    batch = p.evaluate_batch(pts)
    for row, val in zip(pts, batch):
        assert val == pytest.approx(float(p.evaluate(tuple(row))), rel=1e-12, abs=1e-12)


@given(polynomials(), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_evaluate_batch_does_not_depend_on_memory_order(p, rows, seed):
    # Pool blocks are column-major; the evaluator must give the same bits.
    p = p + Polynomial(3, {((1, 2), (3, 3)): Fraction(-7, 3), (): Fraction(5, 2)})
    x = np.random.default_rng(seed).standard_normal((rows, 3))
    c_order, f_order = np.ascontiguousarray(x), np.asfortranarray(x)
    assert np.array_equal(p.evaluate_batch(c_order), p.evaluate_batch(f_order))


# -- JSON text format --------------------------------------------------------


@given(polynomials())
def test_json_round_trip_rational_lossless(p):
    assert Polynomial.from_json(p.to_json()) == p


def test_json_round_trip_double():
    p = (xvar(1, 2) * xvar(2, 2)).to_double().scale(0.1)
    q = Polynomial.from_json(p.to_json())
    assert not q.exact and q == p


def test_json_decimal_string_is_exact_in_rational_mode():
    text = '{"dim": 1, "terms": [{"exps": [[1, 1]], "coef": "0.1"}]}'
    p = Polynomial.from_json(text)
    assert p.exact
    assert p.terms[((1, 1),)] == Fraction(1, 10)


def test_json_rejects_garbage():
    with pytest.raises(PreconditionError):
        Polynomial.from_json("not json")
    with pytest.raises(PreconditionError):
        Polynomial.from_json('{"terms": []}')
