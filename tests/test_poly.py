"""Exact sparse polynomial arithmetic."""

import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gamma_lab.errors import DimensionMismatchError, PreconditionError
from gamma_lab.measures import beta, expectation, gamma, gaussian, raw_moment
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
    assert Polynomial.from_json(json.dumps(p.to_json_dict())) == p


def test_json_round_trip_double():
    p = (xvar(1, 2) * xvar(2, 2)).to_double().scale(0.1)
    q = Polynomial.from_json(json.dumps(p.to_json_dict()))
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


def test_mixed_mode_prunes_exact_coefficients_that_underflow():
    # 10^-400 converts to 0.0 in a double result and is never stored.
    tiny = Polynomial(1, {((1, 1),): Fraction(1, 10**400), (): 1})
    d = Polynomial(1, {((1, 2),): 0.5}, exact=False)
    assert (tiny + d).terms == {(): 1.0, ((1, 2),): 0.5}
    assert list((d + tiny).terms) == [((1, 2),), ()]
    assert (tiny * d).terms == {((1, 2),): 0.5}
    assert tiny.to_double().terms == {(): 1.0}
    assert tiny.scale(0.5).terms == {(): 0.5}


def test_mixed_mode_beyond_float_range_is_a_precondition_error():
    huge = Polynomial(1, {((1, 1),): 10**400})
    d = Polynomial(1, {(): 0.5}, exact=False)
    for op in (lambda: huge + d, lambda: d * huge, huge.to_double):
        with pytest.raises(PreconditionError, match="beyond float range"):
            op()


# -- constructor and term view ---------------------------------------------


@pytest.mark.parametrize("terms, expected", [
    ({((1, 1), (2, 1)): 1, ((2, 1), (1, 1)): 1}, [(((1, 1), (2, 1)), 2)]),
    ({((1, 1), (1, 1)): 2, ((1, 2),): 3}, [(((1, 2),), 5)]),
    ({((1, 0),): 2, (): 3}, [((), 5)]),
    ({((1, 1),): 2, (): 3, ((1, 1), (2, 0)): -2}, [((), 3)]),
    # A sum that reaches zero is deleted; the monomial comes back last.
    ({((1, 1),): 1, (): 2, ((1, 1), (2, 0)): -1, ((1, 0), (1, 1)): 4},
     [((), 2), (((1, 1),), 4)]),
])
@pytest.mark.parametrize("exact", [True, False])
def test_constructor_adds_keys_naming_one_monomial(terms, expected, exact):
    p = Polynomial(2, terms, exact)
    assert list(p.terms.items()) == expected
    assert p == Polynomial(2, dict(expected), exact)


@pytest.mark.parametrize("exact", [True, False])
def test_terms_is_read_only(exact):
    p = Polynomial(2, {((1, 1),): 2, (): 1}, exact)
    with pytest.raises(TypeError):
        p.terms[()] = 5
    with pytest.raises(TypeError):
        del p.terms[()]
    assert list(p.terms.items()) == [(((1, 1),), 2), ((), 1)]


# -- equivalence with a Fraction-dict reference ------------------------------
# The exact ring as a map from monomials to Fraction, with the kernel's loops
# and term order: each result must equal it, coefficients and order alike.


def ref_add(a, b):
    out = dict(a)
    for m, c in b.items():
        s = out.get(m)
        if s is None:
            out[m] = c
        elif s + c:
            out[m] = s + c
        else:
            del out[m]
    return out


def ref_mono_mul(m1, m2):
    merged = dict(m1)
    for v, p in m2:
        merged[v] = merged.get(v, 0) + p
    return tuple(sorted(merged.items()))


def ref_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = ref_mono_mul(m1, m2)
            s = c1 * c2 if m not in out else out[m] + c1 * c2
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def ref_neg(a):
    return {m: -c for m, c in a.items()}


def ref_partial(a, i):
    out = {}
    for m, c in a.items():
        for j, (v, p) in enumerate(m):
            if v == i:
                out[m[:j] + (((i, p - 1),) if p > 1 else ()) + m[j + 1:]] = c * p
    return out


def ref_pow(a, k):
    result, base = {(): Fraction(1)}, a
    while k:
        if k & 1:
            result = ref_mul(result, base)
        base = ref_mul(base, base) if k > 1 else base
        k >>= 1
    return result


def ref_compose(outer, inner):
    coeffs = {m[0][1] if m else 0: c for m, c in outer.items()}
    result = {}
    for k in range(max(coeffs, default=-1), -1, -1):
        c = coeffs.get(k, 0)
        result = ref_add(ref_mul(result, inner), {(): c} if c else {})
    return result


def ref_expectation(a, family):
    total = Fraction(0)
    for m, c in a.items():
        for _, p in m:
            c *= raw_moment(family, p)
        total += c
    return total


def items(p):
    return list(p.terms.items())


@given(polynomials(), polynomials(), coefficients, st.integers(1, 3), st.integers(0, 3))
def test_exact_kernel_matches_fraction_reference(p, q, factor, i, k):
    a, b = dict(p.terms), dict(q.terms)
    assert items(p + q) == list(ref_add(a, b).items())
    assert items(p - q) == list(ref_add(a, ref_neg(b)).items())
    assert items(-p) == list(ref_neg(a).items())
    assert items(p * q) == list(ref_mul(a, b).items())
    assert items(p.scale(factor)) == (
        [] if factor == 0 else [(m, c * factor) for m, c in a.items()])
    assert items(p.partial(i)) == list(ref_partial(a, i).items())
    assert items(p**k) == list(ref_pow(a, k).items())
    assert items(p.to_double()) == [(m, float(c)) for m, c in a.items()]
    for family in (gaussian(), gamma(Fraction(5, 2)), beta(2, 3)):
        assert expectation(p, family) == ref_expectation(a, family)


@given(polynomials(dim=1), polynomials(), st.integers(1, 3))
def test_univariate_kernel_matches_fraction_reference(phi, q, var):
    a = dict(phi.terms)
    assert items(phi.compose(q)) == list(ref_compose(a, dict(q.terms)).items())
    assert items(phi.embed(var, 3)) == [
        (((var, m[0][1]),) if m else (), c) for m, c in a.items()]


@given(polynomials())
def test_equality_and_hash_agree_across_modes(p):
    d = p.to_double()
    representable = all(float(c) == c for c in p.terms.values())
    assert (p == d) is representable and (d == p) is representable
    if representable:
        assert hash(p) == hash(d)
    twin = Polynomial(3, dict(p.terms))
    assert twin == p and hash(twin) == hash(p)
    dyadic = p.scale(3)  # the strategy's denominators are 1..4
    assert dyadic == dyadic.to_double() and hash(dyadic) == hash(dyadic.to_double())


# -- the exact kernel builds a Fraction only where a coefficient is read -----


@pytest.fixture
def fraction_builds(monkeypatch):
    """A one-item list counting calls of Fraction.__new__."""
    count = [0]
    build = Fraction.__new__

    def counting(cls, *args, **kwargs):
        count[0] += 1
        return build(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    return count


def twelve_term_polynomial(rng, dim=6, degrees=(4, 4, 3, 3, 3, 2, 2, 2, 2, 1, 1, 0)):
    terms = {}
    for degree in degrees:
        while True:
            exps = [0] * dim
            for _ in range(degree):
                exps[rng.randrange(dim)] += 1
            mono = tuple((v + 1, e) for v, e in enumerate(exps) if e)
            if mono not in terms:
                break
        terms[mono] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))
    return Polynomial(dim, terms)


def test_exact_ring_operations_build_no_fraction(fraction_builds):
    rng = random.Random(5)
    p, q = twelve_term_polynomial(rng), twelve_term_polynomial(rng)
    fraction_builds[0] = 0
    product = p * q
    assert fraction_builds[0] == 0
    p + q, p - q, -p, p.partial(1), product.partial(2)
    assert len(p.terms) == 12 and len(product.terms) > 12
    assert fraction_builds[0] == 0


def test_exact_expectation_builds_one_fraction_per_denominator(fraction_builds):
    rng = random.Random(6)
    p = twelve_term_polynomial(rng) * twelve_term_polynomial(rng)
    for family in (gaussian(), gamma(Fraction(5, 2)), beta(2, 3)):
        expected = expectation(p, family)  # fills the moment cache
        per_term = [ref_expectation({m: c}, family) for m, c in p.terms.items()]
        denominators = {e.denominator for e in per_term if e}
        fraction_builds[0] = 0
        assert expectation(p, family) == expected
        assert fraction_builds[0] <= len(denominators) + 1
