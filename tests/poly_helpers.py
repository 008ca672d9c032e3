"""Polynomial builders that only the tests use."""

from gamma_lab.poly import Polynomial


def variables(dim, exact=True):
    """The list [x1, ..., x_dim]."""
    return [Polynomial.variable(i, dim, exact) for i in range(1, dim + 1)]


def occurring_variables(p):
    """Indices of the variables that occur in p's terms."""
    return {v for m in p.terms for v, _ in m}


def embed(p, var, dim):
    """The univariate polynomial p with its variable renamed x_var, in R^dim."""
    assert p.dim == 1, "embed() takes a univariate polynomial"
    return Polynomial(dim, {((var, m[0][1]),) if m else (): c for m, c in p.terms.items()},
                      p.exact)
