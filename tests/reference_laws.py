"""Densities and CDFs of the three reference families, for test oracles.

The library draws, integrates and evaluates these laws without ever needing
their density or CDF, so they live here, next to the tests that use them as
oracles (quadrature of raw moments, one-sample KS statistics), and
:mod:`gamma_lab.measures` imports numpy only.  Conventions match
:mod:`gamma_lab.measures`: gamma(r) is Gamma(r, 1) on [0, inf), and beta(a, b)
is the law of x = 1 - 2B on [-1, 1] for B ~ Beta(a, b).
"""

import math

import numpy as np
from scipy import special, stats


def support(fam):
    """The family's canonical support (lo, hi)."""
    return {"gaussian": (-math.inf, math.inf), "gamma": (0.0, math.inf)}.get(
        fam.kind, (-1.0, 1.0))


def pdf(fam, x):
    """Density of the family at x (float-valued)."""
    x = np.asarray(x, dtype=float)
    if fam.kind == "gaussian":
        return np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
    if fam.kind == "gamma":
        return stats.gamma.pdf(x, float(fam.r))
    a, b = float(fam.a), float(fam.b)
    out = np.zeros_like(x)
    inside = (x >= -1) & (x <= 1)
    z = 2.0 ** (a + b - 1) * special.beta(a, b)
    xi = x[inside]
    out[inside] = (1 - xi) ** (a - 1) * (1 + xi) ** (b - 1) / z
    return out


def cdf(fam, x):
    """CDF of the family at x (float-valued)."""
    x = np.asarray(x, dtype=float)
    if fam.kind == "gaussian":
        return special.ndtr(x)
    if fam.kind == "gamma":
        return stats.gamma.cdf(x, float(fam.r))
    # x = 1 - 2B:  P(x <= v) = P(B >= (1-v)/2)
    return stats.beta.sf((1 - x) / 2, float(fam.a), float(fam.b))
