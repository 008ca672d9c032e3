"""Operator outputs pinned to values recorded before the kernel was sped up.

``data/kernel_outputs.json`` holds, for the linear and pair-product chain
elements (n = 4, 16, 64) under five families, L Q, Gamma(Q), Gamma(Gamma(Q))
and the definition route (L(Q^2) - 2 Q LQ)/2 in double mode, plus E[Q^2].
Each polynomial is written as its float-hex coefficients in sorted monomial
order; the file keeps that text's term count and SHA-256 digest, and E[Q^2]
as float hex.  A seeded corpus of rational polynomials is kept in full:
exact L f, Gamma(f) and the spectral reconstruct() as strings.  Any change
to a coefficient, a summation order that moves a rounding, or a term that
appears or vanishes fails here.

Re-record, from the repository root: ``PYTHONPATH=src python
tests/test_kernel_records.py``.  Do so only for a change that is meant to
alter these results, and say why in CHANGES.md.
"""

import hashlib
import json
import os
import random
from fractions import Fraction

import pytest

from gamma_lab.measures import beta, expectation, gamma, gaussian
from gamma_lab.operators import (
    DiffusionOperator,
    apply_generator,
    carre_du_champ,
    carre_du_champ_from_definition,
    spectral_decompose,
)
from gamma_lab.poly import Polynomial
from gamma_lab.tv_bound import linear_sum_sequence, pair_product_sequence

PATH = os.path.join(os.path.dirname(__file__), "data", "kernel_outputs.json")
FAMILIES = {
    "gaussian": gaussian(), "beta(2,2)": beta(2, 2), "gamma(2)": gamma(2),
    "beta(2.5,3.0)": beta(2.5, 3.0), "gamma(2.5)": gamma(2.5),
}
SEQUENCES = {"linear": linear_sum_sequence, "pair": pair_product_sequence}
EXACT_FAMILIES = {"gaussian": gaussian(), "gamma(5/2)": gamma(Fraction(5, 2)),
                  "beta(2,3)": beta(2, 3)}


def _text(p: Polynomial) -> str:
    """Coefficients in sorted monomial order: exact as p/q, double as float hex."""
    def coef(c):
        return f"{c.numerator}/{c.denominator}" if isinstance(c, Fraction) else c.hex()

    return "; ".join(
        "*".join(f"x{v}^{e}" for v, e in m) + f" {coef(c)}" for m, c in p.sorted_terms()
    )


def _digest(p: Polynomial) -> list:
    return [len(p.terms), hashlib.sha256(_text(p).encode()).hexdigest()]


def chain_record(family: str, sequence: str) -> dict:
    fam = FAMILIES[family]
    out = {}
    for n in (4, 16, 64):
        q = SEQUENCES[sequence](fam, n)
        op = DiffusionOperator(fam, q.dim)
        gq = carre_du_champ(op, q)
        out[str(n)] = {
            "L": _digest(apply_generator(op, q)),
            "gamma": _digest(gq),
            "gamma_gamma": _digest(carre_du_champ(op, gq)),
            "gamma_def": _digest(carre_du_champ_from_definition(op, q)),
            "e_q2": float(expectation(q * q, op.family)).hex(),
        }
    return out


def exact_corpus() -> list[Polynomial]:
    rng = random.Random(2024)
    corpus = []
    for _ in range(4):
        terms = {}
        for _ in range(6):
            present = sorted(rng.sample((1, 2, 3), rng.randint(0, 3)))
            mono = tuple((v, rng.randint(1, 2)) for v in present)
            terms[mono] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                                   rng.randint(1, 7))
        corpus.append(Polynomial(3, terms))
    return corpus


def exact_record(family: str) -> list:
    fam = EXACT_FAMILIES[family]
    op = DiffusionOperator(fam, 3)
    return [
        {"f": _text(f), "L": _text(apply_generator(op, f)),
         "gamma": _text(carre_du_champ(op, f)),
         "reconstruct": _text(spectral_decompose(op, f).reconstruct())}
        for f in exact_corpus()
    ]


def _recorded():
    with open(PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("sequence", SEQUENCES)
def test_chain_operator_outputs_match_record(family, sequence):
    assert chain_record(family, sequence) == _recorded()["chain"][f"{family}/{sequence}"]


@pytest.mark.parametrize("family", EXACT_FAMILIES)
def test_exact_operator_outputs_match_record(family):
    assert exact_record(family) == _recorded()["exact"][family]


if __name__ == "__main__":
    record = {
        "chain": {f"{f}/{s}": chain_record(f, s) for f in FAMILIES for s in SEQUENCES},
        "exact": {f: exact_record(f) for f in EXACT_FAMILIES},
    }
    with open(PATH, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
