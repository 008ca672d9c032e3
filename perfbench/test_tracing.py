"""Self-time accounting of the benchmark's tracer on a synthetic call tree.

    python3 -m pytest perfbench/test_tracing.py
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import Tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    tracer = Tracer(clock)

    def tick(dt):
        clock.now += dt

    def leaf():
        tick(1.0)

    def middle():
        tick(1.0)
        traced_leaf()
        tick(1.0)

    def root():
        tick(1.0)
        traced_middle()
        tick(1.0)
        traced_middle()
        traced_leaf()
        tick(2.0)

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_middle = tracer.wrap("middle", middle)
    tracer.wrap("root", root)()

    stats = tracer.stats
    assert clock.now == 11.0
    assert (stats["leaf"].calls, stats["leaf"].self_s) == (3, 3.0)
    assert (stats["middle"].calls, stats["middle"].self_s) == (2, 4.0)
    assert (stats["root"].calls, stats["root"].self_s) == (1, 4.0)
    assert sum(s.self_s for s in stats.values()) == clock.now


def test_span_closes_and_counts_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.now += 2.0
        raise ValueError("boom")

    traced_boom = tracer.wrap("boom", boom, counter=lambda a, k, r: {"n": 1})

    def outer():
        clock.now += 1.0
        with pytest.raises(ValueError):
            traced_boom()

    tracer.wrap("outer", outer)()
    assert (tracer.stats["boom"].calls, tracer.stats["boom"].self_s) == (1, 2.0)
    assert tracer.stats["boom"].counts == {}
    assert tracer.stats["outer"].self_s == 1.0


def test_install_rebinds_every_name_and_uninstall_restores():
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))
    from gamma_lab import cli, distances, measures, operators, poly, tv_bound
    from tracing import install

    before = {
        "fm": tv_bound.fortet_mourier, "alias": cli._poincare_check,
        "rmul": poly.Polynomial.__rmul__, "seq": tv_bound.SEQUENCES["chaos2"],
        "cached": measures.raw_moment,
    }
    tracer = Tracer()
    uninstall = install(tracer)
    try:
        assert tv_bound.fortet_mourier is distances.fortet_mourier
        assert tv_bound.fortet_mourier is not before["fm"]
        assert cli._poincare_check is operators.poincare_check is not before["alias"]
        assert poly.Polynomial.__rmul__ is poly.Polynomial.__mul__ is not before["rmul"]
        assert tv_bound.SEQUENCES["chaos2"] is tv_bound.pair_product_sequence
        assert measures.raw_moment is before["cached"]
        x = poly.Polynomial.variable(1, 1)
        assert 2 * x == x * 2
        assert tracer.stats["poly.mul"].calls == 2
    finally:
        uninstall()
    assert tv_bound.fortet_mourier is before["fm"]
    assert cli._poincare_check is before["alias"]
    assert poly.Polynomial.__rmul__ is before["rmul"]
    assert tv_bound.SEQUENCES["chaos2"] is before["seq"]
