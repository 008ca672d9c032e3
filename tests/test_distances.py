"""Distance estimators: Kolmogorov, total variation, Fortet-Mourier."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.stats import kstwobign

from gamma_lab import distances
from gamma_lab.distances import (
    AnalyticLaw,
    SampleSet,
    bounded_lipschitz_grid_value,
    fortet_mourier,
    functional_samples,
    histogram_tv_floor,
    kolmogorov,
    total_variation,
)
from gamma_lab.errors import PreconditionError
from gamma_lab.measures import beta, gamma, gaussian
from gamma_lab.poly import Polynomial, variables
from gamma_lab.sampling import CHUNK_ROWS, derive_seed
from gamma_lab.tv_bound import (
    linear_sum_sequence,
    pair_product_sequence,
    run_chain_replicate,
)

KS_CRIT_1PCT = float(kstwobign.ppf(0.99))


def gaussian_samples(n, seed, loc=0.0, scale=1.0):
    rng = np.random.default_rng(seed)
    return SampleSet(loc + scale * rng.standard_normal(n))


# -- Kolmogorov ---------------------------------------------------------------


def test_kolmogorov_identical_sample_sets():
    s = gaussian_samples(10_000, 1)
    assert kolmogorov(s, s).estimate == 0.0


@pytest.mark.parametrize("n", [1, 5, 10, 50])
def test_kolmogorov_cos2_vs_uniform(n):
    # oracle: sup |sin(2nx)|/(2 pi n) = 1/(2 pi n), attained at x = pi/(4n)
    report = kolmogorov(AnalyticLaw.cos2(n), AnalyticLaw.uniform_0_pi())
    assert report.estimate == pytest.approx(1 / (2 * math.pi * n), abs=1e-9)


def test_kolmogorov_two_sample_same_law_below_critical():
    nx = ny = 100_000
    d = kolmogorov(gaussian_samples(nx, 2), gaussian_samples(ny, 3)).estimate
    assert d < KS_CRIT_1PCT * math.sqrt((nx + ny) / (nx * ny))


def test_kolmogorov_mixed_matches_analytic_law():
    s = gaussian_samples(100_000, 4)
    d = kolmogorov(s, AnalyticLaw.gaussian()).estimate
    assert d < KS_CRIT_1PCT / math.sqrt(s.n)


def test_kolmogorov_symmetry():
    a, b = gaussian_samples(5_000, 5), gaussian_samples(5_000, 6, loc=0.3)
    assert kolmogorov(a, b).estimate == kolmogorov(b, a).estimate


# -- total variation -------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 5, 10, 50])
def test_tv_cos2_vs_uniform(n):
    # oracle: (1/2) int |(2/pi)cos^2(nx) - 1/pi| dx = 1/pi by periodicity
    report = total_variation(AnalyticLaw.cos2(n), AnalyticLaw.uniform_0_pi())
    assert report.estimate == pytest.approx(1 / math.pi, abs=1e-6)


def test_tv_identical_laws_analytic():
    u = AnalyticLaw.uniform_0_pi()
    assert total_variation(u, u).estimate == pytest.approx(0.0, abs=1e-9)


def test_tv_equal_laws_integrate_one_piece(monkeypatch):
    # f - g is zero at every grid point: no point is a crossing, so [0, pi]
    # is one piece, not 128 n + 1 of them.
    law = AnalyticLaw.cos2(1083)
    quad, calls = distances._quad, []

    def counted(*args, **kwargs):
        calls.append(args)
        if len(calls) > 2:
            pytest.fail("more than 2 quadratures for two equal laws")
        return quad(*args, **kwargs)

    monkeypatch.setattr(distances, "_quad", counted)
    assert total_variation(law, law).estimate == 0.0


def test_tv_equal_law_empirical_small():
    a, b = gaussian_samples(1_000_000, 7), gaussian_samples(1_000_000, 8)
    report = total_variation(a, b)
    assert report.method == "histogram"
    assert report.estimate <= 0.02


def test_tv_disjoint_narrow_gaussians_saturate():
    lo = AnalyticLaw.gaussian(0.0, 1e-3)
    hi = AnalyticLaw.gaussian(1.0, 1e-3)
    assert total_variation(lo, hi).estimate == pytest.approx(1.0, abs=1e-3)


def test_histogram_tv_floor_tracks_equal_law_tv():
    # Equal laws: the histogram TV is pure noise, and the split-half floor of
    # the reference, on the same bins, estimates its size.
    tvs, floors = [], []
    for s in range(20):
        ref = gaussian_samples(100_000, 500 + s)
        report = total_variation(gaussian_samples(100_000, 100 + s), ref)
        tvs.append(report.estimate)
        floors.append(histogram_tv_floor(ref, report))
    assert 0.8 < np.median(floors) / np.median(tvs) < 1.25
    point = SampleSet(np.zeros(5))
    assert histogram_tv_floor(point, total_variation(point, point)) == 0.0


def test_tv_histogram_consistency_trend():
    # medians over 20 seeds shrink as n grows (estimator consistency on equal laws)
    medians = []
    for n in (1_000, 10_000, 100_000, 1_000_000):
        vals = [
            total_variation(
                gaussian_samples(n, 100 + s), gaussian_samples(n, 500 + s)
            ).estimate
            for s in range(20)
        ]
        medians.append(float(np.median(vals)))
    assert all(b < a for a, b in zip(medians, medians[1:]))


def test_tv_kol_dominance_analytic():
    pairs = [
        (AnalyticLaw.cos2(3), AnalyticLaw.uniform_0_pi()),
        (AnalyticLaw.gaussian(0, 1), AnalyticLaw.gaussian(0.4, 1.3)),
    ]
    for x, y in pairs:
        assert kolmogorov(x, y).estimate <= total_variation(x, y).estimate + 1e-9


# -- Fortet-Mourier ----------------------------------------------------------------


def test_fm_point_masses():
    # oracle: two-point dual value min(2, |x - y|), here 1 and 0.5
    zero = SampleSet(np.zeros(100))
    one = SampleSet(np.ones(100))
    half = SampleSet(np.full(100, 0.5))
    r1 = fortet_mourier(zero, one)
    r2 = fortet_mourier(zero, half)
    assert r1.estimate == pytest.approx(1.0, abs=2 * r1.uncertainty)
    assert r2.estimate == pytest.approx(0.5, abs=2 * r2.uncertainty)


def test_fm_identical_and_degenerate():
    s = gaussian_samples(1_000, 9)
    assert fortet_mourier(s, s).estimate == 0.0
    point = SampleSet(np.zeros(5))
    report = fortet_mourier(point, point)
    assert report.estimate == 0.0 and report.params.get("degenerate")


def test_range_wider_than_float_range_is_a_precondition():
    wide = SampleSet(np.array([-1e308, 0.0, 1e308, 5.0]))
    narrow = SampleSet(np.array([1.0, 2.0, 3.0, 4.0]))
    for metric, y in ((total_variation, narrow), (total_variation, AnalyticLaw.gaussian()),
                      (fortet_mourier, narrow)):
        with pytest.raises(PreconditionError, match=r"\[-1e\+308, 1e\+308\]"):
            metric(wide, y)
    # A span that fits but whose padded fm grid does not.
    edge = SampleSet(np.array([-8.9e307, 8.9e307]))
    assert total_variation(edge, edge).estimate == 0.0
    with pytest.raises(PreconditionError, match="fm grid"):
        fortet_mourier(edge, edge)


def test_fm_far_apart_saturates_at_two():
    a = SampleSet(np.zeros(50))
    b = SampleSet(np.full(50, 100.0))
    r = fortet_mourier(a, b)
    assert r.estimate == pytest.approx(2.0, abs=2 * r.uncertainty)


def test_fm_below_w1_upper_bound():
    a, b = gaussian_samples(20_000, 10), gaussian_samples(20_000, 11, loc=0.5)
    report = fortet_mourier(a, b)
    assert report.estimate <= report.params["w1_upper"] + report.uncertainty


def test_fm_symmetry_and_nonnegativity():
    a, b = gaussian_samples(5_000, 12), gaussian_samples(5_000, 13, scale=1.4)
    ab, ba = fortet_mourier(a, b), fortet_mourier(b, a)
    assert ab.estimate >= 0
    assert ab.estimate == pytest.approx(ba.estimate, abs=1e-12)


def test_grid_dual_matches_linear_program():
    # oracle: generic LP solver on the same discretized dual
    rng = np.random.default_rng(99)
    for _ in range(10):
        n = int(rng.integers(3, 60))
        step = float(rng.uniform(0.005, 0.5))
        w = rng.dirichlet(np.ones(n)) - rng.dirichlet(np.ones(n))
        a_ub = np.zeros((2 * (n - 1), n))
        for j in range(n - 1):
            a_ub[2 * j, [j, j + 1]] = (-1, 1)
            a_ub[2 * j + 1, [j, j + 1]] = (1, -1)
        res = linprog(
            -w, A_ub=a_ub, b_ub=np.full(2 * (n - 1), step),
            bounds=[(-1, 1)] * n, method="highs",
        )
        assert res.status == 0
        dp = bounded_lipschitz_grid_value(w, step)
        assert dp == pytest.approx(-res.fun, abs=1e-9)


# -- the in-place grid dual against the reference -------------------------------
# The grid dual as it was written before it kept its breakpoints in place:
# one array per step from concatenate, np.interp at the clip edges.  The
# kernel must return its value to the bit, the sign of zero included.


def reference_grid_value(w, step):
    w = np.asarray(w, dtype=float)
    nz = np.flatnonzero(w)
    if nz.size == 0:
        return 0.0
    xs = np.array([-1.0, 1.0])
    vs = w[nz[-1]] * xs
    prev = nz[-1]
    for j in nz[-2::-1]:
        xs, vs = reference_window_max_clip(xs, vs, (prev - j) * step)
        vs = vs + w[j] * xs
        prev = j
    return float(vs.max())


def reference_window_max_clip(xs, vs, halfwidth):
    vmax = vs.max()
    peak = np.flatnonzero(vs == vmax)
    k_lo, k_hi = peak[0], peak[-1]
    new_xs = np.concatenate(
        [xs[:k_lo] - halfwidth,
         [xs[k_lo] - halfwidth, xs[k_hi] + halfwidth],
         xs[k_hi + 1:] + halfwidth]
    )
    new_vs = np.concatenate([vs[:k_lo], [vmax, vmax], vs[k_hi + 1:]])
    lo_val = np.interp(-1.0, new_xs, new_vs)
    hi_val = np.interp(1.0, new_xs, new_vs)
    inside = (new_xs > -1.0) & (new_xs < 1.0)
    out_xs = np.concatenate([[-1.0], new_xs[inside], [1.0]])
    out_vs = np.concatenate([[lo_val], new_vs[inside], [hi_val]])
    return out_xs, out_vs


def assert_grid_value_matches_reference(w, step):
    got, want = bounded_lipschitz_grid_value(w, step), reference_grid_value(w, step)
    assert np.float64(got).tobytes() == np.float64(want).tobytes(), (got, want)


@st.composite
def grid_weights(draw):
    """Weights with runs of zeros and repeated values, some rounded to a
    few binary digits so that sums tie at the peak or cancel to zero, some
    a few multiples of the smallest subnormal, so that products underflow
    and value functions peak at zeros of either sign."""
    n = draw(st.integers(1, 80))
    digits = draw(st.sampled_from([None, 1, 2, 4]))
    unit = draw(st.sampled_from([1.0, 5e-324]))
    values = st.floats(-1.0, 1.0, allow_subnormal=False)
    w = []
    while len(w) < n:
        run = draw(st.integers(1, 6))
        kind = draw(st.integers(0, 2))
        value = 0.0 if kind == 0 else draw(values)
        if digits is not None:
            value = round(value * 2**digits) / 2**digits
        value *= unit
        w.extend([value] * run if kind < 2 else [value, -value] * run)
    return np.array(w[:n])


@settings(max_examples=600)
@given(grid_weights(), st.floats(1e-3, 3.0))
def test_grid_dual_matches_reference(w, step):
    assert_grid_value_matches_reference(w, step)


def test_grid_dual_matches_reference_on_ties_and_zero_peaks():
    # Equal weights of both signs: the value functions peak on a run of
    # equal breakpoints, and at exactly zero.
    for w in ([0.5, -0.5], [0.25, 0.0, 0.0, -0.25, 0.25, -0.25],
              [1.0, -1.0, 1.0, -1.0], [0.0, 0.5, 0.5, -0.5, -0.5, 0.0]):
        for step in (1e-3, 0.25, 0.5, 1.0, 3.0):
            assert_grid_value_matches_reference(np.array(w), step)
            assert_grid_value_matches_reference(-np.array(w), step)


@pytest.mark.parametrize("name, fam, builder", [
    ("linear/gaussian", gaussian(), linear_sum_sequence),
    ("chaos2/gaussian", gaussian(), pair_product_sequence),
    ("linear/gamma(2)", gamma(2), linear_sum_sequence),
    ("linear/beta(2,2)", beta(2, 2), linear_sum_sequence),
])
def test_grid_dual_matches_reference_on_chain_columns(name, fam, builder, monkeypatch):
    # The FM weight vectors of one replicate of each chain suite of the
    # acceptance criterion-08 experiment (10^6 samples, n = 4, 16, 64).
    calls = []

    def record(w, step):
        calls.append((w.copy(), step))
        return bounded_lipschitz_grid_value(w, step)

    monkeypatch.setattr(distances, "bounded_lipschitz_grid_value", record)
    seed = derive_seed(0, "acceptance-chain", name, 0)
    run_chain_replicate(lambda n: builder(fam, n), fam, [4, 16, 64], 1_000_000, seed,
                        threads=2)
    assert len(calls) == 3
    for w, step in calls:
        assert_grid_value_matches_reference(w, step)


# -- polynomial functionals ------------------------------------------------------


def test_functional_samples_standard_normal_law():
    q = Polynomial.variable(1, 1)
    s = functional_samples(q, gaussian(), 200_000, seed=4)
    d = kolmogorov(s, AnalyticLaw.gaussian()).estimate
    assert d < KS_CRIT_1PCT / math.sqrt(s.n)


def test_functional_samples_constant():
    q = Polynomial.constant(5, dim=2)
    s = functional_samples(q, gaussian(), 1_000, seed=3)
    assert np.all(s.values == 5.0)


def test_functional_samples_stable_linear_combination():
    # (x1 + ... + x100)/10 is again standard normal
    dim = 100
    scale = 0.1
    q = Polynomial(dim, {((i, 1),): scale for i in range(1, dim + 1)}, exact=False)
    s = functional_samples(q, gaussian(), 200_000, seed=5)
    d = kolmogorov(s, AnalyticLaw.gaussian()).estimate
    assert d < KS_CRIT_1PCT / math.sqrt(s.n)


def test_functional_samples_deterministic():
    q = variables(2)[0] * variables(2)[1]
    fam = gaussian()
    s1 = functional_samples(q, fam, 10_000, seed=8)
    s2 = functional_samples(q, fam, 10_000, seed=8)
    assert np.array_equal(s1.values, s2.values)


def test_empty_sample_set_rejected():
    with pytest.raises(PreconditionError):
        SampleSet(np.array([]))


@pytest.mark.parametrize("values", [[0.0, math.nan], [math.inf], [1.0, -math.inf]],
                         ids=["nan", "inf", "-inf"])
def test_non_finite_sample_set_rejected(values):
    with pytest.raises(PreconditionError, match="non-finite sample value"):
        SampleSet(values)


def test_sample_set_adopts_read_only_owned_array():
    values = np.random.default_rng(3).standard_normal(1001)
    values.flags.writeable = False
    s = SampleSet(values)
    assert s.values is values
    assert np.shares_memory(s.values, values)


@pytest.mark.parametrize("make", [
    lambda: np.linspace(-1.0, 1.0, 1001),
    lambda: np.linspace(-1.0, 1.0, 1001).reshape(7, 143),
    lambda: np.linspace(-1.0, 1.0, 1001)[::2],
    lambda: np.arange(1001),
], ids=["writeable", "2-d", "strided-view", "int"])
def test_sample_set_copies_what_it_cannot_adopt(make):
    values = make()
    s = SampleSet(values)
    assert not np.shares_memory(s.values, values)
    assert values.flags.writeable  # the caller's array is never frozen
    assert not s.values.flags.writeable
    assert s.values.dtype == np.float64 and s.values.ndim == 1
    assert np.array_equal(s.values, values.ravel())


def test_sample_set_copies_read_only_view():
    # A read-only view of a writeable array could change under the set.
    base = np.linspace(-1.0, 1.0, 1001)
    view = base[:]
    view.flags.writeable = False
    assert not np.shares_memory(SampleSet(view).values, base)


def test_sliced_grid_masses_equal_one_shot():
    # Values exactly on grid points and halfway between them (rint ties),
    # over a length that is not a multiple of the slice.
    grid = np.linspace(-3.0, 5.0, 2048)
    step = float(grid[1] - grid[0])
    rng = np.random.default_rng(7)
    n = 2 * CHUNK_ROWS + 12345
    k = rng.integers(0, grid.size - 1, n)
    values = np.where(rng.random(n) < 0.5, grid[k], (grid[k] + grid[k + 1]) / 2)
    one_shot = np.bincount(
        np.clip(np.rint((values - grid[0]) / step).astype(np.int64), 0, grid.size - 1),
        minlength=grid.size,
    ) / n
    masses = distances._grid_masses(SampleSet(values), grid, step)
    assert np.array_equal(masses, one_shot)


def test_custom_law_must_normalize():
    with pytest.raises(PreconditionError):
        AnalyticLaw("custom", lambda x: np.full_like(np.asarray(x, float), 2.0),
                    None, (0.0, 1.0))


def test_custom_law_slightly_off_mass_is_refused():
    # 1.001 x a density: far outside quad's tolerance plus its error estimate.
    def pdf(x):
        x = np.asarray(x, float)
        return np.where((x >= 0.0) & (x <= 1.0), 1.001, 0.0)

    with pytest.raises(PreconditionError, match="integrates to 1.001"):
        AnalyticLaw("custom", pdf, None, (0.0, 1.0))
