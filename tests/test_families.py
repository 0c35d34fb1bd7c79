"""Family functionals, disk sampling, and membership verdicts."""

import tracemalloc
import warnings

import numpy as np
import pytest

from gftkit import (
    DiskSampler,
    Family,
    FunctionExpr,
    QFunction,
    functional_value,
    injectivity_spot_check,
    membership,
    order_estimate,
    parse,
    schwarzian_norm,
    verify_inclusions,
    verify_sufficiency,
)
from gftkit import catalog, numerics
from gftkit.catalog import get_entry
from gftkit.cli import main
from gftkit.families import GridField
from gftkit.errors import (
    DivisionAtZero,
    EvaluationFailed,
    LocallyNonUnivalent,
    UnivalenceNotChecked,
)


# -- functional values at hand-checked points --------------------------------
# Koebe: 1 + zf''/f' = (z^2+4z+1)/(1-z^2), zf'/f = (1+z)/(1-z)


def test_koebe_functionals_exact_rationals():
    k = get_entry("koebe").expr
    assert functional_value(k, Family.C, 0.25) == pytest.approx(33 / 15, abs=1e-13)
    assert functional_value(k, Family.C, -0.5) == pytest.approx(-1.0, abs=1e-13)
    assert functional_value(k, Family.SSTAR, 0.25) == pytest.approx(5 / 3, abs=1e-13)
    assert functional_value(k, Family.SSTAR, -0.5) == pytest.approx(1 / 3, abs=1e-13)


def test_mobius_pole_functionals_are_constant_one_and_cayley():
    g = get_entry("mobius_pole").expr  # (1-z)/z
    z = 0.3 - 0.4j
    assert functional_value(g, Family.BC, z) == pytest.approx(1.0, abs=1e-13)
    # -Re(zg'/g) = Re(1/(1-z))
    want = (1.0 / (1.0 - z)).real
    assert functional_value(g, Family.BSSTAR, z) == pytest.approx(want, abs=1e-13)


def test_inverse_convex_functional_closed_form():
    # g = z + 1/z - 2 gives 1 - 2z(z+2)/(z^2-1); zero exactly at -r0
    g = get_entry("koebe_reciprocal").expr
    r0 = 2.0 - np.sqrt(3.0)
    assert abs(functional_value(g, Family.BCI, -r0)) <= 1e-12
    for z in (0.3, 0.2j, -0.1 - 0.25j):
        want = (1.0 - 2.0 * z * (z + 2.0) / (z * z - 1.0)).real
        assert functional_value(g, Family.BCI, z) == pytest.approx(want, abs=1e-12)


def test_pole_normalized_families_take_limit_one_at_origin():
    g = get_entry("quarter_pole").expr
    assert functional_value(g, Family.BC, 0.0) == 1.0
    assert functional_value(g, Family.BSSTAR, 0.0) == 1.0
    # near the pole the functional approaches the limit quadratically
    for th in (0.0, 1.0, 2.5):
        v = functional_value(g, Family.BC, 1e-3 * np.exp(1j * th))
        assert abs(v - 1.0) <= 1e-4


def test_a_derivative_beyond_float_range_is_not_a_zero():
    # |f'| = 1.5e308 * sqrt(2) overflows abs(): far from zero, not a traceback
    f = parse("1.5e308*z + 1.5e308*i*z")
    assert functional_value(f, Family.C, 0.5) == 1.0


def test_analytic_families_are_not_patched_at_zero():
    k = get_entry("koebe").expr
    # Re(1 + 0) = 1 comes out of the arithmetic for convexity ...
    assert functional_value(k, Family.C, 0.0) == 1.0
    # ... but the starlike quotient zf'/f is 0/0 there
    with pytest.raises(DivisionAtZero):
        functional_value(k, Family.SSTAR, 0.0)


def test_scalar_critical_point_raises():
    with pytest.raises(LocallyNonUnivalent):
        functional_value(parse("z + z^2"), Family.C, -0.5)


def test_array_input_masks_instead_of_raising():
    k = get_entry("koebe").expr
    vals = functional_value(k, Family.SSTAR, np.array([0.25, 0.0, -0.5]))
    assert vals[0] == pytest.approx(5 / 3)
    assert np.isnan(vals[1])
    assert vals[2] == pytest.approx(1 / 3)


# -- sampler ------------------------------------------------------------------


def test_sampler_radii_reach_r_max_geometrically():
    s = DiskSampler(r_max=0.999, rings=64, points_per_ring=512)
    r = s.radii()
    assert r.shape == (64,)
    assert np.all(np.diff(r) > 0)
    assert r[-1] == pytest.approx(0.999, abs=1e-15)
    # each block of rings halves the remaining distance to the boundary
    gaps = 1.0 - r
    assert gaps[0] > 0.3  # coverage of the inner disk too


def test_sampler_excludes_declared_singularities():
    s = DiskSampler(rings=16, points_per_ring=64)
    pts = s.points(singular_points=(0.5,), exclusion_radius=0.05)
    assert pts.size > 0
    assert np.min(np.abs(pts)) >= 1e-3
    assert np.min(np.abs(pts - 0.5)) >= 0.05


def _every_point_tested(radii, phases, centers, radius):
    """ring_points as it tested every point against every centre."""
    z = (radii[:, None] * phases[None, :]).ravel()
    far = [np.abs(z - complex(c)) >= radius for c in centers]
    return z[np.logical_and.reduce(far)] if far else z


def test_balls_are_tested_only_on_the_rings_they_reach():
    rng = np.random.default_rng(26)
    for draw in range(1000):
        radius = 10.0 ** rng.uniform(-4, -0.5)
        centers = [0.0, *(rng.uniform(0, 1) * np.exp(2j * np.pi * rng.uniform())
                          for _ in range(rng.integers(0, 3)))]
        if draw % 3 == 0:
            centers.append(0j)  # a b-form lists the origin twice
        radii = np.sort(rng.uniform(0, 1, rng.integers(1, 9)))
        c = complex(centers[-1])
        if draw % 2:  # a ring at exactly the radius from a centre's circle
            radii[0] = abs(c) + radius
        phases = np.exp(1j * (rng.uniform() + 2 * np.pi * np.arange(16) / 16))
        got = numerics.ring_points(radii, phases, centers, radius)
        want = _every_point_tested(radii, phases, centers, radius)
        assert got.tobytes() == want.tobytes(), draw
    # the Schwarzian norm's first ring lies inside the origin's ball
    radii, phases = np.linspace(1e-4, 1 - 1e-4, 64), np.exp(2j * np.pi * np.arange(512) / 512)
    for centers in ((0j,), (0.0, 0j), (0.0, 0.5)):
        got = numerics.ring_points(radii, phases, centers, 1e-3)
        assert got.tobytes() == _every_point_tested(radii, phases, centers, 1e-3).tobytes()
    assert got.size == 63 * 512 - np.sum(np.abs(radii[:, None] * phases - 0.5) < 1e-3)


def test_sampler_validation():
    with pytest.raises(ValueError):
        DiskSampler(r_max=1.0)
    with pytest.raises(ValueError):
        DiskSampler(exclusion_radius=0.0)
    with pytest.raises(ValueError):
        DiskSampler(points_per_ring=2)


# -- membership verdicts -------------------------------------------------------


@pytest.mark.filterwarnings("ignore::gftkit.errors.UnivalenceNotChecked")
def test_grid_and_pointwise_functionals_share_one_formula():
    # a grid witness re-evaluated on a one-point array gives its value bit for bit
    # (the scalar path evaluates the jet differently and may differ in the last bits)
    checked = 0
    for entry in catalog.entries():
        for fam in Family:
            v = membership(entry.expr, fam, 0.0)
            if v.witness == 0:  # the pole-normalized families' limit at the origin
                continue
            value = functional_value(entry.expr, fam, np.array([v.witness]))[0]
            assert value == v.witness_value, (entry.name, fam.value)
            checked += 1
    assert checked >= 50


def test_a_one_point_functional_is_the_one_element_arrays():
    # one point runs as a one-element array; only the raises at f' = 0 and f = 0 differ
    zs = [0.3 + 0.4j, np.complex128(-0.5 + 0.1j), 0.95, 0.05j, complex(-0.2, -0.0), 0.0]
    for entry in catalog.entries():
        f = entry.expr
        for fam in Family:
            for z in zs:
                try:
                    got = functional_value(f, fam, z)
                except (LocallyNonUnivalent, DivisionAtZero):
                    continue
                want = functional_value(f, fam, np.array([z]))
                assert type(got) is float
                assert np.float64(got).tobytes() == want.tobytes()


@pytest.mark.filterwarnings("ignore::gftkit.errors.UnivalenceNotChecked")
@pytest.mark.parametrize("name", catalog.names())
def test_a_polished_minimum_is_the_functional_at_its_point(name):
    # the polish probes on arrays, as the grid does: it never rounds below the
    # grid minimum by arithmetic alone, and its point reproduces its value
    f = get_entry(name).expr
    field = GridField(f)
    for fam in Family:
        value, point = field.polished(fam)
        assert value <= field._extremum(fam).best("grid points")[0], fam.value
        again = functional_value(f, fam, np.array([point]))[0]
        assert again.tobytes() == np.float64(value).tobytes(), fam.value


def test_a_singular_hit_at_one_point_is_nan_as_on_arrays():
    # the pole of z/4 + 1/z at 0 is inside the tree: no raise, as on a grid
    f = get_entry("quarter_pole").expr
    assert np.isnan(functional_value(f, Family.C, 0.0))
    assert np.isnan(functional_value(f, Family.C, np.array([0.0]))[0])
    assert functional_value(f, Family.BC, 0.0) == 1.0  # the pole-normalized limit


def test_koebe_is_not_convex_witness_on_negative_axis():
    v = membership(get_entry("koebe").expr, Family.C, 0.0)
    assert not v.holds_on_samples
    assert v.margin < -100  # the functional plunges near z = -1
    assert v.witness.real < -0.99 and abs(v.witness.imag) < 1e-2


def test_koebe_is_starlike_of_order_zero_exactly():
    v = membership(get_entry("koebe").expr, Family.SSTAR, 0.0)
    assert v.holds_on_samples
    assert 0 <= v.margin <= 1e-3  # sharp: margin shrinks with 1 - r_max


def test_verdict_records_sampling_accounting():
    s = DiskSampler(rings=8, points_per_ring=128)
    v = membership(get_entry("quarter_pole").expr, Family.BC, 0.5, sampler=s)
    # every grid point evaluates, plus the synthetic origin limit
    assert v.samples_evaluated == 8 * 128 + 1
    assert v.samples_skipped == 0
    assert v.tol == 1e-6


def test_constant_map_fails_loudly():
    # a bare constant has scalar jet components
    for text in ("3 + 0*z", "3"):
        with pytest.raises(EvaluationFailed):
            membership(parse(text), Family.C, 0.0)


def test_order_estimate_applies_the_one_percent_rule():
    # exp(1000 z) overflows on ~38% of the grid: neither grid answer may use it
    f = parse("exp(1000*z)")
    with pytest.raises(EvaluationFailed, match="12396 of 32768 grid points"):
        membership(f, Family.SSTAR, 0.0)
    with pytest.raises(EvaluationFailed, match="12396 of 32768 grid points"):
        order_estimate(f, Family.SSTAR)


@pytest.mark.filterwarnings("ignore::gftkit.errors.UnivalenceNotChecked")
@pytest.mark.parametrize("family", list(Family))
def test_a_grid_without_points_gives_no_verdict(family):
    # the map's exclusion ball about the origin covers the whole grid: the
    # origin's limit alone is no sampled verdict for the pole-normalized families
    f = parse("1/z + z/4", singular_points=(0,), exclusion_radius=0.9995)
    for answer in (lambda: membership(f, family, 0.2), lambda: order_estimate(f, family)):
        with pytest.raises(EvaluationFailed, match="no grid points evaluated to a finite value"):
            answer()


def test_inverse_convex_verdict_warns_univalence_unchecked():
    g = get_entry("inverse_log").expr
    with pytest.warns(UnivalenceNotChecked):
        v = membership(g, Family.BCI, 0.5)
    assert v.holds_on_samples


def test_alpha_domain_is_validated():
    f = get_entry("quarter_pole").expr
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            membership(f, Family.BC, bad)


def test_starlike_order_transfers_to_the_reciprocal():
    # zf'/f = -z(1/f)'/(1/f) pointwise, so S* order of f equals BS* order of 1/f
    f = get_entry("koebe").expr
    g = 1.0 / f
    z = 0.7 * np.exp(1j * np.linspace(0.1, 6.2, 50))
    a = functional_value(f, Family.SSTAR, z)
    b = functional_value(g, Family.BSSTAR, z)
    assert np.allclose(a, b, rtol=0, atol=1e-12)


def test_order_estimate_polishes_the_grid_minimum():
    est = order_estimate(get_entry("quarter_pole").expr, Family.BC)
    assert est == pytest.approx(0.6006399358463514, abs=1e-9)
    # constant functional: the estimate is the constant, up to roundoff
    assert order_estimate(get_entry("mobius_pole").expr, Family.BC) == pytest.approx(
        1.0, abs=1e-12
    )


def test_one_field_agrees_with_fresh_calls():
    f = get_entry("quarter_pole").expr
    base = membership(f, Family.BC, 0.5)
    again = membership(f, Family.BC, 0.5)
    assert again.margin == base.margin
    assert again.witness == base.witness
    assert again.samples_evaluated == base.samples_evaluated

    # one field per map and grid gives what a fresh call gives
    s = DiskSampler(rings=16, points_per_ring=128)
    field = GridField(f, s)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnivalenceNotChecked)
        for fam in Family:
            for a in (0.0, 0.4):
                assert field.verdict(fam, a, 1e-6) == membership(f, fam, a, sampler=s, tol=1e-6)
            assert field.order_estimate(fam) == order_estimate(f, fam, sampler=s)


@pytest.mark.filterwarnings("ignore::gftkit.errors.UnivalenceNotChecked")
def test_each_map_is_evaluated_once_per_grid(monkeypatch, capsys):
    grid_calls = []
    jet = FunctionExpr.jet

    def counting_jet(self, z, order=3):
        if np.size(z) > numerics._SWEEP_POINTS:  # a grid block, not the polish's probes
            grid_calls.append((self, np.size(z)))
        return jet(self, z, order)

    def count(run):
        grid_calls.clear()
        run()
        return len(grid_calls)

    def points_per_map(run):
        grid_calls.clear()
        run()
        sizes = {}  # the calls hold each map: no id is reused meanwhile
        for expr, size in grid_calls:
            sizes[id(expr)] = sizes.get(id(expr), 0) + size
        return sorted(sizes.values())

    monkeypatch.setattr(FunctionExpr, "jet", counting_jet)
    s = DiskSampler(rings=16, points_per_ring=128)
    g = get_entry("koebe_reciprocal").expr
    f = get_entry("quarter_pole").expr
    # g, 2g, ig and the witness z + 1/z - 2
    assert count(lambda: verify_inclusions(g, (0.1, 0.25, 0.4), sampler=s)) == 4
    assert count(lambda: verify_sufficiency(f, QFunction.constant(1.0), 0.0, sampler=s)) == 1
    assert count(lambda: main(["order", "--catalog", "quarter_pole", "--family", "bc",
                               "--rings", "16", "--points", "128"])) == 1

    # a grid of several blocks: each point of each map is evaluated exactly once
    big = DiskSampler(rings=64, points_per_ring=512)
    size = big.points((0,)).size
    assert points_per_map(lambda: verify_inclusions(g, (0.1, 0.25, 0.4),
                                                    sampler=big)) == [size] * 4
    assert count(lambda: verify_sufficiency(f, QFunction.constant(1.0), 0.0, sampler=big)) > 1
    assert points_per_map(lambda: verify_sufficiency(f, QFunction.constant(1.0), 0.0,
                                                     sampler=big)) == [size]
    assert points_per_map(lambda: main(["order", "--catalog", "quarter_pole", "--family",
                                        "bc"])) == [size]


# -- the grid streams through blocks of whole rings ---------------------------

ONE_RING, WHOLE_GRID = 1, 10**9  # block sizes, in points


def test_blocks_concatenate_to_the_grid(monkeypatch):
    for s, singular, excl in (
        (DiskSampler(rings=128, points_per_ring=4096), (0,), None),
        (DiskSampler(rings=16, points_per_ring=64), (0.5, -0.3j), 0.05),
        (DiskSampler(r_max=0.02, rings=64, points_per_ring=64), (), None),
    ):
        grid = s.points(singular, excl)
        for block in (numerics._RING_BLOCK_POINTS, ONE_RING, WHOLE_GRID):
            monkeypatch.setattr(numerics, "_RING_BLOCK_POINTS", block)
            blocks = list(s._blocks(singular, excl))
            assert all(b.size for b in blocks)
            joined = np.concatenate(blocks)
            assert joined.dtype == grid.dtype and np.array_equal(joined, grid)
            assert np.array_equal(np.signbit(joined.imag), np.signbit(grid.imag))
    # the default block holds whole rings: two of 4096 points
    monkeypatch.undo()
    s = DiskSampler(rings=128, points_per_ring=4096)
    assert {b.size for b in s._blocks((0,))} == {8192}


@pytest.mark.filterwarnings("ignore::gftkit.errors.UnivalenceNotChecked")
def test_block_size_does_not_change_any_answer(monkeypatch):
    s = DiskSampler(rings=16, points_per_ring=256)
    answers = []
    for block in (ONE_RING, WHOLE_GRID):
        monkeypatch.setattr(numerics, "_RING_BLOCK_POINTS", block)
        out = []
        for f in (e.expr for e in catalog.entries()):
            field = GridField(f, s)
            for fam in Family:
                out += [field.verdict(fam, a) for a in (0.0, 0.3, 0.6)]
                out.append(field.order_estimate(fam))
            # below 16 384 points a jet does not depend on its array's length
            out.append(schwarzian_norm(f, 16, 256))
        answers.append(out)
    assert answers[0] == answers[1]


@pytest.mark.filterwarnings("ignore::gftkit.errors.UnivalenceNotChecked")
def test_ties_keep_the_first_grid_point(monkeypatch):
    # (1-z)/z has the bc functional 1 up to roundoff; its smallest value
    # 0.9999999999999989 occurs three times on this grid, first at index 691
    f = get_entry("mobius_pole").expr
    s = DiskSampler(rings=16, points_per_ring=128)
    # on one ring of 1/z every bsstar value is exactly 1: the origin's limit
    # value 1, counted last, loses the tie to the first grid point
    inv, ring = parse("1/z", singular_points=(0,)), DiskSampler(r_max=0.5, rings=1,
                                                                points_per_ring=8)
    for block in (ONE_RING, WHOLE_GRID):
        monkeypatch.setattr(numerics, "_RING_BLOCK_POINTS", block)
        v = membership(f, Family.BC, 0.5, sampler=s)
        assert v.witness == s.points((0,))[691] == -0.7429754638056897 + 0.5510281585982088j
        assert v.witness_value == 0.9999999999999989
        v = membership(inv, Family.BSSTAR, 0.5, sampler=ring)
        assert v.witness == 0.5 and v.witness_value == 1.0 and v.samples_evaluated == 9


def test_a_block_the_exclusion_ball_empties_is_skipped(monkeypatch):
    # the three inner rings lie inside the 1e-3 ball about the origin
    s = DiskSampler(r_max=0.02, rings=64, points_per_ring=64)
    assert np.count_nonzero(s.radii() < 1e-3) == 3
    f = get_entry("quarter_pole").expr
    monkeypatch.setattr(numerics, "_RING_BLOCK_POINTS", ONE_RING)
    v = membership(f, Family.BC, 0.3, sampler=s)
    assert v.margin == 0.6998000199980003 and v.samples_evaluated == 61 * 64 + 1
    assert v.witness == 1.2246467991473543e-18 + 0.020000000000000018j
    assert order_estimate(f, Family.BC, sampler=s) == 0.9998000199979997


def test_grid_checks_stream_in_bounded_memory():
    # whole 128x4096 grids peaked at 64 MiB: the points, the jet and temporaries
    f = get_entry("quarter_pole").expr
    s = DiskSampler(rings=128, points_per_ring=4096)
    for run in (lambda: membership(f, Family.BC, 0.5, sampler=s),
                lambda: schwarzian_norm(f, 128, 4096)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


def test_injectivity_spot_check_is_a_coarse_screen():
    assert injectivity_spot_check(get_entry("koebe").expr)
    assert injectivity_spot_check(get_entry("inverse_log").expr)
    # value-collapsing maps are the failure mode it exists to catch
    assert not injectivity_spot_check(parse("2 + 0*z"))
