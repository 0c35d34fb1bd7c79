"""Small numerical kernels."""

import numpy as np
import pytest

from gftkit.errors import EvaluationFailed, LocallyNonUnivalent
from gftkit.numerics import Extremum, polish_minimum, ring_taylor, unique_sorted
from gftkit.palpha import _reporting_nodes
from gftkit.rays import _FIRST_NODE, _N_NODES, solve_ray


# -- the one reduction of a sampled quantity ---------------------------------------


def test_extremum_keeps_the_first_minimum_across_blocks():
    vals = np.array([3.0, 1.0, np.nan, 2.0, 1.0, np.inf, 1.0, -np.inf, 5.0])
    points = np.arange(vals.size) * 1j
    least = Extremum()
    for lo, hi in ((0, 3), (3, 5), (5, 9)):
        least.add(vals[lo:hi], points[lo:hi])
    assert (least.value, least.point) == (1.0, 1j)  # the first 1.0 of three, in block one
    assert (least.finite, least.total) == (6, 9)  # NaN and both infinities are counted
    # the same point as np.argmin picks over all finite values at once
    assert points[int(np.argmin(np.where(np.isfinite(vals), vals, np.inf)))] == least.point


def test_extremum_maximum_is_the_minimum_of_the_negated_values():
    vals = np.array([0.5, 2.0, -1.0, 2.0])
    least = Extremum()
    least.add(-vals, np.arange(4.0))
    value, point = least.best("values")
    assert (-value, point) == (np.max(vals), float(np.argmax(vals)))


@pytest.mark.parametrize("bad, total, fails", [(1, 100, False), (1, 99, True), (2, 150, True),
                                               (0, 1, False)])
def test_extremum_enforces_the_one_percent_rule(bad, total, fails):
    vals = np.ones(total)
    vals[:bad] = np.nan
    least = Extremum()
    least.add(vals, np.arange(total))
    if fails:
        with pytest.raises(EvaluationFailed, match=rf"{bad} of {total} values failed .*> 1%"):
            least.best("values")
    else:
        assert least.best("values") == (1.0, bad)


def test_extremum_without_a_finite_value_raises():
    least = Extremum()
    with pytest.raises(EvaluationFailed, match="no values evaluated to a finite value"):
        least.best("values")
    least.add(np.array([]), np.array([]))
    with pytest.raises(EvaluationFailed, match="no values evaluated"):
        least.best("values")


def test_unique_sorted_keeps_one_of_equal_values_as_np_unique_does():
    arrays = np.array([2.0, -0.0, 1.0, 0.0, 2.0]), np.array([1.0, -1.0])
    want = np.unique(np.concatenate(arrays))
    assert unique_sorted(*arrays).tobytes() == want.tobytes()


def test_palpha_reporting_nodes_are_np_unique_of_their_parts():
    for eps in (2.0**-21, 1e-6, 1e-3):
        nodes = _reporting_nodes(eps)
        parts = np.linspace(0.0, 1.0 - eps, 385), 1.0 - np.geomspace(0.5, eps, 161)
        assert nodes.tobytes() == np.unique(np.concatenate(parts)).tobytes()


def test_palpha_reporting_nodes_are_one_read_only_array_per_eps_end():
    for eps in (2.0**-21, 1e-6):
        nodes = _reporting_nodes(eps)
        assert _reporting_nodes(eps) is nodes and not nodes.flags.writeable


@pytest.mark.parametrize("r_max", [0.999, 0.5])
def test_ray_reporting_radii_are_np_unique_of_their_parts(r_max):
    radii = solve_ray(lambda z: 0.0, 0.3, r_max=r_max).rho[1:]
    first = min(_FIRST_NODE, r_max / 8.0)
    parts = np.geomspace(first, r_max, 64), np.linspace(first, r_max, _N_NODES)
    assert radii.tobytes() == np.unique(np.concatenate(parts)).tobytes()


# -- polish of a grid minimum in batched sweeps ------------------------------------

RADII = np.linspace(0.1, 0.9, 9)
DTH = 2.0 * np.pi / 16
GRID = (RADII[:, None] * np.exp(1j * DTH * np.arange(16))[None, :]).ravel()
# between the rings 0.5 and 0.6 and between two grid angles
TARGET = 0.537 * np.exp(0.911j)


def _polish(fn):
    vals = fn(GRID)
    i = int(np.argmin(vals))
    return polish_minimum(fn, GRID[i], float(vals[i]), dr=0.1, dth=DTH, r_lo=0.1, r_hi=0.9,
                          rounds=3)


def test_the_polish_recovers_an_off_grid_minimum():
    def fn(z):
        return np.abs(z - TARGET) ** 2

    value, point = _polish(fn)
    assert abs(point - TARGET) <= 1e-9
    assert value == fn(np.array([point]))[0]


def test_a_failed_probe_never_wins_and_never_escapes():
    hits = {"raised": 0, "nan": 0}

    def fn(z):
        d = np.abs(z - TARGET)
        if (d < 1e-4).any():  # one bad probe fails its whole batch
            hits["raised"] += 1
            raise LocallyNonUnivalent("a probe inside the bad ball")
        bad = d < 2e-3
        hits["nan"] += int(bad.sum())
        return np.where(bad, np.nan, d * d - 1.0)

    value, point = _polish(fn)
    assert hits["raised"] > 0 and hits["nan"] > 0
    assert np.isfinite(value) and value == fn(np.array([point]))[0]
    assert abs(point - TARGET) >= 2e-3

    def broken(z):
        raise EvaluationFailed("every probe fails")

    z0 = GRID[40]
    value, point = polish_minimum(broken, z0, 0.25, dr=0.1, dth=DTH, r_lo=0.1, r_hi=0.9,
                                  rounds=2)
    assert value == 0.25 and point == z0


def test_a_nan_probe_steers_the_sweep_away():
    # counted as +inf, the NaN beyond |z| = 0.52 sends the radial sweep
    # inward, toward the minimum at |z| = 0.47 on the start ray
    def fn(z):
        return np.where(np.abs(z) > 0.52, np.nan, (np.abs(z) - 0.47) ** 2 + np.angle(z) ** 2)

    z0 = GRID[4 * 16]
    value, point = polish_minimum(fn, z0, fn(np.array([z0]))[0], dr=0.1, dth=DTH,
                                  r_lo=0.1, r_hi=0.9, rounds=1)
    assert value <= 1e-18 and abs(point - 0.47) <= 1e-9


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_radial_probes_stay_inside_the_domain(sign):
    # the minimum of sign*|z| lies on an end ring, the grid edge of [r_lo, r_hi]
    r_lo, r_hi = 0.3, 0.7
    probed = []

    def fn(z):
        probed.extend(np.abs(z))
        return sign * np.abs(z)

    grid = GRID[(np.abs(GRID) >= r_lo - 1e-12) & (np.abs(GRID) <= r_hi + 1e-12)]
    i = int(np.argmin(sign * np.abs(grid)))
    polish_minimum(fn, grid[i], sign * abs(grid[i]), dr=0.1, dth=DTH, r_lo=r_lo, r_hi=r_hi,
                   rounds=3)
    assert probed
    assert r_lo - 1e-15 <= min(probed) and max(probed) <= r_hi + 1e-15


def test_each_sweep_probes_in_small_batches():
    # a smooth minimum is found in a few array calls of nine points each
    sizes = []

    def fn(z):
        sizes.append(z.size)
        return np.abs(z - TARGET) ** 2

    _polish(fn)
    polish_calls = sizes[1:]  # after the grid
    assert set(polish_calls) == {9}
    assert len(polish_calls) <= 6 * 8


# -- Taylor coefficients from a ring of samples ------------------------------------


def _factorials(n):
    return np.cumprod(np.concatenate([[1.0], np.arange(1.0, n)]))


@pytest.mark.parametrize("p, center, expected", [
    # 1/(1-z) about 0.5: 2^(k+1); exp(z) about 0.3i: e^{0.3i} / k!
    (lambda z: 1.0 / (1.0 - z), 0.5, lambda k: 2.0 ** (k + 1)),
    (np.exp, 0.3j, lambda k: np.exp(0.3j) / _factorials(k.size)),
])
def test_ring_coefficients_match_closed_forms(p, center, expected):
    # the terms a_k t^k on the ring |t| = R carry the FFT's roundoff, so the
    # error is measured there, relative to the largest
    coef, tail, samples = ring_taylor(p, [center], [1.0], 0.1, 32)
    k = np.arange(24)
    terms = expected(k) * 0.1**k
    assert np.max(np.abs(coef[0, :24] * 0.1**k - terms)) <= 1e-13 * np.max(np.abs(terms))
    assert tail[0] <= 1e-13
    assert samples[0, 0] == p(center + 0.1)  # sample 0 lies on the direction, forward


def test_ring_coefficients_run_along_the_direction():
    # in the distance t along e^{i theta}, exp's coefficients pick up e^{i k theta}
    phase = np.exp(0.7j)
    coef, _, _ = ring_taylor(np.exp, [0.3j], [phase], 0.1, 32)
    k = np.arange(24)
    terms = np.exp(0.3j) * (0.1 * phase) ** k / _factorials(24)
    assert np.max(np.abs(coef[0, :24] * 0.1**k - terms)) <= 1e-13 * np.max(np.abs(terms))


def test_batched_rings_equal_one_ring_at_a_time():
    def p(z):
        return 1.0 / (1.0 - z) + np.exp(z)

    centers = np.array([0.5, 0.3j, -0.2 + 0.1j])
    phases = np.exp(1j * np.array([0.0, 1.0, 2.5]))
    coef, tail, samples = ring_taylor(p, centers, phases, 0.15, 32)
    for i in range(3):
        one = ring_taylor(p, centers[i:i + 1], phases[i:i + 1], 0.15, 32)
        assert np.array_equal(coef[i], one[0][0])
        assert tail[i] == one[1][0] and np.array_equal(samples[i], one[2][0])


def test_ring_tail_flags_a_singularity_inside_the_ring():
    # 1/z about 0.1 with R = 0.2: the pole's Laurent terms alias onto the
    # last coefficients
    _, tail, _ = ring_taylor(lambda z: 1.0 / z, [0.1], [1.0], 0.2, 32)
    assert tail[0] > 0.1
    _, tail, _ = ring_taylor(lambda z: 1.0 / z, [0.5], [1.0], 0.1, 32)
    assert tail[0] <= 1e-15


def test_a_non_finite_sample_makes_the_tail_infinite():
    def p(z):
        return np.where(z.imag > 0.05, np.nan, 0.0)

    _, tail, samples = ring_taylor(p, [0.0, 0.5j], [1.0, 1.0], 0.1, 32)
    assert tail[0] == np.inf and tail[1] == np.inf
    assert np.isfinite(samples[0, 0]) and not np.isfinite(samples[1, 0])
