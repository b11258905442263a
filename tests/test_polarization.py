import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from polarfractal import polarization
from polarfractal.errors import ResourceLimitError
from polarfractal.polarization import (_check_unit, apply_path,
                                       bec_leaf_counts, bec_leaf_values)

unit_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
bit_lists = st.lists(st.integers(min_value=0, max_value=1), max_size=12)


# The one-step maps: bit 0 is the worse step 2z - z^2, bit 1 the better z^2.
def worse(z):
    return apply_path(z, (0,))


def better(z):
    return apply_path(z, (1,))


def test_transform_fixed_points():
    assert worse(0.0) == 0.0
    assert worse(1.0) == 1.0
    assert better(0.0) == 0.0
    assert better(1.0) == 1.0


def test_transform_midpoint_values():
    assert worse(0.5) == 0.75
    assert better(0.5) == 0.25


@pytest.mark.parametrize("z", [-0.1, 1.1, 2.0, -1e-9])
def test_transform_domain_error(z):
    with pytest.raises(ValueError):
        worse(z)
    with pytest.raises(ValueError):
        better(z)


def test_domain_tolerance_clamps_roundoff():
    assert worse(1.0 + 1e-13) == 1.0
    assert better(-1e-13) == 0.0


@given(unit_floats)
def test_worse_dominates_better(z):
    assert better(z) <= z <= worse(z)


def test_strict_ordering_on_open_interval():
    grid = np.linspace(0.0, 1.0, 2001)[1:-1]
    assert np.all(grid * grid < grid)
    assert np.all(grid * (2.0 - grid) > grid)


def test_duality_identity():
    # g0(1 - z) = 1 - g1(z) on a dense grid.
    grid = np.linspace(0.0, 1.0, 4001)
    lhs = np.array([worse(1.0 - z) for z in grid])
    rhs = 1.0 - grid * grid
    assert np.abs(lhs - rhs).max() <= 1e-15


def test_monotonicity_on_grid():
    grid = np.linspace(0.0, 1.0, 4001)
    g0 = grid * (2.0 - grid)
    g1 = grid * grid
    assert np.all(np.diff(g0) >= 0)
    assert np.all(np.diff(g1) >= 0)


def test_evolve_known_composition():
    # bits [1,0]: square first, then the worse step: 2 z^2 - z^4.
    for eps in (0.1, 0.3, 0.5, 0.9):
        assert apply_path(eps, [1]) == eps * eps
        assert apply_path(eps, [1, 0]) == pytest.approx(2 * eps**2 - eps**4,
                                                        abs=1e-15)


def test_evolve_empty_is_identity():
    assert apply_path(0.375, []) == 0.375


def test_evolve_golden_ratio_fixed_point():
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    assert apply_path(phi, [1, 0]) == pytest.approx(phi, abs=1e-15)


@given(unit_floats, bit_lists, bit_lists)
def test_composition_associativity(z, u, v):
    whole = apply_path(z, list(u) + list(v))
    split = apply_path(apply_path(z, u), v)
    assert whole == split  # bit-exact


def test_leaf_values_depth_zero_and_one():
    assert list(bec_leaf_values(0.3, 0)) == [0.3]
    assert list(bec_leaf_values(0.5, 1)) == [0.75, 0.25]


def two_temporary_leaves(eps, n):
    """The level loop with a temporary per child array, as a reference."""
    z = np.array([eps])
    for _ in range(n):
        nxt = np.empty(2 * z.size)
        nxt[0::2] = z * (2.0 - z)
        nxt[1::2] = z * z
        z = nxt
    return z


def test_in_place_levels_keep_the_bits():
    for eps in (0.0, -0.0, 1e-300, 0.3, 1.0):
        for n in range(13):
            got = bec_leaf_values(eps, n).tolist()
            want = two_temporary_leaves(eps, n).tolist()
            assert list(map(float.hex, got)) == list(map(float.hex, want))


def test_leaf_levels_peak_memory():
    # The last level (8 MiB at n = 20) and its parent (4 MiB) are all
    # that is held; a temporary per child array would add 4 MiB.
    tracemalloc.start()
    try:
        bec_leaf_values(0.415, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12.5 * (1 << 20)


def test_leaf_order_matches_path_index():
    eps, n = 0.37, 6
    leaves = bec_leaf_values(eps, n)
    for h in (0, 1, 13, 63):
        bits = [(h >> (n - 1 - i)) & 1 for i in range(n)]
        assert leaves[h] == apply_path(eps, bits)


@pytest.mark.parametrize("eps", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("n", [1, 4, 8, 12, 16, 20])
def test_conservation(eps, n):
    # Sum of capacities is preserved exactly by each split.
    leaves = bec_leaf_values(eps, n)
    total = float((1.0 - leaves).sum())
    assert abs(total - (1 << n) * (1.0 - eps)) <= (1 << n) * 1e-12


def test_leaf_mean_at_depth_twenty():
    leaves = bec_leaf_values(0.5, 20)
    assert abs(leaves.mean() - 0.5) <= 1e-12


@pytest.mark.parametrize("eps", [1e-3, 0.3, 0.5, 0.7, 0.999, 1e-300,
                                 1.0 - 2.0 ** -27])
@pytest.mark.parametrize("delta", [1e-3, 0.1, 1e-300, 0.4999])
@pytest.mark.parametrize("subtree_depth", [8, 20])
def test_leaf_counts_match_full_enumeration(eps, delta, subtree_depth,
                                            monkeypatch):
    # Every depth up to 16 in one pass, out of order and with a repeat;
    # subtree depth 8 splits the deep levels into one sub-tree per node.
    # delta 1e-300 settles little but 0.0 and 1.0, delta 0.4999 the most;
    # eps 1e-300 and 1 - 2^-27 start next to 0 and 1, where most delta
    # settle the root at once.
    monkeypatch.setattr(polarization, "_SUBTREE_DEPTH", subtree_depth)
    depths = [16, *range(16), 7]
    got = bec_leaf_counts(eps, depths, delta)
    want = []
    for n in depths:
        z = bec_leaf_values(eps, n)
        want.append((int((z <= delta).sum()), int((z >= 1.0 - delta).sum())))
    assert got == want


def test_leaf_counts_domain():
    assert bec_leaf_counts(0.5, [], 0.1) == []
    assert bec_leaf_counts(0.5, [0, 0], 0.1) == [(0, 0), (0, 0)]
    with pytest.raises(ValueError):
        bec_leaf_counts(0.5, [3, -1], 0.1)
    with pytest.raises(ValueError):
        bec_leaf_counts(1.5, [3], 0.1)
    with pytest.raises(ResourceLimitError):
        bec_leaf_counts(0.5, [25], 0.1)
    # The bounds need good and bad to be apart and delta positive.
    for delta in (0.0, -0.1, 0.5, 0.7, math.nan):
        with pytest.raises(ValueError):
            bec_leaf_counts(0.5, [3], delta)


def adjacent_pairs():
    """Binary64 z in [0, 1) with nextafter(z, 1): random, subnormal,
    near 0, near 0.5 and near 1."""
    rng = np.random.default_rng(7)
    tiny = 5e-324 * np.arange(0, 4000, dtype=np.float64)
    edges = []
    for c, way in ((0.5, -1.0), (0.5, 1.0), (np.nextafter(1.0, 0.0), -1.0)):
        z = np.full(3000, c)
        for i in range(1, 3000):
            z[i] = np.nextafter(z[i - 1], way)
        edges.append(z)
    z = np.concatenate([rng.random(50_000), tiny, *edges,
                        2.0 ** -np.arange(1, 1075, dtype=np.float64)])
    z = z[z < 1.0]
    return z, np.nextafter(z, 1.0)


def test_step_maps_in_binary64():
    # The prune in bec_leaf_counts rests on these facts of the rounded
    # steps, not of the real maps.
    z, up = adjacent_pairs()
    assert (z * z <= up * up).all()
    for v in (z, up):
        assert (v * v <= v).all() and (v <= v * (2.0 - v)).all()
    # The rounded worse step can fall by one ulp where 2 - z rounds down,
    # so the good bound uses its running maximum.
    worse_z, worse_up = z * (2.0 - z), up * (2.0 - up)
    falls = worse_z > worse_up
    assert falls.any() and (z[falls] < 0.5).any()
    assert (np.nextafter(worse_up, 1.0) >= worse_z).all()
    half = z <= 0.5
    worse_max = np.vectorize(polarization._worse_max)
    m_z, m_up = worse_max(z[half]), worse_max(up[half])
    assert (m_z <= m_up).all() and (worse_z[half] <= m_z).all()


# The step falls at 5.960464466436832e-08 and 0.031098566700671237.
@pytest.mark.parametrize("near", [0.0, 2.0 ** -40, 5.960464466436832e-08,
                                  2.0 ** -12, 0.031098566700671237, 0.0624,
                                  0.2, 0.24, 0.3, 0.45, 0.499])
def test_worse_max_is_the_running_maximum(near):
    # Around the last point at or below ``near`` where 2 - v rounds down
    # by 2^-52, an odd multiple of 2^-53, _worse_max is at least the
    # running maximum of the rounded worse step over 4001 floats, and
    # equal to it once the window holds the run that ends there.
    start = (2 * math.floor(near * 2.0 ** 52) + 1) * 2.0 ** -53
    z = np.full(4001, start)
    for i in range(2000, 0, -1):
        z[i - 1] = np.nextafter(z[i], -1.0)
    for i in range(2000, 4000):
        z[i + 1] = np.nextafter(z[i], 1.0)
    running = np.maximum.accumulate(z * (2.0 - z))
    got = np.array([polarization._worse_max(v) for v in z])
    assert (got >= running).all()
    assert (got[2001:] == running[2001:]).all()


def steps(f, z, d):
    for _ in range(d):
        z = f(z)
    return z


# 0.4313244888898547 takes two nextafter steps from its real root.
BOUND_DELTAS = [5e-324, 1e-300, 1e-12, 1e-3, 0.4215047901649089,
                0.4313244888898547, 0.4999]


@pytest.mark.parametrize("delta", BOUND_DELTAS)
def test_settled_bounds_are_exact_float_boundaries(delta):
    g, h = polarization._settled_bounds(delta, 24)
    assert len(g) == len(h) == 25
    worse_max = polarization._worse_max
    for d in range(25):
        above_g, below_h = math.nextafter(g[d], 1.0), math.nextafter(h[d], 0.0)
        assert steps(worse_max, g[d], d) <= delta < steps(worse_max, above_g, d)
        assert apply_path(g[d], [0] * d) <= delta
        assert (apply_path(h[d], [1] * d) >= 1.0 - delta
                > apply_path(below_h, [1] * d)), d


@pytest.mark.parametrize("eps, delta", [
    (0.23941127418617944, 0.4215047901649089),
    (0.24758769858600957, 0.4338757286809024)])
def test_leaf_counts_where_the_worse_step_falls(eps, delta):
    # A float just above eps has its worse step <= delta but eps has not:
    # a bound at the largest z whose own worse step is <= delta would
    # count both children of eps as good.
    above = math.nextafter(eps, 1.0)
    assert above * (2.0 - above) <= delta < eps * (2.0 - eps)
    for depths in ([1], [1, 2, 3], [6]):
        want = []
        for n in depths:
            z = bec_leaf_values(eps, n)
            want.append((int((z <= delta).sum()), int((z >= 1.0 - delta).sum())))
        assert bec_leaf_counts(eps, depths, delta) == want


@pytest.mark.parametrize("eps, delta", [(0.5, 1e-3), (0.323, 0.4999),
                                        (0.9, 1e-300), (0.2, 1e-12)])
def test_leaf_counts_split_only_unsettled_nodes(eps, delta, monkeypatch):
    # The pass splits every node above the sub-tree roots, and below them
    # exactly the nodes that the bounds leave unsettled: with d levels
    # left, d running-maximum worse steps end above delta and d better
    # steps below 1 - delta.
    top, split = 14, 3
    monkeypatch.setattr(polarization, "_SUBTREE_DEPTH", top - split)
    split_sizes = []

    def counting_split(z):
        split_sizes.append(z.size)
        return real_split(z)

    real_split = polarization._split
    monkeypatch.setattr(polarization, "_split", counting_split)
    bec_leaf_counts(eps, [top], delta)
    monkeypatch.undo()
    worse_max = np.vectorize(lambda z, d: steps(polarization._worse_max, z, d))
    want = (1 << split) - 1
    for k in range(split, top):
        z = bec_leaf_values(eps, k)
        better = z.copy()
        for _ in range(top - k):
            better *= better
        unsettled = (worse_max(z, top - k) > delta) & (better < 1.0 - delta)
        want += int(unsettled.sum())
    assert sum(split_sizes) == want
    assert want < (1 << top) - 1


def test_leaf_list_resource_limit():
    with pytest.raises(ResourceLimitError):
        bec_leaf_values(0.5, 25)


def same_float(a, b):
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def test_negative_zero_squared_to_positive_zero():
    assert same_float(apply_path(-0.0, [1]), 0.0)
    assert same_float(apply_path(-0.0, [0, 0]), -0.0)


def clamping_check_unit(z, name="z"):
    """The unit check without its in-range return: every value runs the
    range test and the clamp."""
    z = float(z)
    if not (-1e-12 <= z <= 1.0 + 1e-12) or z != z:
        raise ValueError(f"{name} must lie in [0, 1], got {z!r}")
    return min(max(z, 0.0), 1.0)


@pytest.mark.parametrize("z", [
    -0.0, 0.0, 5e-324, 0.5, math.nextafter(1.0, 0.0), 1.0, np.float64(0.25),
    Fraction(1, 3), -5e-13, 1.0 + 5e-13])
def test_check_unit_matches_clamping_check(z):
    assert _check_unit(z).hex() == clamping_check_unit(z).hex()


@pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf, 1.1])
def test_check_unit_rejects_like_clamping_check(z):
    with pytest.raises(ValueError) as want:
        clamping_check_unit(z)
    with pytest.raises(ValueError) as got:
        _check_unit(z)
    assert str(got.value) == str(want.value)


def test_apply_path_matches_loop_checking_every_step():
    def checked_loop(z, bits):
        v = clamping_check_unit(z)
        for b in bits:
            v = clamping_check_unit(v)
            v = v * v if b else v * (2.0 - v)
        return v

    rng = random.Random(5231)
    zs = [0.0, -0.0, 1.0, 5e-324, *(rng.random() for _ in range(200))]
    for z in zs:
        bits = [rng.randrange(2) for _ in range(rng.randrange(0, 300))]
        assert apply_path(z, bits).hex() == checked_loop(z, bits).hex(), (z, bits)
