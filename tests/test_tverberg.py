import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import enumerate_traversals, make_custom_graph
from tverberg_nd import tverberg as tv
from tverberg_nd.geom import PointSet
from tverberg_nd.lifting import make_graph, quadratic_form, stats
from tverberg_nd.tverberg import (
    InfeasibleError,
    apply_selection,
    check_certificate,
    partition_balanced,
    partition_general,
    partition_nearly_balanced,
    radius_bound,
    select_class,
    step_coefficients,
    traversal_norm_bound,
)


def test_partition_general_rejects_bad_sizes():
    pts = np.random.default_rng(0).standard_normal((6, 2))
    for sizes, message in [((), "at least one class"), ((2, 0), "positive"), ((2, -1), "positive")]:
        with pytest.raises(InfeasibleError, match=message):
            partition_general(pts, sizes)


def test_radius_bound_values():
    assert math.isclose(radius_bound("balanced", 100, 10), math.sqrt(90.0 / 99.0), rel_tol=1e-12)
    assert math.isclose(
        radius_bound("nearly_balanced", 99, 10), math.sqrt(108.0 / 98.0), rel_tol=1e-12
    )
    sizes = (100, 100, 100, 80, 60, 40, 20)
    want = (500.0 / 20.0) * math.sqrt(10.0 * 2.0 / 499.0) * 2.0
    assert math.isclose(radius_bound("general", 500, 7, sizes, diam=2.0), want, rel_tol=1e-12)
    assert radius_bound("balanced", 100, 1) == 0.0
    assert radius_bound("general", 1, 1, (1,)) == 0.0


def test_radius_bound_errors_and_nondefault_arity():
    with pytest.raises(ValueError):
        radius_bound("unknown", 10, 2)
    with pytest.raises(ValueError):
        radius_bound("general", 10, 2)
    with pytest.raises(ValueError):
        radius_bound("general", 10, 2, (5, 5), arity=3)
    g = make_graph("balanced_ary", 5, 2)
    s = stats(g)
    want = (10.0 / 2.0) * math.sqrt(2.0 * s.diameter_or_height * s.max_degree / 9.0)
    got = radius_bound("general", 10, 5, (2, 2, 2, 2, 2), graph_stats=s, arity=2)
    assert math.isclose(got, want, rel_tol=1e-12)


def test_traversal_norm_bound_values():
    assert math.isclose(
        traversal_norm_bound("balanced", 100, 10, 1.0),
        math.sqrt(9.0 / (10.0 * 99.0)),
        rel_tol=1e-12,
    )
    assert math.isclose(
        traversal_norm_bound("general", 100, 10, 2.0, max_degree=5),
        math.sqrt(5.0 / 198.0) * 2.0,
        rel_tol=1e-12,
    )
    assert traversal_norm_bound("balanced", 1, 5, 1.0) == 0.0
    with pytest.raises(ValueError):
        traversal_norm_bound("general", 100, 10, 1.0)


# ---------------------------------------------------------------- exactness


def _completions(quota):
    """Distinct class sequences that use up the remaining quota."""
    items = []
    for c, q in enumerate(quota):
        items.extend([c] * int(q))
    seen = set()
    for perm in itertools.permutations(items):
        if perm not in seen:
            seen.add(perm)
            yield perm


def _weighted_average(state, coef_n, coef_r, w):
    """Quota-weighted class average of the objectives; equals the pre-choice expectation."""
    q = state.quota.astype(np.float64)
    return float(q @ state.objectives(coef_n, coef_r, w)) / float(q.sum())


def _brute_mean(graph, sums, rows, quota):
    total = 0.0
    count = 0
    for perm in _completions(quota):
        s = sums.copy()
        for j, c in enumerate(perm):
            s[c] += rows[j]
        total += quadratic_form(graph, s)
        count += 1
    return total / count


@pytest.mark.parametrize("layout", ["general", "star", "triangle"])
def test_step_objective_matches_exhaustive_conditional_expectation(layout):
    """Replay a full run against enumerated conditional expectations.

    At every step and for every feasible class, the objective must
    reproduce the exact conditional mean of the final squared lifted-sum
    norm up to one shared constant, and the quota-weighted average must
    equal the pre-choice mean. This pins the greedy to the averaging
    argument the radius guarantees rely on.
    """
    rng = np.random.default_rng(47)
    if layout == "general":
        sizes = (3, 2, 1)
        graph = make_graph("balanced_ary", 3, 4)
    elif layout == "star":
        sizes = (2, 2, 2)
        graph = make_graph("star", 3)
    else:
        sizes = (2, 2, 2)
        graph = make_custom_graph(3, ((0, 1), (1, 2), (0, 2)))
    state = tv._TraversalState(graph, sizes, 2)
    n = sum(sizes)
    coords = rng.standard_normal((n, 2))
    centered = coords - coords.mean(axis=0)
    sums = np.zeros((3, 2))
    quota = list(sizes)

    prefix = np.cumsum(centered, axis=0)
    sq_prefix = np.cumsum(np.einsum("ij,ij->i", centered, centered))
    for t in range(n - 1, -1, -1):
        p = centered[t]
        if t > 0:
            cn, cr, w = step_coefficients(p, t, prefix[t - 1], float(sq_prefix[t - 1]))
        else:
            cn, cr, w = step_coefficients(p, 0, None, 0.0)
        e_before = _brute_mean(graph, sums, centered[: t + 1], quota)
        exact = {}
        for i in range(3):
            if quota[i] == 0:
                continue
            s2 = sums.copy()
            s2[i] += p
            q2 = list(quota)
            q2[i] -= 1
            exact[i] = _brute_mean(graph, s2, centered[:t], q2)
        vals = state.objectives(cn, cr, w)
        phis = {i: float(vals[i]) for i in exact}
        scale = 1.0 + max(abs(v) for v in exact.values())
        base = next(iter(exact))
        for i in exact:
            assert abs((phis[i] - phis[base]) - (exact[i] - exact[base])) <= 1e-9 * scale
        wavg = _weighted_average(state, cn, cr, w)
        for i in exact:
            assert abs((wavg - phis[i]) - (e_before - exact[i])) <= 1e-9 * scale

        pick = select_class(state, cn, cr, w)
        assert quota[pick] > 0
        assert phis[pick] <= wavg + 1e-9 * scale
        assert exact[pick] <= e_before + 1e-9 * scale
        apply_selection(state, pick, p)
        sums[pick] += p
        quota[pick] -= 1

    final = quadratic_form(graph, sums)
    overall_mean = _brute_mean(graph, np.zeros_like(sums), centered, list(sizes))
    assert final <= overall_mean * (1 + 1e-9) + 1e-12


def test_step_coefficients_last_row():
    cn, cr, w = step_coefficients([3.0, 4.0], 0, None, 0.0)
    assert cn == 25.0 and cr == 0.0
    assert w.tolist() == [3.0, 4.0]


def test_step_objective_rejects_bad_class():
    state = tv._TraversalState(make_graph("star", 3), (2, 2, 2), 2)
    with pytest.raises(ValueError):
        apply_selection(state, -1, np.zeros(2))


def test_apply_selection_respects_quota():
    state = tv._TraversalState(make_graph("star", 2), (1, 1), 1)
    apply_selection(state, 1, np.ones(1))
    with pytest.raises(InfeasibleError):
        apply_selection(state, 1, np.ones(1))


def test_select_class_is_masked_argmin():
    state = tv._TraversalState(make_graph("star", 4), (1, 2, 2, 2), 1)
    w = np.zeros(1)
    assert select_class(state, 0.0, 0.0, w) == 0  # all objectives equal: lowest index
    apply_selection(state, 0, np.zeros(1))
    assert select_class(state, 0.0, 0.0, w) == 1  # the exhausted class drops out of the tie
    # the exhausted hub scores -3 against -1 for each leaf, yet is skipped
    assert select_class(state, -1.0, 0.0, w) == 1
    apply_selection(state, 2, np.ones(1))
    assert state.quota_bal.tolist() == [-10.0, 4.0, 2.0, 4.0]
    assert select_class(state, 0.0, 1.0, w) == 2  # smallest feasible, not smallest overall

    exhausted = tv._TraversalState(make_graph("star", 3), (0, 0, 0), 1)
    with pytest.raises(InfeasibleError):
        select_class(exhausted, 1.0, 0.0, w)


# ------------------------------------------------------------ state upkeep


@pytest.mark.parametrize("kind", ["balanced_ary", "star"])
def test_state_invariants_after_random_applies(kind):
    if kind == "balanced_ary":
        rng = np.random.default_rng(13)
        k, d, every, atol = 13, 3, 97, 1e-9
        sizes = rng.integers(20, 60, k)
        graph = make_graph("balanced_ary", k, 4)
    else:
        rng = np.random.default_rng(14)
        k, d, every, atol = 9, 2, 41, 1e-8
        sizes = np.full(k, 40)
        graph = make_graph("star", k)
    state = tv._TraversalState(graph, tuple(int(s) for s in sizes), d)
    quota = sizes.astype(np.int64).copy()
    assigned = np.zeros((k, d))
    deg = graph.degrees.astype(np.float64)
    for step in range(int(quota.sum())):
        i = int(rng.choice(np.flatnonzero(quota > 0)))
        p = rng.standard_normal(d)
        apply_selection(state, i, p)
        quota[i] -= 1
        assigned[i] += p
        if step % every == 0 or quota.sum() == 0:
            nbr_q = np.array([quota[list(graph.adjacency[j])].sum() for j in range(k)], np.float64)
            nbr_a = np.stack([assigned[list(graph.adjacency[j])].sum(axis=0) for j in range(k)])
            assert np.allclose(state.quota_bal, 2.0 * (quota * deg - nbr_q), atol=atol)
            assert np.allclose(
                state.sum_bal, 2.0 * (deg[:, None] * assigned - nbr_a), atol=atol
            )


def test_weighted_average_and_pick_match_direct_means():
    rng = np.random.default_rng(21)
    gen = tv._TraversalState(
        make_graph("balanced_ary", 11, 4), tuple(int(v) for v in rng.integers(3, 9, 11)), 2
    )
    star = tv._TraversalState(make_graph("star", 9), (5,) * 9, 2)
    for state in (gen, star):
        for _ in range(30):
            i = int(rng.choice(np.flatnonzero(state.quota > 0)))
            state.apply(i, rng.standard_normal(2))
        for _ in range(5):
            cn, cr = (float(v) for v in rng.standard_normal(2))
            w = rng.standard_normal(2)
            objs = np.array(
                [cn * state.deg[i] + cr * state.quota_bal[i] + state.sum_bal[i] @ w for i in range(state.k)]
            )
            q = state.quota.astype(np.float64)
            want_w = float(q @ objs) / float(q.sum())
            got_w = _weighted_average(state, cn, cr, w)
            assert abs(got_w - want_w) <= 1e-9 * (1.0 + abs(want_w))
            pick = select_class(state, cn, cr, w)
            assert state.quota[pick] > 0
            assert objs[pick] <= got_w + 1e-9 * (1.0 + abs(got_w))


# ------------------------------------------------------------- partitions


def test_line_example_partition_beats_average():
    pts = np.array([[-3.0], [-1.0], [1.0], [3.0]])
    cert = partition_balanced(pts, 2)
    rep = enumerate_traversals(pts, (2, 2), make_graph("star", 2))
    assert cert.traversal_centroid_norm**2 <= rep.mean_sq_norm * (1 + 1e-9) + 1e-12
    assert cert.traversal_centroid_norm <= math.sqrt(5.0 / 3.0) + 1e-9


def test_general_sizes_dominance_small():
    rng = np.random.default_rng(47)
    pts = rng.standard_normal((6, 2))
    sizes = (3, 2, 1)
    cert = partition_general(pts, sizes)
    # the oracle scores raw coordinates, so hand it the centered rows the
    # run actually used (unequal sizes make the norm translation-sensitive)
    centered = pts - pts.mean(axis=0)
    rep = enumerate_traversals(centered, sizes, make_graph("balanced_ary", 3, 4))
    assert cert.traversal_centroid_norm**2 <= rep.mean_sq_norm * (1 + 1e-9) + 1e-12


def test_partition_general_basic():
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((30, 4))
    cert = partition_general(pts, (10, 10, 5, 5))
    assert cert.mode == "general"
    assert tuple(len(p) for p in cert.parts) == (10, 10, 5, 5)
    assert np.allclose(cert.ball.center, pts.mean(axis=0))
    assert cert.radius_achieved <= cert.radius_guaranteed + 1e-9
    assert all(c.ok for c in check_certificate(cert, PointSet(pts)))


def test_partition_balanced_basic():
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((40, 3))
    cert = partition_balanced(pts, 8)
    assert cert.mode == "balanced"
    assert cert.sizes == (5,) * 8
    first_centroid = pts[list(cert.parts[0])].mean(axis=0)
    assert np.allclose(cert.ball.center, first_centroid)
    assert all(c.ok for c in check_certificate(cert, PointSet(pts)))


def test_partition_nearly_balanced_pattern_and_leftovers():
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((10, 2))
    cert = partition_nearly_balanced(pts, 3)
    assert cert.mode == "nearly_balanced"
    assert cert.sizes == (4, 3, 3)
    assert 9 in cert.parts[0]  # trailing row lands in part 0
    assert all(c.ok for c in check_certificate(cert, PointSet(pts)))


def test_partition_nearly_balanced_divisible_falls_back():
    rng = np.random.default_rng(4)
    pts = rng.standard_normal((12, 2))
    cert = partition_nearly_balanced(pts, 4)
    assert cert.mode == "balanced"


def test_single_class_and_singletons():
    rng = np.random.default_rng(6)
    pts = rng.standard_normal((9, 2))
    whole = partition_balanced(pts, 1)
    assert whole.radius_guaranteed == 0.0 and whole.radius_achieved == 0.0
    assert whole.parts == (tuple(range(9)),)
    single = partition_balanced(pts[:5], 5)
    assert all(len(p) == 1 for p in single.parts)
    assert all(c.ok for c in check_certificate(single, PointSet(pts[:5])))


def test_identical_points_give_zero_radius():
    pts = np.ones((12, 3))
    cert = partition_balanced(pts, 3)
    assert cert.diameter_used == 0.0
    assert cert.radius_guaranteed == 0.0
    assert cert.radius_achieved == 0.0


def test_infeasible_inputs():
    pts = np.zeros((4, 2))
    with pytest.raises(InfeasibleError):
        partition_general(pts, (2, 1))
    with pytest.raises(InfeasibleError):
        partition_general(np.zeros((2, 1)), (1, 1, 1))
    with pytest.raises(InfeasibleError):
        partition_general(pts, (2, 2), arity=1)
    with pytest.raises(InfeasibleError):
        partition_balanced(pts, 3)
    with pytest.raises(InfeasibleError):
        partition_balanced(pts, 0)
    with pytest.raises(InfeasibleError):
        partition_nearly_balanced(pts, 5)


def test_partition_functions_deterministic():
    rng = np.random.default_rng(7)
    pts = rng.standard_normal((60, 4))
    a = partition_general(pts, (20, 20, 10, 10))
    b = partition_general(pts, (20, 20, 10, 10))
    assert a.parts == b.parts
    assert np.array_equal(a.part_centroids, b.part_centroids)
    assert a.radius_achieved == b.radius_achieved
    c = partition_nearly_balanced(pts, 7)
    d = partition_nearly_balanced(pts, 7)
    assert c.parts == d.parts and c.radius_achieved == d.radius_achieved


def test_partition_assignment_stable_under_translation():
    # dyadic coords with n a power of two make the internal centering
    # cancel the shift bit-for-bit, so the assignment must not move
    rng = np.random.default_rng(8)
    pts = rng.integers(-512, 512, size=(64, 3)).astype(np.float64)
    v = np.array([100.0, -7.0, 3.5])
    assert partition_balanced(pts, 8).parts == partition_balanced(pts + v, 8).parts
    a = partition_general(pts, (24, 16, 24))
    b = partition_general(pts + v, (24, 16, 24))
    assert a.parts == b.parts


def test_translated_float_input_still_certifies():
    # generic float data: centering noise may re-break exact selection
    # ties, so only the certified quantities are compared
    rng = np.random.default_rng(8)
    pts = rng.standard_normal((48, 3))
    v = np.array([100.0, -7.0, 3.5])
    base = partition_balanced(pts, 6)
    moved = partition_balanced(pts + v, 6)
    assert all(c.ok for c in check_certificate(moved, pts + v))
    assert moved.radius_guaranteed == pytest.approx(base.radius_guaranteed, rel=1e-9)
    assert moved.traversal_norm_bound == pytest.approx(base.traversal_norm_bound, rel=1e-9)


def test_checker_flags_tampering():
    rng = np.random.default_rng(5)
    pts = PointSet(rng.standard_normal((24, 3)))
    cert = partition_nearly_balanced(pts, 5)

    worse = dataclasses.replace(cert, radius_achieved=cert.radius_achieved * 2 + 1.0)
    names = {c.name for c in check_certificate(worse, pts) if not c.ok}
    assert "radius_achieved_matches" in names

    parts = [list(p) for p in cert.parts]
    parts[0][0], parts[1][0] = parts[1][0], parts[0][0]
    moved = dataclasses.replace(cert, parts=tuple(tuple(p) for p in parts))
    names = {c.name for c in check_certificate(moved, pts) if not c.ok}
    assert "part_centroids_match" in names

    shrunk = dataclasses.replace(cert, radius_guaranteed=cert.radius_guaranteed / 10.0)
    names = {c.name for c in check_certificate(shrunk, pts) if not c.ok}
    assert "guarantee_formula" in names

    drift = dataclasses.replace(cert, traversal_centroid_norm=cert.traversal_centroid_norm + 1.0)
    names = {c.name for c in check_certificate(drift, pts) if not c.ok}
    assert "traversal_norm_matches" in names

    parts = [list(p) for p in cert.parts]
    parts[0] += parts[4]
    parts[4] = []
    emptied = dataclasses.replace(cert, parts=tuple(tuple(p) for p in parts))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        names = {c.name for c in check_certificate(emptied, pts) if not c.ok}
    assert {"part_sizes_match", "part_centroids_match", "radius_achieved_matches"} <= names

    doubled = dataclasses.replace(cert, parts=cert.parts[:4] + (cert.parts[3],))
    names = {c.name for c in check_certificate(doubled, pts) if not c.ok}
    assert "partition_covers_input" in names

    # more parts than rows: the nearly balanced run would have had no rows
    few = PointSet(pts.coords[:3])
    small = partition_nearly_balanced(few, 2)
    spread = dataclasses.replace(
        small, parts=((0,), (1,), (2,), ()), part_centroids=np.zeros((4, 3))
    )
    names = {c.name for c in check_certificate(spread, few) if not c.ok}
    assert {"part_sizes_match", "traversal_norm_matches"} <= names

    # no parts at all: the nearly balanced size pattern is undefined, not a crash
    assert cert.mode == "nearly_balanced"
    no_parts = dataclasses.replace(cert, parts=())
    names = {c.name for c in check_certificate(no_parts, pts) if not c.ok}
    assert {"partition_covers_input", "nearly_balanced_size_pattern"} <= names


def test_checker_flags_a_ball_smaller_than_the_guarantee():
    # every part centroid lies about 0.1 from the center, so this ball meets no part hull
    pts = PointSet(np.random.default_rng(5).standard_normal((24, 3)))
    cert = partition_nearly_balanced(pts, 5)
    tiny = dataclasses.replace(cert, radius_guaranteed=1e-6)
    assert tiny.ball.radius == 1e-6
    failed = [c.name for c in check_certificate(tiny, pts) if not c.ok]
    assert failed == ["radius_within_guarantee", "guarantee_formula"]
    assert all(c.ok for c in check_certificate(cert, pts))


@settings(deadline=None, max_examples=25)
@given(st.integers(2, 40), st.integers(1, 5), st.integers(1, 4), st.integers(0, 2**31 - 1))
def test_random_instances_produce_valid_certificates(n, k, d, seed):
    k = min(k, n)
    pts = np.random.default_rng(seed).standard_normal((n, d))
    cert = partition_nearly_balanced(pts, k)
    assert all(c.ok for c in check_certificate(cert, PointSet(pts)))
    assert max(cert.sizes) - min(cert.sizes) <= 1


@settings(deadline=None, max_examples=20)
@given(st.integers(4, 30), st.integers(2, 4), st.integers(0, 2**31 - 1))
def test_random_general_sizes_produce_valid_certificates(n, k, seed):
    rng = np.random.default_rng(seed)
    k = min(k, n)
    cuts = np.sort(rng.choice(np.arange(1, n), size=k - 1, replace=False))
    sizes = tuple(int(v) for v in np.diff(np.concatenate([[0], cuts, [n]])))
    pts = rng.standard_normal((n, 2))
    cert = partition_general(pts, sizes)
    assert cert.sizes == sizes
    assert all(c.ok for c in check_certificate(cert, PointSet(pts)))
