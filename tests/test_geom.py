import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import diameter_pairwise
from tverberg_nd import geom
from tverberg_nd.geom import (
    Ball,
    PointSet,
    as_point,
    centroid,
    diameter_bound,
    diameter_exact,
    diameter_upper,
)


def test_point_set_validation():
    with pytest.raises(ValueError):
        PointSet(np.zeros((3,)))
    with pytest.raises(ValueError):
        PointSet(np.zeros((2, 0)))
    for value in (np.nan, np.inf, -np.inf):  # a single non-finite entry among finite ones
        coords = np.arange(12.0).reshape(4, 3)
        coords[2, 1] = value
        with pytest.raises(ValueError, match="finite"):
            PointSet(coords)
    ps = PointSet([[1, 2], [3, 4]])
    assert ps.n == 2 and ps.dim == 2 and len(ps) == 2
    assert ps.coords.dtype == np.float64
    with pytest.raises(ValueError):
        ps.coords[0, 0] = 9.0  # frozen storage


def test_as_point_rejects_bad_input():
    with pytest.raises(ValueError):
        as_point([[1.0, 2.0]])
    with pytest.raises(ValueError):
        as_point([])
    with pytest.raises(ValueError):
        as_point([np.inf])


def test_centroid_plain_and_compensated():
    pts = np.array([[1.0, 0.0], [3.0, 4.0]])
    assert np.allclose(centroid(pts), [2.0, 2.0])
    with pytest.raises(ValueError):
        centroid(np.zeros((0, 2)))


def test_diameter_exact_known_values():
    assert diameter_exact(np.array([[0.0, 0.0], [3.0, 4.0]])) == 5.0
    square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    assert math.isclose(diameter_exact(square), math.sqrt(2.0), rel_tol=1e-15)
    assert diameter_exact(np.array([[7.0, 7.0]])) == 0.0


def test_diameter_exact_crosses_block_boundary(monkeypatch):
    # 200 points on a line: farthest pair spans several 64-row scan blocks
    monkeypatch.setattr(geom, "_SCAN_BYTES", 8 * 200 * 64)
    xs = np.linspace(0.0, 199.0, 200).reshape(-1, 1)
    assert math.isclose(diameter_exact(xs), 199.0, rel_tol=1e-15)


@settings(deadline=None, max_examples=80)
@given(
    st.integers(1, 300),
    st.integers(1, 70),
    st.integers(-6, 6),
    st.integers(-1, 9),
    st.integers(0, 2**31 - 1),
)
def test_diameter_exact_equals_pairwise_scan(n, d, spread_exp, offset_exp, seed):
    rng = np.random.default_rng(seed)
    offset = 0.0 if offset_exp < 0 else 10.0**offset_exp
    pts = rng.standard_normal((n, d)) * 10.0**spread_exp + offset * rng.standard_normal(d)
    assert diameter_exact(pts) == diameter_pairwise(pts)


_LINE_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False, min_value=-1e308, max_value=1e308).map(lambda v: math.copysign(1e308, v) - v / 1e10),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0, 1e308, -1e308]),
)


@settings(deadline=None, max_examples=200)
@given(st.lists(_LINE_VALUES, min_size=1, max_size=40), st.integers(0, 3))
def test_diameter_exact_on_a_line_equals_pairwise_scan(values, repeats):
    # ties from repeated values, mixed signs, subnormals, and spans that overflow
    pts = np.array(values * (repeats + 1)).reshape(-1, 1)
    with np.errstate(over="ignore"):
        expected = diameter_pairwise(pts)
    assert diameter_exact(pts).hex() == expected.hex()


@pytest.mark.parametrize(
    "pts",
    [
        pytest.param(1e8 + np.random.default_rng(5).random((400, 6)), id="offset_1e8_unit_spread"),
        pytest.param(np.full((300, 5), 0.1), id="identical_rows"),
        pytest.param(np.array([[0.1, 0.2]] * 50 + [[np.nextafter(0.1, 1.0), 0.2]] * 50), id="one_ulp_apart"),
        pytest.param(np.array([[1e-170], [0.0], [-1e-170]]), id="underflow"),
        pytest.param(np.array([[1e300, 0.0], [-1e300, 0.0], [0.0, 1.0]]), id="overflow"),
    ],
)
def test_diameter_exact_adversarial_inputs(pts):
    assert diameter_exact(pts) == diameter_pairwise(pts)


@pytest.mark.parametrize("offset", [0.0, 1.0, 100.0])
def test_diameter_exact_antipodal_points_on_offset_circle(offset):
    # Every antipodal pair is within a few ulps of the maximum, so the
    # rescoring margin decides which pairs are looked at.
    for seed in range(50):
        rng = np.random.default_rng(seed)
        th = rng.uniform(0.0, 2.0 * np.pi, 50)
        th = np.concatenate([th, th + np.pi])
        pts = 3.0 * np.c_[np.cos(th), np.sin(th)] + offset
        assert diameter_exact(pts) == diameter_pairwise(pts), seed


def test_diameter_exact_duplicated_clusters_stay_in_budget():
    rng = np.random.default_rng(8)
    a, b = rng.standard_normal(64), rng.standard_normal(64)
    pts = np.vstack([np.tile(a, (1000, 1)), np.tile(b, (1000, 1))])[rng.permutation(2000)]
    # Half of all pairs tie exactly at the maximum; the pairwise scan
    # needs 64 * n * d * 8 bytes (62.5 MiB) per block here.
    tracemalloc.start()
    try:
        value = diameter_exact(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == diameter_pairwise(pts) == float(np.linalg.norm(a - b))
    assert peak <= 3 * geom._SCAN_BYTES + 2 * pts.nbytes, peak


@pytest.mark.parametrize("n", [95, 96, 97, 400])
def test_diameter_exact_row_blocks_and_chunks(monkeypatch, n):
    # 32 rows per Gram block and small rescoring chunks, so n crosses blocks
    monkeypatch.setattr(geom, "_SCAN_BYTES", 8 * n * 32)
    pts = np.random.default_rng(n).standard_normal((n, 3))
    pts[n // 2 :] = pts[: n - n // 2]  # exact ties across blocks
    assert diameter_exact(pts) == diameter_pairwise(pts)


def test_diameter_bound_switches_to_upper():
    rng = np.random.default_rng(3)
    pts = rng.random((50, 3))
    v, exact = diameter_bound(pts, exact_threshold=100)
    assert exact and v == diameter_exact(pts)
    v2, exact2 = diameter_bound(pts, exact_threshold=10)
    assert not exact2 and v2 == diameter_upper(pts)


@settings(deadline=None, max_examples=40)
@given(st.integers(2, 30), st.integers(1, 4), st.integers(0, 2**31 - 1))
def test_diameter_upper_brackets_exact(n, d, seed):
    pts = np.random.default_rng(seed).standard_normal((n, d))
    exact = diameter_exact(pts)
    upper = diameter_upper(pts)
    assert exact <= upper * (1 + 1e-12)
    assert upper <= 2.0 * exact * (1 + 1e-12)


def test_ball_contains_and_validation():
    b = Ball(np.array([0.0, 0.0]), 1.0)
    assert b.contains([1.0, 0.0])
    assert not b.contains([1.0, 1.0])
    assert b.contains([1.0 + 1e-12, 0.0], tol=1e-9)
    with pytest.raises(ValueError):
        Ball(np.array([0.0]), -0.5)
    with pytest.raises(ValueError):
        Ball(np.array([0.0]), math.nan)
