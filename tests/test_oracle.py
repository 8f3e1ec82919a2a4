import math
from fractions import Fraction

import numpy as np
import pytest

from tverberg_nd.oracle import depth_2d_exact


def test_depth_2d_square():
    square = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    assert depth_2d_exact([0.0, 0.0], square) == 2
    assert depth_2d_exact([1.0, 1.0], square) == 1
    assert depth_2d_exact([5.0, 5.0], square) == 0


def _fraction_depth(x, pts) -> int:
    """Closed-halfplane depth of x in exact rational arithmetic.

    The count through x only changes at normals to some offset o_i, so the
    minimum is reached just beside one of them. Turning the normal u a
    little toward +-u_perp keeps the points with o.u > 0 and adds those on
    the boundary line that the turn moves inside; offsets of 0 always count.
    """
    offs = [(Fraction(px) - Fraction(x[0]), Fraction(py) - Fraction(x[1])) for px, py in pts.tolist()]
    best = len(offs)
    for ax, ay in offs:
        if ax == ay == 0:
            continue
        for ux, uy in ((-ay, ax), (ay, -ax)):
            for turn in (1, -1):
                inside = 0
                for ox, oy in offs:
                    dot = ox * ux + oy * uy
                    inside += dot > 0 or (dot == 0 and turn * (oy * ux - ox * uy) >= 0)
                best = min(best, inside)
    return best


def _points_on_a_line_through_origin(rng) -> np.ndarray:
    """Four exact multiples of one offset, on both sides of the origin, and four points off each side.

    Coordinates keep 48-bit mantissas so the small multiples stay exact,
    while the products that a dot product rounds do not.
    """
    a = np.ldexp(np.round(np.ldexp(rng.standard_normal(2), 48)), -48)
    normal = np.array([-a[1], a[0]])
    scales = rng.choice([1.0, -1.0, 3.0, -3.0, 5.0, -5.0, 7.0, -7.0, 0.5, -0.75], size=4, replace=False)
    line = [c * a for c in scales]
    sides = [s * normal * rng.uniform(1, 2) + a * rng.uniform(-1, 1) for _ in range(4) for s in (1, -1)]
    return np.array(line + sides)


def test_depth_2d_boundary_points_match_fraction_count():
    # every halfplane through the origin that splits the side points evenly
    # has the line through the origin as its boundary, so the rounding of a
    # point's product with its own normal decides the depth
    wrong = []
    for seed in range(60):
        pts = _points_on_a_line_through_origin(np.random.default_rng(seed))
        if seed % 2:
            pts = np.concatenate([pts, np.zeros((1, 2))])  # x is an input point too
        got, want = depth_2d_exact([0.0, 0.0], pts), _fraction_depth([0.0, 0.0], pts)
        if got != want:
            wrong.append((seed, got, want))
    assert wrong == []


def test_depth_2d_coincident_points():
    pts = np.zeros((7, 2))
    assert depth_2d_exact([0.0, 0.0], pts) == 7


def test_depth_2d_validation():
    with pytest.raises(ValueError):
        depth_2d_exact([0.0, 0.0, 0.0], np.zeros((2, 3)))
    with pytest.raises(ValueError, match="too large"):
        depth_2d_exact([0.0, 0.0], np.zeros((1001, 2)))


def test_depth_2d_matches_halfplane_count_on_random_data():
    rng = np.random.default_rng(9)
    pts = rng.standard_normal((25, 2))
    x = pts.mean(axis=0)
    depth = depth_2d_exact(x, pts)
    # every sampled direction gives an upper bound on the depth
    offsets = pts - x
    for theta in np.linspace(0.0, 2 * math.pi, 720, endpoint=False):
        u = np.array([math.cos(theta), math.sin(theta)])
        assert depth <= int((offsets @ u >= 0.0).sum())
    assert depth >= 1
