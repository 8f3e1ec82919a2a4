import math

import numpy as np
import pytest

from reference import (
    enumerate_colorful,
    enumerate_traversals,
    explicit_q_vectors,
    explicit_tensor,
)
from tverberg_nd.geom import PointSet
from tverberg_nd.lifting import make_graph


def test_explicit_tensor_layout():
    out = explicit_tensor([1.0, 2.0], [3.0, 0.0, -1.0])
    assert out.tolist() == [3.0, 6.0, 0.0, 0.0, -1.0, -2.0]


def test_explicit_q_vectors_star():
    lift = explicit_q_vectors(make_graph("star", 3))
    assert lift.edges == ((0, 1), (0, 2))
    assert lift.vectors.tolist() == [[1, 1], [-1, 0], [0, -1]]


def test_enumerate_traversals_line_example():
    """Four collinear points split 2+2 over a two-node graph.

    The six assignments give centroid norms {2, 1, 0, 0, 1, 2}; the mean
    of the squares is 5/3 and the first minimizer puts rows 0 and 3
    together.
    """
    pts = np.array([[-3.0], [-1.0], [1.0], [3.0]])
    rep = enumerate_traversals(pts, (2, 2), make_graph("star", 2))
    assert rep.count == 6
    assert math.isclose(rep.mean_sq_norm, 5.0 / 3.0, rel_tol=1e-12)
    assert rep.min_sq_norm == 0.0
    assert rep.argmin == (0, 1, 1, 0)


def test_enumerate_traversals_count_is_multinomial():
    rng = np.random.default_rng(0)
    pts = rng.random((6, 2))
    rep = enumerate_traversals(pts, (2, 2, 2), make_graph("star", 3))
    assert rep.count == math.factorial(6) // 8
    assert rep.min_sq_norm <= rep.mean_sq_norm


def test_enumerate_traversals_validation():
    pts = np.zeros((4, 1))
    g2 = make_graph("star", 2)
    with pytest.raises(ValueError):
        enumerate_traversals(pts, (2, 1), g2)
    with pytest.raises(ValueError):
        enumerate_traversals(pts, (4, 0), g2)
    with pytest.raises(ValueError):
        enumerate_traversals(pts, (2, 2), make_graph("star", 3))
    with pytest.raises(ValueError, match="too large"):
        enumerate_traversals(np.zeros((30, 1)), (15, 15), g2)


def test_enumerate_colorful_two_classes():
    # two classes {0, 1} on a 2-node star: shift pairs score {1, 0, 0, 1}
    classes = np.array([[[0.0], [1.0]], [[0.0], [1.0]]])
    rep = enumerate_colorful(classes)
    assert rep.count == 4
    assert math.isclose(rep.mean_sq_norm, 0.5, rel_tol=1e-12)
    assert rep.min_sq_norm == 0.0
    assert rep.argmin == (0, 1)


def test_enumerate_colorful_validation():
    with pytest.raises(ValueError, match="at least one class"):
        enumerate_colorful([])
    with pytest.raises(ValueError, match="share size"):
        enumerate_colorful([np.zeros((2, 1)), np.zeros((3, 1))])
    with pytest.raises(ValueError, match="graph order"):
        enumerate_colorful([np.zeros((2, 1))], make_graph("star", 3))
    with pytest.raises(ValueError, match="too large"):
        enumerate_colorful(np.zeros((30, 4, 1)))


def test_enumerate_colorful_accepts_point_sets():
    classes = [PointSet([[0.0], [1.0]]), PointSet([[4.0], [5.0]])]
    rep = enumerate_colorful(classes)
    assert rep.count == 4
