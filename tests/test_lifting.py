import numpy as np
import pytest

from reference import (
    explicit_q_vectors,
    explicit_tensor,
    make_custom_graph,
    make_path_graph,
    q_dot,
)
from tverberg_nd.lifting import (
    LiftingGraph,
    heap_children,
    heap_parent,
    make_graph,
    quadratic_form,
    stats,
)


def all_family_graphs(k_max=8):
    """Every stock family instance with k <= k_max, plus a custom cycle."""
    out = []
    for k in range(1, k_max + 1):
        out.append(make_graph("star", k))
        out.append(make_path_graph(k))
        for arity in (2, 3, 4):
            out.append(make_graph("balanced_ary", k, arity))
        if k >= 3:
            out.append(make_custom_graph(k, [(i, (i + 1) % k) for i in range(k)]))
    return out


def test_star_structure():
    g = make_graph("star", 5)
    assert g.degrees.tolist() == [4, 1, 1, 1, 1]
    assert g.edges == ((0, 1), (0, 2), (0, 3), (0, 4))
    s = stats(g)
    assert (s.edge_count, s.max_degree, s.diameter_or_height) == (4, 4, 1)


def test_balanced_ary_structure():
    g = make_graph("balanced_ary", 7, 2)
    assert g.degrees.tolist() == [2, 3, 3, 1, 1, 1, 1]
    assert stats(g).diameter_or_height == 2
    # 4-ary tree on 21 nodes: root, 4 children, 16 grandchildren
    g4 = make_graph("balanced_ary", 21, 4)
    assert stats(g4).diameter_or_height == 2
    assert g4.degrees[0] == 4 and g4.degrees[20] == 1
    with pytest.raises(ValueError):
        make_graph("balanced_ary", 5)
    with pytest.raises(ValueError):
        make_graph("balanced_ary", 5, 1)


def test_path_structure():
    g = make_path_graph(4)
    assert g.adjacency == ((1,), (0, 2), (1, 3), (2,))
    s = stats(g)
    assert (s.edge_count, s.max_degree, s.diameter_or_height) == (3, 2, 3)
    with pytest.raises(ValueError, match="unknown graph kind"):
        make_graph("path", 4)  # the path is a test graph, built from its edge list


def test_single_node_graph():
    g = make_graph("star", 1)
    assert g.edges == ()
    assert q_dot(g, 0, 0) == 0
    assert quadratic_form(g, np.ones((1, 3))) == 0.0


def test_heap_indexing_consistency():
    for arity in (2, 3, 4):
        for k in (1, 2, 7, 13):
            for x in range(k):
                for c in heap_children(x, arity, k):
                    assert heap_parent(c, arity) == x
                if x > 0:
                    assert x in heap_children(heap_parent(x, arity), arity, k)


def test_custom_graph_validation():
    with pytest.raises(ValueError, match="connected"):
        make_custom_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="self loops"):
        make_custom_graph(2, [(0, 0)])
    with pytest.raises(ValueError, match="symmetric"):
        LiftingGraph(2, ((1,), ()), "custom")
    with pytest.raises(ValueError):
        LiftingGraph(0, (), "star")


def test_q_dot_against_explicit_vectors():
    for g in all_family_graphs():
        vecs = explicit_q_vectors(g).vectors
        for i in range(g.k):
            for j in range(g.k):
                assert q_dot(g, i, j) == int(vecs[i] @ vecs[j])


def test_q_vectors_sum_to_zero_exactly():
    for g in all_family_graphs():
        vecs = explicit_q_vectors(g).vectors
        assert not vecs.sum(axis=0).any()


def test_quadratic_form_against_explicit_sum():
    rng = np.random.default_rng(5)
    for g in all_family_graphs():
        lift = explicit_q_vectors(g)
        for trial in range(100):
            d = 1 + trial % 4
            u = rng.standard_normal((g.k, d))
            got = quadratic_form(g, u)
            if lift.vectors.shape[1]:
                total = sum(explicit_tensor(u[i], lift.vectors[i]) for i in range(g.k))
                want = float(total @ total)
            else:
                want = 0.0
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
            assert got >= 0.0


def test_quadratic_form_translation_invariant():
    rng = np.random.default_rng(6)
    g = make_graph("balanced_ary", 9, 3)
    u = rng.standard_normal((9, 4))
    shift = rng.standard_normal(4)
    a = quadratic_form(g, u)
    b = quadratic_form(g, u + shift)
    assert abs(a - b) <= 1e-9 * max(1.0, a)


def test_quadratic_form_zero_iff_rows_equal():
    g = make_path_graph(6)
    u = np.tile(np.array([2.0, -1.0]), (6, 1))
    assert quadratic_form(g, u) == 0.0
    u2 = u.copy()
    u2[3, 0] += 1.0
    assert quadratic_form(g, u2) > 0.0
    with pytest.raises(ValueError):
        quadratic_form(g, np.zeros((5, 2)))


def test_derived_arrays_are_computed_once_and_read_only():
    g = make_graph("balanced_ary", 9, 2)
    assert g.degrees is g.degrees and g.edges is g.edges and g._edge_index is g._edge_index
    assert not g.degrees.flags.writeable
    lo, hi = g._edge_index
    assert list(zip(lo.tolist(), hi.tolist())) == list(g.edges)
    assert make_graph("star", 1)._edge_index[0].size == 0
