import dataclasses
import math

import numpy as np
import pytest

from reference import enumerate_colorful, explicit_q_vectors, explicit_tensor, shift_objective
from tverberg_nd.colorful import (
    ColorInstance,
    check_colorful_certificate,
    colorful_radius_bound,
    partition_colorful,
    shift_objectives,
)
from tverberg_nd.geom import diameter_exact
from tverberg_nd.lifting import make_graph, quadratic_form
from tverberg_nd.tverberg import InfeasibleError


def test_color_instance_validation():
    with pytest.raises(ValueError):
        ColorInstance(np.zeros((2, 3)))
    for value in (np.nan, np.inf, -np.inf):  # a single non-finite entry among finite ones
        classes = np.arange(24.0).reshape(2, 4, 3)
        classes[1, 2, 0] = value
        with pytest.raises(ValueError, match="finite"):
            ColorInstance(classes)
    with pytest.raises(ValueError, match="same number of points"):
        ColorInstance.from_arrays([np.zeros((2, 1)), np.zeros((3, 1))])
    inst = ColorInstance.from_arrays([np.zeros((2, 2)), np.ones((2, 2))])
    assert (inst.n_classes, inst.k, inst.dim) == (2, 2, 2)


def test_colorful_radius_bound_value():
    assert math.isclose(colorful_radius_bound(50, 4, 1.0), math.sqrt(24.0 / 200.0), rel_tol=1e-12)
    assert colorful_radius_bound(10, 1, 5.0) == 0.0
    with pytest.raises(InfeasibleError):
        colorful_radius_bound(0, 4, 1.0)


def test_shift_objectives_match_scalar_form():
    rng = np.random.default_rng(0)
    for k in (1, 2, 3, 5, 8):
        members = rng.standard_normal((k, 3))
        running = rng.standard_normal((k, 3))
        vec = shift_objectives(members, running)
        for t in range(k):
            assert abs(vec[t] - shift_objective(members, running, t)) <= 1e-9 * (1 + abs(vec[t]))


def test_shift_objectives_track_true_norm_increments():
    """Objective differences equal the true squared-norm increments.

    The greedy claims to minimize ||sum of lifted points so far||^2
    exactly, so objective(t) may differ from that squared norm only by a
    shift-independent constant.
    """
    rng = np.random.default_rng(1)
    k = 4
    g = make_graph("star", k)
    idx = np.arange(k)
    for _ in range(10):
        members = rng.standard_normal((k, 2))
        running = rng.standard_normal((k, 2))
        objs = shift_objectives(members, running)
        base = quadratic_form(g, running)
        deltas = np.array(
            [quadratic_form(g, running + members[(idx - t) % k]) - base for t in range(k)]
        )
        spread = (objs - objs[0]) - (deltas - deltas[0])
        assert np.abs(spread).max() <= 1e-9 * (1.0 + np.abs(deltas).max())


def test_partition_replays_exact_shift_minima():
    rng = np.random.default_rng(2)
    inst = ColorInstance(rng.standard_normal((8, 3, 2)))
    cert = partition_colorful(inst)
    g = make_graph("star", 3)
    idx = np.arange(3)
    running = np.zeros((3, 2))
    for c in range(7, -1, -1):
        members = inst.classes[c]
        vals = np.array([quadratic_form(g, running + members[(idx - t) % 3]) for t in range(3)])
        chosen = cert.shifts[c]
        assert vals[chosen] <= vals.min() + 1e-9 * (1.0 + vals.min())
        running += members[(idx - chosen) % 3]


def test_identical_members_tie_breaks_to_shift_zero():
    # every shift scores the same, so the first one wins
    classes = np.tile(np.array([[1.0, 2.0]]), (4, 3, 1))
    cert = partition_colorful(classes)
    assert cert.shifts == (0, 0, 0, 0)


def test_partition_colorful_basic():
    rng = np.random.default_rng(3)
    inst = ColorInstance(rng.standard_normal((20, 4, 3)))
    cert = partition_colorful(inst)
    assert cert.n_classes == 20 and cert.k == 4
    for part in cert.parts:
        assert sorted(c for c, _ in part) == list(range(20))
    hub = np.stack([inst.classes[c][i] for c, i in cert.parts[0]]).mean(axis=0)
    assert np.allclose(cert.ball.center, hub)
    assert cert.radius_achieved <= cert.radius_guaranteed + 1e-9
    checks = check_colorful_certificate(cert, inst)
    assert all(c.ok for c in checks)
    assert "traversal_norm_within_bound" in {c.name for c in checks}


def test_single_point_classes_and_single_class():
    rng = np.random.default_rng(4)
    one_point = partition_colorful(rng.standard_normal((6, 1, 2)))
    assert one_point.k == 1 and one_point.radius_guaranteed == 0.0
    one_class = partition_colorful(rng.standard_normal((1, 5, 2)))
    assert one_class.n_classes == 1
    assert all(len(part) == 1 for part in one_class.parts)


def test_colorful_dominance_against_enumeration():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(1, 7))
        k = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        classes = rng.standard_normal((n, k, d))
        cert = partition_colorful(classes)
        rep = enumerate_colorful(classes)
        got = (cert.lifted_sum_norm / n) ** 2
        assert got <= rep.mean_sq_norm * (1 + 1e-9) + 1e-12


def test_assignment_identical_under_translation():
    rng = np.random.default_rng(6)
    classes = rng.standard_normal((25, 5, 4))
    v = rng.standard_normal(4) * 50.0
    a = partition_colorful(classes)
    b = partition_colorful(classes + v)
    assert a.shifts == b.shifts
    assert a.parts == b.parts


def test_partition_colorful_deterministic():
    rng = np.random.default_rng(7)
    classes = rng.standard_normal((15, 4, 3))
    a = partition_colorful(classes)
    b = partition_colorful(classes)
    assert a.shifts == b.shifts
    assert np.array_equal(a.part_centroids, b.part_centroids)
    assert a.lifted_sum_norm == b.lifted_sum_norm


def test_lifted_class_diameter_bound():
    """Each whole-class lift stays within 2 sqrt(k-1) class diameters."""
    rng = np.random.default_rng(8)
    for k in (2, 3, 4):
        lift = explicit_q_vectors(make_graph("star", k))
        for d in (1, 2, 3):
            members = rng.standard_normal((k, d))
            elements = np.stack(
                [
                    sum(
                        explicit_tensor(members[i], lift.vectors[(i + t) % k])
                        for i in range(k)
                    )
                    for t in range(k)
                ]
            )
            diam = diameter_exact(members)
            norms = np.sqrt(np.einsum("ij,ij->i", elements, elements))
            assert norms.max() <= math.sqrt(k - 1.0) * diam * (1 + 1e-9)
            assert diameter_exact(elements) <= 2.0 * math.sqrt(k - 1.0) * diam * (1 + 1e-9)
            # the k shifts route every member through every node once over
            assert np.abs(elements.sum(axis=0)).max() <= 1e-9 * (1.0 + np.abs(elements).max())


def test_checker_flags_tampering():
    rng = np.random.default_rng(9)
    inst = ColorInstance(rng.standard_normal((10, 3, 2)))
    cert = partition_colorful(inst)

    bad_norm = dataclasses.replace(cert, lifted_sum_norm=cert.lifted_sum_norm + 5.0)
    names = {c.name for c in check_colorful_certificate(bad_norm, inst) if not c.ok}
    assert "lifted_sum_norm_matches" in names

    shrunk = dataclasses.replace(cert, radius_guaranteed=cert.radius_guaranteed / 100.0)
    names = {c.name for c in check_colorful_certificate(shrunk, inst) if not c.ok}
    assert "guarantee_formula" in names

    # rotating every shift moves each part onto the next node, away from its stored centroid
    rotated = tuple((t + 1) % cert.k for t in cert.shifts)
    moved = dataclasses.replace(cert, shifts=rotated)
    names = {c.name for c in check_colorful_certificate(moved, inst) if not c.ok}
    assert "part_centroids_match" in names

    off = dataclasses.replace(cert, part_centroids=cert.part_centroids + 1.0)
    names = {c.name for c in check_colorful_certificate(off, inst) if not c.ok}
    assert "part_centroids_match" in names

    tiny = dataclasses.replace(cert, radius_guaranteed=1e-6)
    assert tiny.ball.radius == 1e-6
    failed = {c.name for c in check_colorful_certificate(tiny, inst) if not c.ok}
    assert {"radius_within_guarantee", "guarantee_formula"} <= failed


def test_checker_rejects_out_of_range_shifts():
    rng = np.random.default_rng(10)
    inst = ColorInstance(rng.standard_normal((4, 3, 2)))
    cert = partition_colorful(inst)
    bad = dataclasses.replace(cert, shifts=(0, 1, 2, 99))
    checks = check_colorful_certificate(bad, inst)
    by_name = {c.name: c.ok for c in checks}
    assert by_name["shifts_in_range"] is False
