import dataclasses
import warnings

import numpy as np
import pytest

from tverberg_nd.geom import PointSet, centroid
from tverberg_nd.hamsandwich import (
    align_centroids,
    check_depth_certificate,
    generalized_ham_sandwich,
    joint_depth_ball,
)
from tverberg_nd.oracle import depth_2d_exact
from tverberg_nd.tverberg import InfeasibleError, partition_nearly_balanced


def _centered(rng, n, d):
    pts = rng.standard_normal((n, d))
    return pts - pts.mean(axis=0)


def test_align_centroids_rejects_too_many_sets():
    rng = np.random.default_rng(1)
    sets = [_centered(rng, 8, 2) for _ in range(3)]
    with pytest.raises(InfeasibleError):
        align_centroids(sets)


def test_align_centroids_zeroes_every_centroid():
    rng = np.random.default_rng(2)
    sets = [_centered(rng, 12, 5), rng.standard_normal((9, 5)), rng.standard_normal((7, 5))]
    t, basis = align_centroids(sets)
    assert basis.shape == (3, 5)
    for x in sets:
        assert float(np.linalg.norm(((x - t) @ basis.T).mean(axis=0))) <= 1e-9
    # the basis is orthonormal and orthogonal to both centroid directions it eliminated
    assert np.abs(basis @ basis.T - np.eye(3)).max() <= 1e-12
    assert np.abs(basis @ (sets[1].mean(axis=0) - t)).max() <= 1e-12
    assert np.abs(basis @ (sets[2].mean(axis=0) - t)).max() <= 1e-12


def test_align_centroids_translates_uncentered_sets():
    # the translation is the first set's centroid bit for bit, and every translated centroid vanishes
    sets = _offset_sets(25, 3, 80, 6)
    t, basis = align_centroids(sets)
    assert np.array_equal(t, centroid(sets[0]))
    assert basis.shape == (4, 6)
    assert np.abs(basis @ basis.T - np.eye(4)).max() <= 1e-12
    for x in sets:
        assert np.abs(basis @ centroid(x - t)).max() <= 1e-12


# (seed, k, n, d): set i gets n + 7 i rows around its own random offset
_CHAIN_SHAPES = [(20, 2, 60, 3), (21, 3, 300, 8), (22, 5, 400, 16), (23, 8, 600, 64), (24, 3, 250, 64)]


def _offset_sets(seed, k, n, d):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((n + 7 * i, d)) + rng.uniform(-3.0, 3.0, d) for i in range(k)]


def _householder_rows(u):
    """Rows of the Householder reflection that maps unit vector u onto a signed axis, that axis's row removed."""
    j = int(np.argmax(np.abs(u)))
    w = u.copy()
    w[j] += 1.0 if u[j] >= 0.0 else -1.0
    h = np.eye(u.shape[0]) - (2.0 / float(w @ w)) * np.outer(w, w)
    return np.delete(h, j, axis=0)


def _iterated_projection(sets):
    """Reference chain: every whole set is re-projected at every step."""
    cur = [np.asarray(x, dtype=np.float64) for x in sets]
    basis = np.eye(cur[0].shape[1])
    for i in range(1, len(cur)):
        c = cur[i].mean(axis=0)
        rows = _householder_rows(c / np.linalg.norm(c))
        cur = [x @ rows.T for x in cur]
        basis = rows @ basis
    return basis, cur


@pytest.mark.parametrize("seed,k,n,d", _CHAIN_SHAPES)
def test_centroid_chain_matches_iterated_projection(seed, k, n, d):
    # any orthonormal basis of the same subspace will do, so compare projectors and Gram matrices
    sets = _offset_sets(seed, k, n, d)
    t, basis = align_centroids(sets)
    translated = [x - t for x in sets]
    reference, iterated = _iterated_projection(translated)
    assert np.abs(basis.T @ basis - reference.T @ reference).max() <= 1e-12
    for x, r in zip(translated, iterated):
        q = x @ basis.T
        assert np.abs(q @ q.T - r @ r.T).max() <= 1e-11  # entries stay below 1e3 in magnitude


@pytest.mark.parametrize("seed,k,n,d", _CHAIN_SHAPES)
def test_per_set_certificates_rebuild_on_checker_projection(seed, k, n, d):
    sets = _offset_sets(seed, k, n, d)
    cert = generalized_ham_sandwich(sets, (5,) * k)
    for x, sub in zip(sets, cert.per_set):
        rebuilt = partition_nearly_balanced((x - cert.translation) @ cert.basis.T, sub.k)
        assert rebuilt.parts == sub.parts
        assert np.array_equal(rebuilt.part_centroids, sub.part_centroids)


def test_align_centroids_degenerate_fallback():
    # both centroids exactly at the origin: the factorization drops axis 0
    base = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0]])
    t, basis = align_centroids([base, base.copy()])
    assert np.array_equal(t, np.zeros(3))
    assert np.array_equal(basis, np.eye(3)[1:])


def _coincident_centroids():
    rng = np.random.default_rng(30)
    a, b = rng.standard_normal((40, 3)), rng.standard_normal((44, 3))
    shift = np.array([1.0, -2.0, 0.5])
    return [a - a.mean(axis=0) + shift, b - b.mean(axis=0) + shift]


@pytest.mark.parametrize(
    "sets",
    [
        pytest.param(_coincident_centroids(), id="coincident_centroids"),
        pytest.param(_offset_sets(31, 4, 50, 4), id="k_equals_d"),
        pytest.param(_offset_sets(32, 1, 50, 3), id="one_set"),
    ],
)
def test_frame_from_qr_passes_every_check(sets):
    k, d = len(sets), sets[0].shape[1]
    cert = generalized_ham_sandwich(sets, (5,) * k)
    assert cert.basis.shape == (d - k + 1, d)
    if k == 1:
        assert np.array_equal(cert.basis, np.eye(d))
    failed = [c.name for c in check_depth_certificate(cert, sets) if not c.ok]
    assert not failed


def test_joint_depth_ball_m_validation():
    rng = np.random.default_rng(3)
    sets = [rng.standard_normal((10, 2))]
    t, basis = align_centroids(sets)
    with pytest.raises(InfeasibleError):
        joint_depth_ball(sets, t, basis, (1,))
    with pytest.raises(InfeasibleError):
        joint_depth_ball(sets, t, basis, (11,))
    with pytest.raises(InfeasibleError):
        joint_depth_ball(sets, t, basis, (5, 5))


def test_joint_depth_ball_whole_set_one_part():
    rng = np.random.default_rng(4)
    sets = [rng.standard_normal((10, 2)) + 3.0]
    radius, certs, depths = joint_depth_ball(sets, *align_centroids(sets), (10,))
    assert depths == (1,)
    assert certs[0].k == 1
    assert radius == 0.0


def test_product_set_membership():
    rng = np.random.default_rng(5)
    p1 = rng.standard_normal((20, 3)) + np.array([1.0, 2.0, 3.0])
    p2 = rng.standard_normal((20, 3)) + np.array([0.0, 0.0, 4.0])
    cert = generalized_ham_sandwich([p1, p2], (4, 4))
    center = cert.translation + cert.ball.center @ cert.basis
    assert cert.contains(center)
    # sliding any distance along an eliminated axis never leaves the set
    eliminated = np.linalg.svd(cert.basis)[2][-1]  # the unit vector orthogonal to both basis rows
    assert cert.contains(center + 1e6 * eliminated)
    # stepping past the radius inside the subspace does
    assert not cert.contains(center + (cert.ball.radius + 0.5) * cert.basis[0])


def test_full_pipeline_two_sets_in_3d():
    rng = np.random.default_rng(6)
    sets = [rng.standard_normal((60, 3)), rng.standard_normal((60, 3)) + 2.0]
    cert = generalized_ham_sandwich(sets, (6, 6))
    assert cert.depth_lower_bounds == (10, 10)
    assert all(sub.k == 10 for sub in cert.per_set)
    assert cert.radius == cert.ball.radius
    assert cert.oracle_depths is None  # oracle only runs in the plane
    checks = check_depth_certificate(cert, [PointSet(s) for s in sets])
    assert all(c.ok for c in checks)


def test_single_set_planar_depth_oracle():
    rng = np.random.default_rng(7)
    pts = rng.random((40, 2))
    cert = generalized_ham_sandwich([pts], (4,))
    assert cert.depth_lower_bounds == (10,)
    assert cert.oracle_depths is not None
    assert cert.oracle_depths[0] == depth_2d_exact(cert.translation, pts)
    # well-spread data: the center is at least as deep as the part count
    assert cert.oracle_depths[0] >= cert.depth_lower_bounds[0]


def test_pipeline_validation():
    rng = np.random.default_rng(8)
    pts = rng.standard_normal((10, 2))
    with pytest.raises(InfeasibleError):
        generalized_ham_sandwich([pts, pts, pts], (2, 2, 2))
    with pytest.raises(InfeasibleError):
        generalized_ham_sandwich([pts], (2, 2))
    with pytest.raises(ValueError, match="share one dimension"):
        generalized_ham_sandwich([pts, rng.standard_normal((10, 3))], (2, 2))


def test_pipeline_deterministic():
    rng = np.random.default_rng(9)
    sets = [rng.standard_normal((30, 4)), rng.standard_normal((25, 4)) - 1.0]
    a = generalized_ham_sandwich(sets, (5, 5))
    b = generalized_ham_sandwich(sets, (5, 5))
    assert np.array_equal(a.basis, b.basis)
    assert np.array_equal(a.translation, b.translation)
    assert a.ball.radius == b.ball.radius
    assert all(x.parts == y.parts for x, y in zip(a.per_set, b.per_set))


def test_checker_flags_tampering():
    rng = np.random.default_rng(10)
    sets = [PointSet(rng.standard_normal((24, 3))), PointSet(rng.standard_normal((24, 3)))]
    cert = generalized_ham_sandwich(sets, (4, 4))

    small = dataclasses.replace(cert, radius=cert.radius / 3.0)
    names = {c.name for c in check_depth_certificate(small, sets) if not c.ok}
    assert "radius_is_twice_worst_guarantee" in names

    shifted = dataclasses.replace(cert, translation=cert.translation + 1.0)
    names = {c.name for c in check_depth_certificate(shifted, sets) if not c.ok}
    assert "translation_is_first_centroid" in names

    wrong_depth = dataclasses.replace(cert, depth_lower_bounds=(99, cert.depth_lower_bounds[1]))
    names = {c.name for c in check_depth_certificate(wrong_depth, sets) if not c.ok}
    assert "set0_depth_bound" in names


@pytest.mark.parametrize("value", [0.0, np.nan, np.inf], ids=["zero", "nan", "inf"])
def test_degenerate_basis_row_fails_orthonormality(value):
    # a basis row that is not a unit vector fails the check, not the run
    rng = np.random.default_rng(11)
    sets = [PointSet(rng.standard_normal((24, 3))), PointSet(rng.standard_normal((24, 3)) + 1.0)]
    cert = generalized_ham_sandwich(sets, (4, 4))
    basis = cert.basis.copy()
    basis[0] = value
    with np.errstate(invalid="ignore"):  # inf times a zero in the Gram matrix
        checks = check_depth_certificate(dataclasses.replace(cert, basis=basis), sets)
    assert [c.name for c in checks if not c.ok] == ["basis_orthonormal"]


def test_empty_part_fails_without_a_warning():
    # an empty part has no centroid; the cover check skips it and the per-set check names it
    rng = np.random.default_rng(12)
    sets = [PointSet(rng.standard_normal((24, 3))), PointSet(rng.standard_normal((24, 3)) + 1.0)]
    cert = generalized_ham_sandwich(sets, (4, 4))
    sub = dataclasses.replace(cert.per_set[0], parts=cert.per_set[0].parts + ((),))
    bad = dataclasses.replace(cert, per_set=(sub, cert.per_set[1]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        failed = {c.name for c in check_depth_certificate(bad, sets) if not c.ok}
    assert "set0_partition_certificate" in failed
