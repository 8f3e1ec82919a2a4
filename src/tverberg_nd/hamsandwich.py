"""Common depth balls for several point sets via one centroid-free subspace.

Given k point sets in d dimensions with k <= d, the construction
translates everything so the first set's centroid sits at the origin.
Projection is linear, so only the k centroids decide the subspace: one
complete QR factorization C = QR of the d x (k-1) matrix C of the other
centroids gives `basis`, the last d-k+1 columns of Q as rows. They are
orthonormal, and orthogonal to every column of C whatever its rank, since
R is zero below row k-1, so every centroid vanishes in their span. Each
set is then projected alone, as (x - translation) @ basis.T (_project,
which check_depth_certificate uses too), partitioned and dropped.

Each projected set is split into ceil(|P_i| / m_i) nearly equal parts.
All part centroids of set i land within twice that run's radius
guarantee of the origin (the set centroid is a weighted mean of the part
centroids, so the part-0 centroid that anchors the run's ball lies
within one guarantee of the origin). A ball at the origin with radius
max_i (2 * guarantee_i) therefore contains every projected part centroid.

Pulled back to the input space, the certified region is the cylinder
{x : |basis (x - translation)| <= radius} (DepthCertificate.contains).
The claim holds for any row-orthonormal basis whose projected part
centroids lie in the ball, however it was found: a halfspace containing
the cylinder contains every line along which the cylinder extends, so
its normal lies in the row space of basis; it then contains each part
centroid, whose projection lies in the ball, and so at least one point
of every part, which is at least ceil(|P_i| / m_i) points of every set.
A certificate therefore stores the basis alone, not how it was found,
and the ball sits at the origin of the subspace, the translation, so
it stores the radius alone.

The build self-checks how the pieces fit together (_frame_checks): the
frame, the depth bounds, the radius, the ball's cover of every stored
part centroid, and the set diameters. It projects no set: the per-set
certificates hold the part centroids, which the partitioner checked on
the same projected arrays, and the planar oracle depths are the
oracle's own output. check_depth_certificate, the external check,
rederives both as well, projecting one set at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geom import Ball, PointSet, _as_point_set, centroid, diameter_bound
from .oracle import depth_2d_exact
from .tverberg import (
    ABS_GUARD,
    REL_SLACK,
    CheckResult,
    InfeasibleError,
    TverbergCertificate,
    _Checks,
    _radius,
    _require,
    check_certificate,
    partition_nearly_balanced,
)

__all__ = [
    "DepthCertificate",
    "align_centroids",
    "check_depth_certificate",
    "generalized_ham_sandwich",
    "joint_depth_ball",
]

CENTERED_TOL = 1e-9


def _centering_scale(pts: list[PointSet]) -> float:
    """The scale of every centering tolerance: max(1, max |x|) over all coordinates."""
    return float(max([1.0] + [max(-p.coords.min(initial=0.0), p.coords.max(initial=0.0)) for p in pts]))


def _project(p: PointSet, translation: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """The set in the final subspace's coordinates: (x - translation) @ basis.T."""
    return (p.coords - translation) @ basis.T


def align_centroids(sets) -> tuple[np.ndarray, np.ndarray]:
    """The translation and (d-k+1, d) basis of a subspace in which all k centroids vanish.

    The translation is the first set's centroid. The basis is the
    orthogonal complement of the other k-1 centroids, each taken of its
    set translated, one set at a time: the trailing columns of one
    complete QR factorization of their d x (k-1) matrix. No case is
    special: k = 1 gives the identity, and an exactly zero centroid
    drops axis 0. No set is projected.
    """
    pts = [_as_point_set(p) for p in sets]
    if not pts:
        raise InfeasibleError("need at least one point set")
    k, d = len(pts), pts[0].dim
    if any(p.dim != d for p in pts):
        raise InfeasibleError("point sets must share one dimension")
    if k > d:
        raise InfeasibleError("more point sets than dimensions")
    t = centroid(pts[0])
    cents = np.array([centroid(p.coords - t) for p in pts[1:]]).reshape(k - 1, d)
    return t, np.linalg.qr(cents.T, mode="complete")[0][:, k - 1 :].T


def joint_depth_ball(sets, translation, basis, m) -> tuple[float, list[TverbergCertificate], tuple[int, ...]]:
    """The radius of one ball at the subspace origin meeting every part hull of every set.

    Projects each set alone by _project, splits it into ceil(|P_i| / m_i)
    nearly equal parts and drops the projection. The radius is twice the
    largest per-run radius guarantee, which covers every part centroid
    because each run's anchor centroid sits within its own guarantee of
    the origin. Also returns the per-set certificates and their part counts.
    """
    pts = [_as_point_set(p) for p in sets]
    if len(m) != len(pts):
        raise InfeasibleError("need one part-size parameter per set")
    certs: list[TverbergCertificate] = []
    for p, m_i in zip(pts, m):
        if not 2 <= int(m_i) <= p.n:
            raise InfeasibleError("part size parameters must satisfy 2 <= m_i <= |P_i|")
        certs.append(partition_nearly_balanced(_project(p, translation, basis), -(-p.n // int(m_i))))
    return max(2.0 * c.radius_guaranteed for c in certs), certs, tuple(c.k for c in certs)


@dataclass(frozen=True, eq=False)
class DepthCertificate:
    """Joint depth ball, its frame, and per-set witnesses.

    basis rows are an orthonormal basis of the final subspace, in input
    coordinates: local coordinates of x are basis @ (x - translation).
    per_set holds one partition certificate per input set, built on the
    set's projection (x - translation) @ basis.T (rows indexed as in the
    input sets). radius is the radius of the ball, which sits at the
    origin of the final subspace, so the ball's center in input
    coordinates is translation; the ball property is derived from it.
    depth_lower_bounds[i] = ceil(|P_i| / m[i]) is the number of parts,
    hence the minimum point count of set i in any halfspace containing
    the region {x : |basis (x - translation)| <= radius} (see contains).
    That holds for any row-orthonormal basis whose projected part
    centroids lie in the ball: the normal of such a halfspace lies in
    the row space of basis, so the halfspace contains every part
    centroid and therefore a point of every part.
    existential_radius = (2 + 2*sqrt(2)) * max_i diam(P_i)/sqrt(m_i) is
    the smaller non-constructive target it replaces, reported for
    comparison only. oracle_depths holds the exact planar depth of the
    ball center per original set when _has_oracle holds, else None.
    """

    translation: np.ndarray
    basis: np.ndarray
    radius: float
    m: tuple[int, ...]
    depth_lower_bounds: tuple[int, ...]
    per_set: tuple[TverbergCertificate, ...]
    existential_radius: float
    set_diameters: tuple[float, ...]
    set_diameters_exact: tuple[bool, ...]
    oracle_depths: tuple[int, ...] | None

    @property
    def ball(self) -> Ball:
        """The certified ball in the final subspace's coordinates."""
        return Ball(np.zeros(self.basis.shape[0]), self.radius)

    def contains(self, x, tol: float = 1e-9) -> bool:
        """Membership in the certified region: the ball times the projected-out lines.

        Only the component of x - translation inside the final subspace
        is constrained; components along the eliminated lines are free.
        """
        z = self.basis @ (np.asarray(x, dtype=np.float64) - self.translation)
        return float(np.linalg.norm(z)) <= self.radius + tol


def _has_oracle(pts: list[PointSet]) -> bool:
    """Whether a depth certificate holds oracle depths: d = 2 and at most 1000 points a set."""
    return pts[0].dim == 2 and all(p.n <= 1000 for p in pts)


def generalized_ham_sandwich(sets, m) -> DepthCertificate:
    """Build a depth certificate shared by the k input sets (k <= d)."""
    pts = [_as_point_set(p) for p in sets]
    m = tuple(int(v) for v in m)

    t, basis = align_centroids(pts)
    radius, per_set, depths = joint_depth_ball(pts, t, basis, m)

    diams, exact = zip(*(diameter_bound(p) for p in pts))
    oracle_depths = tuple(depth_2d_exact(t, p) for p in pts) if _has_oracle(pts) else None

    cert = DepthCertificate(
        translation=t,
        basis=basis,
        radius=radius,
        m=m,
        depth_lower_bounds=depths,
        per_set=tuple(per_set),
        existential_radius=_existential_radius(diams, m),
        set_diameters=diams,
        set_diameters_exact=exact,
        oracle_depths=oracle_depths,
    )
    _require(_frame_checks(cert, pts))
    return cert


def _existential_radius(diams, m) -> float:
    """(2 + 2*sqrt(2)) * max_i diam(P_i) / sqrt(m_i): reported for comparison, not certified."""
    return (2.0 + 2.0 * math.sqrt(2.0)) * max(dv / math.sqrt(mi) for dv, mi in zip(diams, m))


def _frame_checks(cert: DepthCertificate, pts: list[PointSet]) -> _Checks:
    """Check how the pieces of a depth certificate fit together, from the raw sets.

    Covers the shapes, the translation, the basis, the projected set
    centroids, the depth bounds, the radius and the ball's cover of
    every part centroid, the set diameters and the existential radius.
    The depth claim needs no more of the frame than an orthonormal basis
    whose projected part centroids lie in the ball: a halfspace
    containing {x : |basis (x - translation)| <= radius} has its normal
    in the row space of basis, so it contains every part centroid and a
    point of every part. How the basis was found is not checked. No set
    is projected: the cover is measured on each per-set certificate's
    part_centroids, which check_certificate matches to its projected
    set. The checks stop when the shapes, the translation or the basis
    fail.
    """
    checks = _Checks()
    k = len(pts)
    d = pts[0].dim if pts else 0
    scale = _centering_scale(pts)
    basis, sub_dim = cert.basis, d - (k - 1)

    checks.add("set_count_at_most_dim", 1 <= k <= d, f"k={k} d={d}")
    per_set = (cert.per_set, cert.m, cert.depth_lower_bounds, cert.set_diameters, cert.set_diameters_exact)
    lengths = [len(v) for v in per_set]
    shapes = [a.shape for a in (cert.translation, basis)]
    shapes_ok = lengths == [k] * 5 and shapes == [(d,), (sub_dim, d)]
    checks.add("shapes_consistent", shapes_ok, f"k={k} d={d}: lengths {lengths}, shapes {shapes}")
    if not shapes_ok:
        return checks

    with np.errstate(over="ignore", invalid="ignore"):  # a huge entry overflows to inf and fails below
        t_err = np.linalg.norm(cert.translation - centroid(pts[0]))
        gram_err = float(np.abs(basis @ basis.T - np.eye(sub_dim)).max())
    checks.close("translation_is_first_centroid", t_err, 0.0, scale)
    if not checks[-1].ok:  # a projection from a far translation can overflow
        return checks
    checks.add("basis_orthonormal", gram_err <= 1e-9, f"err {gram_err:.3e}")
    if not gram_err <= 1e-9:  # also NaN: the rows are then no frame to measure the ball in
        return checks

    cent_err = max(float(np.linalg.norm(basis @ (centroid(p) - cert.translation))) for p in pts)
    checks.add(
        "projected_centroids_vanish", cent_err <= CENTERED_TOL * scale + ABS_GUARD, f"max {cent_err:.3e}"
    )
    for i, (p, sub) in enumerate(zip(pts, cert.per_set)):
        expected = -(-p.n // cert.m[i])
        checks.add(
            f"set{i}_depth_bound",
            cert.depth_lower_bounds[i] == expected == sub.k and 2 <= cert.m[i] <= p.n,
            f"stored {cert.depth_lower_bounds[i]} expected {expected}",
        )
    bounds_ok = all(c.ok for c in checks[-k:])  # then each m_i <= |P_i|, and sqrt(m_i) cannot overflow

    radius = max(2.0 * sub.radius_guaranteed for sub in cert.per_set)
    checks.close("radius_is_twice_worst_guarantee", radius, cert.radius, radius)

    cover_slack = CENTERED_TOL * scale + REL_SLACK * max(cert.radius, 1.0) + ABS_GUARD
    worst = float(np.max([_radius(sub.part_centroids, np.zeros(sub_dim)) for sub in cert.per_set]))
    checks.add(
        "ball_covers_all_part_centroids",
        worst <= cert.radius + cover_slack,
        f"worst {worst!r} radius {cert.radius!r}",
    )

    diams = [p.diameter if exact else p.upper_diameter for p, exact in zip(pts, cert.set_diameters_exact)]
    checks.close("set_diameters_match", diams, cert.set_diameters, scale)
    existential = _existential_radius(cert.set_diameters, cert.m) if bounds_ok else math.nan  # nan fails
    checks.close("existential_radius_formula", existential, cert.existential_radius, existential)
    return checks


def check_depth_certificate(cert: DepthCertificate, sets) -> list[CheckResult]:
    """Recompute every claim of a depth certificate from the raw sets.

    The frame checks (see _frame_checks), then the two re-derivations a
    build does not need: each per-set certificate rechecked on its set
    projected by the stored frame, (x - translation) @ basis.T, one set
    at a time, and in the plane the exact oracle depths. A build's own
    self-check runs the frame checks alone, because each per-set
    certificate was checked on the same array when it was built and the
    oracle depths are the oracle's own output.
    """
    pts = [_as_point_set(p) for p in sets]
    checks = _frame_checks(cert, pts)
    if not any(c.name == "basis_orthonormal" and c.ok for c in checks):
        return checks  # a failed shape, translation or basis leaves no frame to project into
    for i, (p, sub) in enumerate(zip(pts, cert.per_set)):
        sub_checks = check_certificate(sub, _project(p, cert.translation, cert.basis))
        failed = [c.name for c in sub_checks if not c.ok]
        checks.add(f"set{i}_partition_certificate", not failed, ", ".join(failed))
    if _has_oracle(pts) or cert.oracle_depths is not None:
        ok = _has_oracle(pts) and tuple(depth_2d_exact(cert.translation, p) for p in pts) == cert.oracle_depths
        checks.add("oracle_depths_match", ok, "" if ok else f"stored {cert.oracle_depths}")
    return checks
