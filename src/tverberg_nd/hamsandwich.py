"""Common depth balls for several point sets via iterated projection.

Given k point sets in d dimensions with k <= d, the construction
translates everything so the first set's centroid sits at the origin,
then repeatedly projects along the centroid direction of the next set:
each step removes one dimension and zeroes that set's centroid, so after
k-1 steps all k projected sets share the origin as centroid inside a
(d-k+1)-dimensional subspace.

Each projected set is then split into ceil(|P_i| / m_i) nearly equal
parts. All part centroids of set i land within twice that run's radius
guarantee of the origin (the set centroid is a weighted mean of the part
centroids, so the part-0 centroid that anchors the run's ball lies
within one guarantee of the origin). A ball at the origin with radius
max_i (2 * guarantee_i) therefore contains every part centroid, and any
halfspace containing the ball picks up at least one point from each part:
at least ceil(|P_i| / m_i) points of every set.

Pulled back to the input space, the certified region is the product of
that ball with the k-1 projected-out lines: membership only constrains
the component inside the final subspace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geom import Ball, LineThroughOrigin, PointSet, centroid, diameter_bound
from .oracle import depth_2d_exact
from .tverberg import (
    ABS_GUARD,
    REL_SLACK,
    CertificateError,
    CheckResult,
    InfeasibleError,
    TverbergCertificate,
    check_certificate,
    partition_nearly_balanced,
)

__all__ = [
    "DepthCertificate",
    "ProductSet",
    "ProjectionChain",
    "align_centroids",
    "check_depth_certificate",
    "generalized_ham_sandwich",
    "joint_depth_ball",
    "product_set",
]

DEGENERATE_CENTROID_TOL = 1e-12
CENTERED_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class ProjectionChain:
    """The directions projected out, plus bases to move between frames.

    axes_local[i] is the direction eliminated at step i, written in the
    coordinates of the subspace it was found in (length shrinks by one
    per step). axes_ambient rows are the same directions as unit vectors
    of the input space; they are pairwise orthogonal. lines[i] is the
    unit line spanned by axes_local[i]. basis rows are an orthonormal
    basis of the final subspace, in input coordinates: local coordinates
    of y are basis @ y.
    """

    axes_local: tuple[np.ndarray, ...]
    axes_ambient: np.ndarray
    lines: tuple[LineThroughOrigin, ...]
    basis: np.ndarray

    @property
    def steps(self) -> int:
        return len(self.axes_local)


def _householder_rows(u: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the hyperplane orthogonal to unit vector u.

    Rows of the Householder reflection that maps u onto a signed
    canonical axis, with that axis's row removed. Deterministic: the
    pivot is the first coordinate of largest magnitude.
    """
    c = u.shape[0]
    j = int(np.argmax(np.abs(u)))
    sign = 1.0 if u[j] >= 0.0 else -1.0
    w = u.copy()
    w[j] += sign
    h = np.eye(c) - (2.0 / float(w @ w)) * np.outer(w, w)
    return np.delete(h, j, axis=0)


def align_centroids(sets) -> tuple[ProjectionChain, list[np.ndarray]]:
    """Project k sets into a (d-k+1)-dim subspace where all centroids vanish.

    The input must already have the first set's centroid at the origin;
    each step removes the current centroid direction of the next set (or
    a canonical fallback direction when those centroids already
    coincide, so the dimension still drops deterministically).
    """
    pts = [p if isinstance(p, PointSet) else PointSet(p) for p in sets]
    if not pts:
        raise InfeasibleError("need at least one point set")
    d = pts[0].dim
    k = len(pts)
    if any(p.dim != d for p in pts):
        raise ValueError("point sets must share one dimension")
    if k > d:
        raise InfeasibleError("more point sets than dimensions")
    scale = max(diameter_bound(p, 0)[0] for p in pts)
    scale = max(scale, float(max(np.abs(p.coords).max() for p in pts)))
    if float(np.linalg.norm(centroid(pts[0]))) > CENTERED_TOL * max(scale, 1.0):
        raise ValueError("first set must be centered at the origin")

    cur = [p.coords.astype(np.float64).copy() for p in pts]
    basis = np.eye(d)
    axes_local: list[np.ndarray] = []
    axes_ambient: list[np.ndarray] = []
    lines: list[LineThroughOrigin] = []
    for i in range(1, k):
        c = cur[i].mean(axis=0)
        norm = float(np.linalg.norm(c))
        if norm <= DEGENERATE_CENTROID_TOL * max(scale, 1.0):
            axis = np.zeros(basis.shape[0])
            axis[0] = 1.0  # centroids already coincide; drop a canonical direction
        else:
            axis = c
        u = axis / float(np.linalg.norm(axis))
        axes_local.append(axis.copy())
        axes_ambient.append(u @ basis)
        lines.append(LineThroughOrigin.through(axis))
        rows = _householder_rows(u)
        cur = [x @ rows.T for x in cur]
        basis = rows @ basis

    chain = ProjectionChain(
        axes_local=tuple(axes_local),
        axes_ambient=np.array(axes_ambient).reshape(k - 1, d) if k > 1 else np.zeros((0, d)),
        lines=tuple(lines),
        basis=basis,
    )
    return chain, cur


def joint_depth_ball(projected_sets, m) -> tuple[Ball, list[TverbergCertificate], tuple[int, ...]]:
    """One origin-centered ball meeting every part hull of every set.

    Splits set i into ceil(|P_i| / m_i) nearly equal parts; the ball
    radius is twice the largest per-run radius guarantee, which covers
    every part centroid because each run's anchor centroid sits within
    its own guarantee of the origin.
    """
    arrs = [p.coords if isinstance(p, PointSet) else np.asarray(p, dtype=np.float64) for p in projected_sets]
    if len(m) != len(arrs):
        raise InfeasibleError("need one part-size parameter per set")
    scale = 1.0
    for arr in arrs:
        scale = max(scale, float(np.abs(arr).max(initial=0.0)))
    certs: list[TverbergCertificate] = []
    depths: list[int] = []
    for arr, m_i in zip(arrs, m):
        n_i = arr.shape[0]
        if not 2 <= int(m_i) <= n_i:
            raise InfeasibleError("part size parameters must satisfy 2 <= m_i <= |P_i|")
        if float(np.linalg.norm(arr.mean(axis=0))) > CENTERED_TOL * scale:
            raise ValueError("projected sets must have centroids at the origin")
        parts = -(-n_i // int(m_i))
        certs.append(partition_nearly_balanced(arr, parts))
        depths.append(parts)
    radius = max(2.0 * c.radius_guaranteed for c in certs)
    dim = arrs[0].shape[1]
    return Ball(np.zeros(dim), radius), certs, tuple(depths)


@dataclass(frozen=True, eq=False)
class ProductSet:
    """Cylinder over the subspace ball: ball by projected-out lines.

    A point belongs iff its component in the final subspace lands in the
    ball; components along the eliminated lines are unconstrained.
    """

    translation: np.ndarray
    basis: np.ndarray
    line_directions: np.ndarray
    ball: Ball

    def contains(self, x, tol: float = 1e-9) -> bool:
        y = np.asarray(x, dtype=np.float64) - self.translation
        z = self.basis @ y
        return float(np.linalg.norm(z - self.ball.center)) <= self.ball.radius + tol


def product_set(chain: ProjectionChain, ball: Ball, translation=None) -> ProductSet:
    """Assemble the membership region from a chain and a subspace ball."""
    d = chain.basis.shape[1]
    t = np.zeros(d) if translation is None else np.asarray(translation, dtype=np.float64)
    return ProductSet(
        translation=t,
        basis=chain.basis,
        line_directions=chain.axes_ambient,
        ball=ball,
    )


@dataclass(frozen=True, eq=False)
class DepthCertificate:
    """Joint depth ball, its construction trace, and per-set witnesses.

    per_set holds one partition certificate per input set, stated in the
    final-subspace coordinates (rows indexed as in the input sets).
    depth_lower_bounds[i] = ceil(|P_i| / m[i]) is the number of parts,
    hence the minimum point count of set i in any halfspace containing
    the product region. constructive_radius is the emitted ball radius;
    existential_radius = (2 + 2*sqrt(2)) * max_i diam(P_i)/sqrt(m_i) is
    the smaller non-constructive target it replaces, reported for
    comparison only. oracle_depths holds the exact planar depth of the
    ball center per original set when d = 2, else None.
    """

    translation: np.ndarray
    chain: ProjectionChain
    ball: Ball
    ball_center_ambient: np.ndarray
    product: ProductSet
    m: tuple[int, ...]
    depth_lower_bounds: tuple[int, ...]
    per_set: tuple[TverbergCertificate, ...]
    constructive_radius: float
    existential_radius: float
    set_diameters: tuple[float, ...]
    set_diameters_exact: tuple[bool, ...]
    oracle_depths: tuple[int, ...] | None


def generalized_ham_sandwich(sets, m, diameter_exact_threshold: int = 4096) -> DepthCertificate:
    """Build a depth certificate shared by the k input sets (k <= d)."""
    pts = [p if isinstance(p, PointSet) else PointSet(p) for p in sets]
    if not pts:
        raise InfeasibleError("need at least one point set")
    d = pts[0].dim
    k = len(pts)
    if any(p.dim != d for p in pts):
        raise ValueError("point sets must share one dimension")
    if k > d:
        raise InfeasibleError("more point sets than dimensions")
    m = tuple(int(v) for v in m)
    if len(m) != k:
        raise InfeasibleError("need one part-size parameter per set")

    t = centroid(pts[0])
    translated = [p.coords - t for p in pts]
    chain, projected = align_centroids(translated)
    ball, per_set, depths = joint_depth_ball(projected, m)
    prod = product_set(chain, ball, t)
    center_ambient = t + ball.center @ chain.basis

    diams = [diameter_bound(p, diameter_exact_threshold) for p in pts]
    existential = (2.0 + 2.0 * math.sqrt(2.0)) * max(
        dv / math.sqrt(mi) for (dv, _), mi in zip(diams, m)
    )
    oracle_depths = None
    if d == 2 and all(p.n <= 1000 for p in pts):
        oracle_depths = tuple(depth_2d_exact(center_ambient, p) for p in pts)

    cert = DepthCertificate(
        translation=t,
        chain=chain,
        ball=ball,
        ball_center_ambient=center_ambient,
        product=prod,
        m=m,
        depth_lower_bounds=depths,
        per_set=tuple(per_set),
        constructive_radius=ball.radius,
        existential_radius=existential,
        set_diameters=tuple(dv for dv, _ in diams),
        set_diameters_exact=tuple(flag for _, flag in diams),
        oracle_depths=oracle_depths,
    )
    failures = [c for c in check_depth_certificate(cert, pts) if not c.ok]
    if failures:
        raise CertificateError(failures)
    return cert


def check_depth_certificate(cert: DepthCertificate, sets) -> list[CheckResult]:
    """Recompute every claim of a depth certificate from the raw sets."""
    pts = [p if isinstance(p, PointSet) else PointSet(p) for p in sets]
    checks: list[CheckResult] = []
    k = len(pts)
    d = pts[0].dim if pts else 0
    scale = max([1.0] + [float(np.abs(p.coords).max(initial=0.0)) for p in pts])
    tol = REL_SLACK * scale + ABS_GUARD

    def add(name: str, ok: bool, detail: str = "") -> None:
        checks.append(CheckResult(name, bool(ok), detail))

    add("set_count_at_most_dim", 1 <= k <= d, f"k={k} d={d}")
    add(
        "shapes_consistent",
        len(cert.per_set) == k
        and len(cert.m) == k
        and len(cert.depth_lower_bounds) == k
        and cert.chain.steps == k - 1,
    )
    if len(cert.per_set) != k or cert.chain.steps != k - 1:
        return checks

    t_err = float(np.linalg.norm(cert.translation - centroid(pts[0])))
    add("translation_is_first_centroid", t_err <= tol, f"err {t_err:.3e}")

    basis = cert.chain.basis
    sub_dim = d - (k - 1)
    add("basis_shape", basis.shape == (sub_dim, d), f"shape {basis.shape}")
    gram_err = float(np.abs(basis @ basis.T - np.eye(basis.shape[0])).max())
    add("basis_orthonormal", gram_err <= 1e-9, f"err {gram_err:.3e}")
    axes = cert.chain.axes_ambient
    if k > 1:
        ax_err = float(np.abs(axes @ axes.T - np.eye(k - 1)).max())
        add("axes_orthonormal", ax_err <= 1e-9, f"err {ax_err:.3e}")
        cross = float(np.abs(basis @ axes.T).max())
        add("axes_orthogonal_to_basis", cross <= 1e-9, f"err {cross:.3e}")

    projected = [(p.coords - cert.translation) @ basis.T for p in pts]
    cent_err = max(float(np.linalg.norm(q.mean(axis=0))) for q in projected)
    add("projected_centroids_vanish", cent_err <= CENTERED_TOL * scale + ABS_GUARD, f"max {cent_err:.3e}")

    for i, (q, sub) in enumerate(zip(projected, cert.per_set)):
        sub_failures = [c.name for c in check_certificate(sub, PointSet(q)) if not c.ok]
        add(f"set{i}_partition_certificate", not sub_failures, ", ".join(sub_failures))
        expected = -(-pts[i].n // cert.m[i])
        add(
            f"set{i}_depth_bound",
            cert.depth_lower_bounds[i] == expected == sub.k and 2 <= cert.m[i] <= pts[i].n,
            f"stored {cert.depth_lower_bounds[i]} expected {expected}",
        )

    radius = max(2.0 * sub.radius_guaranteed for sub in cert.per_set)
    add(
        "radius_is_twice_worst_guarantee",
        abs(radius - cert.ball.radius) <= REL_SLACK * max(radius, 1.0) + ABS_GUARD
        and abs(radius - cert.constructive_radius) <= REL_SLACK * max(radius, 1.0) + ABS_GUARD,
        f"recomputed {radius!r} stored {cert.ball.radius!r}",
    )

    center_err = float(np.linalg.norm(cert.ball.center))
    add("ball_centered_at_origin", center_err <= tol, f"err {center_err:.3e}")
    amb_err = float(
        np.linalg.norm(cert.ball_center_ambient - (cert.translation + cert.ball.center @ basis))
    )
    add("ambient_center_consistent", amb_err <= tol, f"err {amb_err:.3e}")

    cover_slack = CENTERED_TOL * scale + REL_SLACK * max(cert.ball.radius, 1.0) + ABS_GUARD
    worst = 0.0
    for q, sub in zip(projected, cert.per_set):
        if not sub.parts:
            continue  # its set{i}_partition_certificate check has failed
        cents = np.stack([q[list(part)].mean(axis=0) for part in sub.parts])
        worst = max(worst, float(np.sqrt(((cents - cert.ball.center) ** 2).sum(axis=1)).max()))
    add(
        "ball_covers_all_part_centroids",
        worst <= cert.ball.radius + cover_slack,
        f"worst {worst!r} radius {cert.ball.radius!r}",
    )

    diams = [diameter_bound(p, p.n if flag else 0) for p, flag in zip(pts, cert.set_diameters_exact)]
    diam_err = max(abs(dv - sv) for (dv, _), sv in zip(diams, cert.set_diameters))
    add("set_diameters_match", diam_err <= REL_SLACK * max(scale, 1.0) + ABS_GUARD, f"err {diam_err:.3e}")
    existential = (2.0 + 2.0 * math.sqrt(2.0)) * max(
        sv / math.sqrt(mi) for sv, mi in zip(cert.set_diameters, cert.m)
    )
    add(
        "existential_radius_formula",
        abs(existential - cert.existential_radius) <= REL_SLACK * max(existential, 1.0) + ABS_GUARD,
        f"recomputed {existential!r} stored {cert.existential_radius!r}",
    )

    prod = cert.product
    add(
        "product_frame_consistent",
        prod.basis.shape == basis.shape
        and float(np.abs(prod.basis - basis).max()) <= ABS_GUARD
        and float(np.linalg.norm(prod.translation - cert.translation)) <= tol
        and abs(prod.ball.radius - cert.ball.radius) <= ABS_GUARD,
    )
    member = prod.contains(cert.ball_center_ambient)
    along_lines = True
    for j in range(cert.chain.steps):
        along_lines = along_lines and prod.contains(
            cert.ball_center_ambient + (1.0 + scale) * cert.chain.axes_ambient[j]
        )
    add("product_contains_center_and_lines", member and along_lines)

    if cert.oracle_depths is not None:
        ok = len(cert.oracle_depths) == k and d == 2
        if ok:
            recomputed = tuple(depth_2d_exact(cert.ball_center_ambient, p) for p in pts)
            ok = recomputed == cert.oracle_depths
        add("oracle_depths_match", ok)
    return checks
