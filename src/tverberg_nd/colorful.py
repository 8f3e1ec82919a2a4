"""Rainbow partitioning of equally sized point classes.

Input: n classes of k points each. Output: k parts, each containing
exactly one point from every class, such that a ball of dimension-free
radius meets the convex hull of every part (it contains every part
centroid).

Parts are the nodes of a star lifting graph, node 0 the hub. Classes are
processed in reverse input order; class members are never split up
arbitrarily, instead the whole class is rotated onto the nodes by a
cyclic shift t (member i lands on node (i + t) mod k) and t is chosen to
exactly minimize the squared norm of the summed lifted points so far. The
average of that objective over all k shifts telescopes, which caps the
final spread of the per-node sums and yields the radius guarantee
sqrt(2 k (k-1) / N) * max class diameter, with N = n*k the total point
count.

Shift selection is translation invariant: moving all classes by a fixed
vector shifts every per-node sum equally, changing each shift's
objective by the same amount.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geom import Ball, _all_finite, diameter_exact
from .lifting import make_graph, quadratic_form
from .tverberg import ABS_GUARD, REL_SLACK, CheckResult, InfeasibleError, _Checks, _radius, _require

__all__ = [
    "ColorInstance",
    "ColorfulCertificate",
    "check_colorful_certificate",
    "colorful_radius_bound",
    "partition_colorful",
    "shift_objectives",
]


@dataclass(frozen=True, eq=False)
class ColorInstance:
    """n classes of k points each, stored as one (n, k, d) float array."""

    classes: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.classes, dtype=np.float64)
        if arr.ndim != 3:
            raise ValueError("classes must stack to an (n, k, d) array")
        if arr.shape[0] < 1 or arr.shape[1] < 1 or arr.shape[2] < 1:
            raise ValueError("need at least one class, one point per class, one coordinate")
        if not _all_finite(arr):
            raise ValueError("coordinates must be finite")
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "classes", arr)

    @classmethod
    def from_arrays(cls, arrays) -> "ColorInstance":
        mats = [np.asarray(a, dtype=np.float64) for a in arrays]
        if not mats:
            raise ValueError("need at least one class")
        if any(m.ndim != 2 for m in mats):
            raise ValueError("every class must be a 2-d point array")
        if len({m.shape for m in mats}) != 1:
            raise ValueError("every class needs the same number of points and dimension")
        return cls(np.stack(mats))

    @property
    def n_classes(self) -> int:
        return self.classes.shape[0]

    @property
    def k(self) -> int:
        return self.classes.shape[1]

    @property
    def dim(self) -> int:
        return self.classes.shape[2]

    @cached_property
    def max_class_diameter(self) -> float:
        """Largest exact class diameter, computed on first use and then kept."""
        return max(diameter_exact(members) for members in self.classes)


def _as_instance(classes) -> ColorInstance:
    return classes if isinstance(classes, ColorInstance) else ColorInstance.from_arrays(classes)


def shift_objectives(members: np.ndarray, running: np.ndarray) -> np.ndarray:
    """Objective increments of all k cyclic shifts at once.

    members is the (k, d) class, running the (k, d) per-node sums so
    far; entry t is the increase of the lifted squared norm when member
    i goes to node (i + t) mod k. The tests check it against a loop
    reference, ``shift_objective`` in ``tests/reference.py``.
    """
    k = members.shape[0]
    idx = np.arange(k)
    a_idx = (-idx) % k
    gram = members @ running.T
    norms = np.einsum("ij,ij->i", members, members)
    s_cls = members.sum(axis=0)
    s_tot = running.sum(axis=0)
    q_cls = float(norms.sum())
    first = k * norms[a_idx] - 2.0 * (members @ s_cls)[a_idx] + q_cls
    rows = (idx[None, :] - idx[:, None]) % k  # rows[t, m] = (m - t) mod k
    diagshift = gram[rows, idx[None, :]].sum(axis=1)
    third = k * gram[a_idx, 0] - float(s_cls @ running[0]) + diagshift - (members @ s_tot)[a_idx]
    return first + 2.0 * third


def colorful_radius_bound(n_classes: int, k: int, max_diam: float) -> float:
    """sqrt(2 k (k-1) / N) * max class diameter, N = n*k points in all."""
    if n_classes < 1 or k < 1:
        raise InfeasibleError("need at least one class and one point per class")
    total = n_classes * k
    return math.sqrt(2.0 * k * (k - 1) / total) * max_diam


@dataclass(frozen=True, eq=False)
class ColorfulCertificate:
    """Rainbow partition plus measured and guaranteed covering radii.

    shifts[c] is the cyclic shift chosen for class c, enough to replay
    the whole routing; the property parts is derived from it. The
    covering ball is the property ball: the hub part's centroid with
    radius radius_guaranteed. lifted_sum_norm is sqrt(sum over leaves m
    of ||S_0 - S_m||^2) for the final per-node sums S.
    """

    n_classes: int
    k: int
    shifts: tuple[int, ...]
    part_centroids: np.ndarray
    radius_guaranteed: float
    radius_achieved: float
    lifted_sum_norm: float
    max_class_diameter: float

    @property
    def ball(self) -> Ball:
        return Ball(self.part_centroids[0], self.radius_guaranteed)

    @property
    def parts(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """parts[m] lists the (class_index, member_index) pairs on node m, one per class."""
        return _parts_from_shifts(self.k, self.shifts)


def _parts_from_shifts(k: int, shifts) -> tuple[tuple[tuple[int, int], ...], ...]:
    parts = [[] for _ in range(k)]
    for c, t in enumerate(shifts):
        for i in range(k):
            parts[(i + t) % k].append((c, i))
    return tuple(tuple(part) for part in parts)


def _node_sums(instance: ColorInstance, shifts) -> np.ndarray:
    n, k, d = instance.classes.shape
    sums = np.zeros((k, d))
    idx = np.arange(k)
    for c, t in enumerate(shifts):
        sums += instance.classes[c][(idx - t) % k]
    return sums


def partition_colorful(classes) -> ColorfulCertificate:
    """Route every class onto the k parts by its best cyclic shift."""
    inst = _as_instance(classes)
    n, k, d = inst.classes.shape
    idx = np.arange(k)
    running = np.zeros((k, d))
    shifts = np.empty(n, dtype=np.int64)
    for c in range(n - 1, -1, -1):
        members = inst.classes[c]
        t = int(np.argmin(shift_objectives(members, running)))
        shifts[c] = t
        running += members[(idx - t) % k]

    cents = running / n
    max_diam = inst.max_class_diameter
    guaranteed = colorful_radius_bound(n, k, max_diam)
    achieved = _radius(cents, cents[0])
    norm = math.sqrt(max(quadratic_form(make_graph("star", k), running), 0.0))

    cert = ColorfulCertificate(
        n_classes=n,
        k=k,
        shifts=tuple(int(t) for t in shifts),
        part_centroids=cents,
        radius_guaranteed=guaranteed,
        radius_achieved=achieved,
        lifted_sum_norm=norm,
        max_class_diameter=max_diam,
    )
    _require(check_colorful_certificate(cert, inst))
    return cert


def check_colorful_certificate(cert: ColorfulCertificate, classes) -> list[CheckResult]:
    """Recompute every claim of a colorful certificate from the input."""
    inst = _as_instance(classes)
    n, k, _ = inst.classes.shape
    checks = _Checks()
    scale = max(cert.max_class_diameter, 1.0)

    checks.add("shape_matches", cert.n_classes == n and cert.k == k, f"stored ({cert.n_classes}, {cert.k})")
    checks.add(
        "shifts_in_range",
        len(cert.shifts) == n and all(0 <= t < k for t in cert.shifts),
        f"{len(cert.shifts)} shifts",
    )
    if len(cert.shifts) != n or not all(0 <= t < k for t in cert.shifts):
        return checks

    sums = _node_sums(inst, cert.shifts)
    cents = sums / n
    checks.close("part_centroids_match", cents, cert.part_centroids, scale)
    achieved = _radius(cents, cents[0])
    checks.close("radius_achieved_matches", achieved, cert.radius_achieved, scale)
    slack = REL_SLACK * scale + ABS_GUARD
    checks.add(
        "radius_within_guarantee",
        achieved <= cert.radius_guaranteed + slack,
        f"achieved {achieved!r} guaranteed {cert.radius_guaranteed!r}",
    )

    checks.close("max_class_diameter_matches", inst.max_class_diameter, cert.max_class_diameter, scale)
    guar = colorful_radius_bound(n, k, cert.max_class_diameter)
    checks.close("guarantee_formula", guar, cert.radius_guaranteed, guar)
    norm = math.sqrt(max(quadratic_form(make_graph("star", k), sums), 0.0))
    checks.close("lifted_sum_norm_matches", norm, cert.lifted_sum_norm, max(norm, scale))
    # norm / n is the full lifted centroid norm, an upper bound on every
    # hub-to-part distance, so it must clear the guarantee too
    checks.add(
        "traversal_norm_within_bound",
        norm / n <= cert.radius_guaranteed + slack,
        f"lifted centroid norm {norm / n!r} guaranteed {cert.radius_guaranteed!r}",
    )
    return checks
