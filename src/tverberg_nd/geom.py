"""Point-set primitives shared by the partitioning algorithms.

Everything runs on float64 numpy arrays. A point is a 1-d array; a point
set wraps an (n, d) array whose row order is significant, because every
certificate refers to points by row index. Arrays inside the frozen
containers are marked read-only, so a container computes its exact
diameter (PointSet.diameter) and its upper bound (PointSet.upper_diameter)
once each, and every later reader shares them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Ball",
    "PointSet",
    "as_point",
    "centroid",
    "diameter_bound",
    "diameter_exact",
    "diameter_upper",
]

# Largest n for which the exact O(n^2 d) diameter is computed by default;
# beyond it the 2-approximation around the centroid is used instead.
DIAMETER_EXACT_DEFAULT_THRESHOLD = 4096

# Byte budget for one block of temporaries. Every scan over an input-sized
# array takes its rows (or the planar depth oracle its directions) one
# block of this many bytes at a time: the exact diameter's Gram estimates
# and rescored differences, the traversal's centered rows and prefix sums,
# the class sums, diameter_upper and depth_2d_exact. A run then holds its
# input, O(k d + n) state and a few such blocks.
_SCAN_BYTES = 1 << 20


def _block_rows(row_bytes: int) -> int:
    """Rows of row_bytes bytes each that fit in one _SCAN_BYTES block, at least one."""
    return max(1, _SCAN_BYTES // row_bytes)


def _all_finite(arr: np.ndarray) -> bool:
    """Whether no entry is NaN or infinite, by one min and one max reduction: no input-sized temporary."""
    return arr.size == 0 or (math.isfinite(arr.min()) and math.isfinite(arr.max()))


def as_point(p) -> np.ndarray:
    """Coerce to a finite 1-d float64 coordinate array."""
    arr = np.asarray(p, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("a point must be a non-empty 1-d coordinate sequence")
    if not _all_finite(arr):
        raise ValueError("point coordinates must be finite")
    return arr


@dataclass(frozen=True, eq=False)
class PointSet:
    """Ordered point set in R^d stored as an (n, d) float64 array."""

    coords: np.ndarray

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(np.asarray(self.coords, dtype=np.float64))
        if arr.ndim != 2:
            raise ValueError("coordinates must form an (n, d) array")
        if arr.shape[1] < 1:
            raise ValueError("dimension must be at least 1")
        if not _all_finite(arr):
            raise ValueError("coordinates must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "coords", arr)

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def dim(self) -> int:
        return self.coords.shape[1]

    def __len__(self) -> int:
        return self.n

    @cached_property
    def diameter(self) -> float:
        """Exact diameter of the rows, computed on first use and then kept."""
        return diameter_exact(self)

    @cached_property
    def upper_diameter(self) -> float:
        """The bound diameter_upper of the rows, computed on first use and then kept."""
        return diameter_upper(self)


@dataclass(frozen=True, eq=False)
class Ball:
    """Closed Euclidean ball."""

    center: np.ndarray
    radius: float

    def __post_init__(self) -> None:
        c = as_point(self.center)
        c.setflags(write=False)
        object.__setattr__(self, "center", c)
        r = float(self.radius)
        if not (math.isfinite(r) and r >= 0.0):
            raise ValueError("ball radius must be finite and non-negative")
        object.__setattr__(self, "radius", r)

    def contains(self, p, tol: float = 0.0) -> bool:
        return float(np.linalg.norm(as_point(p) - self.center)) <= self.radius + tol


def _as_point_set(points) -> PointSet:
    """The PointSet itself, or a new one wrapping the array-like."""
    return points if isinstance(points, PointSet) else PointSet(points)


def centroid(points) -> np.ndarray:
    """Arithmetic mean of the rows, summed in input order via numpy."""
    arr = _as_point_set(points).coords
    if arr.shape[0] == 0:
        raise ValueError("empty point set")
    return arr.sum(axis=0) / arr.shape[0]


def diameter_exact(points) -> float:
    """Largest pairwise distance, by a streamed O(n^2 d) Gram scan.

    The value is exact in a strict sense: it is ``sqrt(max f_ij)`` bit
    for bit, where ``f_ij = einsum(diff, diff)`` with ``diff = x_i - x_j``
    is the plain per-pair formula on the raw rows (the tests compare it
    with a reference scan that computes every f_ij).

    The rows are translated by row 0, ``c_i = x_i - x_0``, and
    ``s_i = |c_i|^2``. For each block of rows one GEMM gives the estimates
    ``e_ij = s_i + s_j - 2 c_i.c_j`` against every later row. A block is
    kept only where ``e_ij >= max(best - delta, top - 2 delta)``, with
    ``best`` the largest f_ij rescored so far, ``top`` the block's largest
    estimate and delta a bound on ``|e_ij - f_ij|`` that holds for every
    pair. The rows and columns holding a kept pair are rescored with the
    formula, as a rectangle: that rescores extra pairs, but each one is
    a genuine f_ij, so the maximum stays exact. The maximizing pair p of
    f is never dropped: ``e_p >= f_p - delta >= best - delta``, and for
    every q in its block ``e_p >= f_q - delta >= e_q - 2 delta``.

    The bound, with u = 2^-53, gamma_m = m u / (1 - m u), S = max s_i and
    T = max |c_i|^2 <= S (1 + gamma_d), to first order in u:

    * f_ij rounds each of its d non-negative terms three times and adds
      them in some order, so ``|f_ij - D| <= gamma_(d+2) D`` with
      ``D = |x_i - x_j|^2 <= 4T``: at most (4d + 8) u T.
    * Translation rounds each coordinate once, so the difference of
      c_i and c_j is off from x_i - x_j by at most ``u (|c_i| + |c_j|)``
      in norm, and their squared lengths differ by at most 8 u T.
    * s_i, s_j and the GEMM dot product each err by at most gamma_d T
      (any summation order, with or without FMA); the sum and the
      difference forming e_ij add 2 u T and 4 u T: at most (4d + 6) u T.

    Together ``|e_ij - f_ij| <= (8d + 22) u T``. Products that underflow
    add at most ``5d 2^-1075``. ``delta = (d + 4) 2^-49 S + (d + 4)
    2^-1070`` is at least twice the sum, which also covers the rounding
    of the threshold arithmetic. If ``8 S`` overflows, delta is infinite
    and every pair is rescored; otherwise no e_ij or f_ij overflows.

    Each step's temporaries stay within ``_SCAN_BYTES``, or within one
    rescored rectangle row of at most n d floats where that is larger.
    Inputs with many exact ties, such as duplicated clusters, thus cost
    the budget in memory and at most one full pairwise pass in time.

    At d = 1 no scan is needed: rounding is monotone, so the pair (max,
    min) maximizes ``fl(x_i - x_j)^2``, and ``sqrt(fl(max - min)^2)`` is
    the same value bit for bit.
    """
    arr = _as_point_set(points).coords
    n, d = arr.shape
    if n == 0:
        raise ValueError("empty point set")
    if d == 1:
        span = float(arr.max()) - float(arr.min())
        return math.sqrt(span * span)
    c = arr - arr[0]
    if not c.any():
        return 0.0  # every row equals row 0
    sq = np.einsum("ij,ij->i", c, c)
    s_max = float(sq.max())
    delta = (d + 4) * (2.0**-49 * s_max + 2.0**-1070)
    if not 8.0 * s_max < math.inf:
        delta = math.inf
    rows = _block_rows(8 * n)
    best = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # only where delta = inf
        for lo in range(0, n, rows):
            est = c[lo : lo + rows] @ c[lo:].T
            est *= -2.0
            est += sq[lo : lo + rows, None]
            est += sq[lo:]
            top = float(est.max())
            floor = best - delta
            if top < floor:
                continue
            keep = ~(est < max(floor, top - 2.0 * delta))
            del est
            r = np.flatnonzero(keep.any(axis=1)) + lo
            cols = arr[np.flatnonzero(keep.any(axis=0)) + lo]
            step = _block_rows(8 * d * cols.shape[0])
            for s in range(0, r.size, step):
                diff = arr[r[s : s + step], None, :] - cols[None, :, :]
                best = max(best, float(np.einsum("ijk,ijk->ij", diff, diff).max()))
    return math.sqrt(best)


def diameter_upper(points) -> float:
    """2 * max distance to the centroid; always within [diam, 2 diam].

    The distances are taken one block of rows at a time.
    """
    pts = _as_point_set(points)
    if pts.n == 0:
        raise ValueError("empty point set")
    center = centroid(pts)
    step = _block_rows(8 * pts.dim)
    far = 0.0
    for lo in range(0, pts.n, step):
        diff = pts.coords[lo : lo + step] - center
        far = max(far, float(np.einsum("ij,ij->i", diff, diff).max()))
    return 2.0 * math.sqrt(far)


def diameter_bound(points, exact_threshold: int = DIAMETER_EXACT_DEFAULT_THRESHOLD) -> tuple[float, bool]:
    """Diameter value plus a flag telling whether it is exact.

    Sets with at most exact_threshold points get the exact pairwise
    diameter, larger ones the centroid-based upper bound; the PointSet
    caches either.
    """
    pts = _as_point_set(points)
    if pts.n <= exact_threshold:
        return pts.diameter, True
    return pts.upper_diameter, False
