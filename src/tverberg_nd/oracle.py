"""Exact planar depth, the brute-force check that ``verify`` runs.

``depth_2d_exact`` sweeps every closed halfplane through a point in the
plane; ham-sandwich certificates in d = 2 store its value per set, and
``check_depth_certificate`` recomputes it. The brute-force references
that only the tests use (explicit lifting vectors, exhaustive traversal
and shift enumeration, the pairwise diameter scan) live in
``tests/reference.py``.
"""

from __future__ import annotations

import math

import numpy as np

from .geom import _as_point_set, _block_rows, as_point

__all__ = ["depth_2d_exact"]


def depth_2d_exact(x, points) -> int:
    """Exact closed-halfplane (Tukey) depth of x in the plane.

    Counts the points in every closed halfplane whose boundary passes
    through x at two kinds of direction: the critical normals, one pair
    per point offset o_i = p_i - x, and the midpoint of each pair of
    consecutive distinct critical angles. Only d = 2 and at most 1000
    points are supported.

    At the normals the count comes from the signs of the cross products
    ``ox_j oy_i - oy_j ox_i``, formed elementwise. Rounding is monotone, so
    no computed sign is the opposite of the exact one, and the term of a
    point lying exactly on the line through x and p_i, p_i itself
    included, is exactly 0: such a point counts in both closed halfplanes.
    The midpoint directions are counted with one matrix product; the
    critical angles themselves are not, since their cosine and sine lie
    within rounding of a boundary. Both counts take one _SCAN_BYTES block
    of directions at a time.
    """
    x = as_point(x)
    arr = _as_point_set(points).coords
    if x.shape[0] != 2 or arr.shape[1] != 2:
        raise ValueError("depth oracle only supports dimension 2")
    if arr.shape[0] > 1000:
        raise ValueError("instance too large for oracle")
    if arr.shape[0] == 0:
        raise ValueError("empty point set")

    offsets = arr - x
    n = offsets.shape[0]
    nz = offsets[np.einsum("ij,ij->i", offsets, offsets) > 0.0]
    if nz.shape[0] == 0:
        return n

    step = _block_rows(8 * n)
    ox, oy = offsets[:, 0], offsets[:, 1]
    depth = n
    for lo in range(0, nz.shape[0], step):
        cross = np.multiply.outer(ox, nz[lo : lo + step, 1])
        cross -= np.multiply.outer(oy, nz[lo : lo + step, 0])
        # o_j . (-oy_i, ox_i) = -cross[j, i] and o_j . (oy_i, -ox_i) = cross[j, i]
        depth = min(depth, int((cross <= 0.0).sum(axis=0).min()), int((cross >= 0.0).sum(axis=0).min()))

    angles = np.unique(np.concatenate([np.arctan2(nz[:, 0], -nz[:, 1]), np.arctan2(-nz[:, 0], nz[:, 1])]))
    mids = angles + np.diff(np.concatenate([angles, [angles[0] + 2 * math.pi]])) / 2.0
    dirs = np.stack([np.cos(mids), np.sin(mids)], axis=1)
    for lo in range(0, dirs.shape[0], step):
        depth = min(depth, int((offsets @ dirs[lo : lo + step].T >= 0.0).sum(axis=0).min()))
    return depth
