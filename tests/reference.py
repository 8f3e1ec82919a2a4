"""Brute-force reference implementations that the tests check the library against.

Everything in this module is deliberately slow and explicit: tensors are
materialized, traversals enumerated, diameters scanned pair by pair,
shift objectives spelled as loops and lifting dot products read off the
adjacency one pair at a time. No library or CLI path calls any of it;
the exact planar depth, which ``verify`` runs, stays in
``tverberg_nd.oracle``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from tverberg_nd.geom import _as_point_set, as_point
from tverberg_nd.lifting import LiftingGraph, make_graph

ENUMERATION_GUARD = 1_000_000


# ------------------------------------------------------------ lifting graphs


def make_custom_graph(k: int, edges) -> LiftingGraph:
    """Graph from an explicit edge list (must be simple and connected)."""
    nbrs: list[set[int]] = [set() for _ in range(k)]
    for i, j in edges:
        if i == j:
            raise ValueError("self loops are not allowed")
        nbrs[i].add(j)
        nbrs[j].add(i)
    return LiftingGraph(k, tuple(tuple(sorted(s)) for s in nbrs), "custom")


def make_path_graph(k: int) -> LiftingGraph:
    """The path 0-1-...-(k-1), as a custom edge list."""
    return make_custom_graph(k, [(x, x + 1) for x in range(k - 1)])


def _check_index(g: LiftingGraph, i: int) -> None:
    if not 0 <= i < g.k:
        raise ValueError("node index out of range")


def q_dot(g: LiftingGraph, i: int, j: int) -> int:
    """Dot product of the implicit vectors of nodes i and j."""
    _check_index(g, i)
    _check_index(g, j)
    if i == j:
        return len(g.adjacency[i])
    return -1 if j in g.adjacency[i] else 0


# ------------------------------------------------------- explicit lifting


@dataclass(frozen=True, eq=False)
class ExplicitLift:
    """Materialized lifting vectors: one row per node, one column per edge."""

    vectors: np.ndarray  # (k, edge_count) int64
    edges: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class EnumerationReport:
    count: int
    mean_sq_norm: float
    min_sq_norm: float
    argmin: tuple[int, ...]


def explicit_tensor(x, y) -> np.ndarray:
    """Tensor product laid out as the blocks x*y_1, x*y_2, ..., x*y_m."""
    x = as_point(x)
    y = as_point(y)
    return np.outer(y, x).ravel()


def explicit_q_vectors(g: LiftingGraph) -> ExplicitLift:
    """Build the +-1 edge-incidence vectors of the graph.

    Edge columns follow lexicographic (low, high) order; each column holds
    +1 at the lower-indexed endpoint and -1 at the higher-indexed one.
    """
    edges = g.edges
    vecs = np.zeros((g.k, len(edges)), dtype=np.int64)
    for col, (i, j) in enumerate(edges):
        vecs[i, col] = 1
        vecs[j, col] = -1
    return ExplicitLift(vecs, edges)


# ------------------------------------------------------------ enumeration


def _assignments(n: int, sizes: tuple[int, ...]):
    """Yield every class assignment with the prescribed class sizes.

    Generation picks index sets class by class (lowest class first), each
    in lexicographic order, so the stream order is deterministic.
    """
    assign = np.empty(n, dtype=np.int64)

    def rec(remaining: tuple[int, ...], cls: int):
        if cls == len(sizes) - 1:
            for i in remaining:
                assign[i] = cls
            yield assign
            return
        for chosen in itertools.combinations(remaining, sizes[cls]):
            for i in chosen:
                assign[i] = cls
            rest = tuple(i for i in remaining if i not in set(chosen))
            yield from rec(rest, cls + 1)

    yield from rec(tuple(range(n)), 0)


def _multinomial(n: int, sizes: tuple[int, ...]) -> int:
    total = 1
    rem = n
    for r in sizes:
        total *= math.comb(rem, r)
        rem -= r
    return total


def enumerate_traversals(points, sizes, graph: LiftingGraph) -> EnumerationReport:
    """Exhaust every size-respecting assignment and score its lifted centroid.

    For assignment X the score is ||c(X)||^2 where c(X) is the mean of the
    points lifted, via explicit tensors, by their assigned node vectors.
    Points are used as given (no centering). The argmin is the first
    minimizer in generation order.
    """
    arr = _as_point_set(points).coords
    n = arr.shape[0]
    sizes = tuple(int(r) for r in sizes)
    if sum(sizes) != n:
        raise ValueError("class sizes must sum to the number of points")
    if any(r < 1 for r in sizes):
        raise ValueError("class sizes must be positive")
    if len(sizes) != graph.k:
        raise ValueError("need one class per graph node")
    count = _multinomial(n, sizes)
    if count > ENUMERATION_GUARD:
        raise ValueError("instance too large for oracle")

    lift = explicit_q_vectors(graph)
    # lifted[a, i] is point a tensored with node i's vector
    lifted = np.stack(
        [[explicit_tensor(arr[a], lift.vectors[i]) for i in range(graph.k)] for a in range(n)]
    ) if lift.vectors.shape[1] > 0 else np.zeros((n, graph.k, 0))

    rows = np.arange(n)
    total = 0.0
    best = math.inf
    best_assign: tuple[int, ...] = ()
    for assign in _assignments(n, sizes):
        v = lifted[rows, assign].sum(axis=0) / n
        sq = float(v @ v)
        total += sq
        if sq < best:
            best = sq
            best_assign = tuple(int(c) for c in assign)
    return EnumerationReport(count, total / count, best, best_assign)


def enumerate_colorful(classes, graph: LiftingGraph | None = None) -> EnumerationReport:
    """Exhaust every per-class cyclic shift choice.

    classes is a sequence of equally sized point sets (k points each).
    Shift t routes member i of a class to graph node (i + t) mod k. The
    score of a shift tuple is ||c(X)||^2 for the mean of the lifted class
    points, built with explicit tensors.
    """
    mats = [_as_point_set(c).coords for c in classes]
    n = len(mats)
    if n == 0:
        raise ValueError("need at least one class")
    k = mats[0].shape[0]
    if any(m.shape != mats[0].shape for m in mats):
        raise ValueError("classes must share size and dimension")
    if graph is None:
        graph = make_graph("star", k)
    if graph.k != k:
        raise ValueError("graph order must equal the class size")
    count = k ** n
    if count > ENUMERATION_GUARD:
        raise ValueError("instance too large for oracle")

    lift = explicit_q_vectors(graph)
    width = lift.vectors.shape[1]
    # lifted[s, t] is class s lifted under shift t
    lifted = np.zeros((n, k, width * mats[0].shape[1]))
    for s in range(n):
        for t in range(k):
            if width:
                lifted[s, t] = sum(
                    explicit_tensor(mats[s][i], lift.vectors[(i + t) % k]) for i in range(k)
                )

    total = 0.0
    best = math.inf
    best_assign: tuple[int, ...] = ()
    rows = np.arange(n)
    # a traversal picks one shifted class lift per class, so the centroid
    # divides by the class count
    for shifts in itertools.product(range(k), repeat=n):
        v = lifted[rows, shifts].sum(axis=0) / n
        sq = float(v @ v)
        total += sq
        if sq < best:
            best = sq
            best_assign = shifts
    return EnumerationReport(count, total / count, best, best_assign)


# ------------------------------------------------------ scans and scoring


def diameter_pairwise(points) -> float:
    """Largest pairwise distance, by a blocked scan over every pair.

    Materializes the difference vectors of 64 rows against all later rows
    per step; ``geom.diameter_exact`` must return exactly this value.
    """
    arr = _as_point_set(points).coords
    n = arr.shape[0]
    if n == 0:
        raise ValueError("empty point set")
    if n == 1:
        return 0.0
    best = 0.0
    for lo in range(0, n, 64):
        block = arr[lo : lo + 64]
        diff = block[:, None, :] - arr[None, lo:, :]
        sq = np.einsum("ijk,ijk->ij", diff, diff)
        m = float(sq.max())
        if m > best:
            best = m
    return math.sqrt(best)


def shift_objective(members: np.ndarray, running: np.ndarray, t: int) -> float:
    """Objective increment of routing the class by cyclic shift t.

    members is the (k, d) class, running the (k, d) per-node sums so
    far. Spelled as explicit loops; the vectorized
    ``colorful.shift_objectives`` must agree with this to within rounding.
    """
    k = members.shape[0]
    a = members[(k - t) % k]
    q_cls = float(np.einsum("ij,ij->", members, members))
    s_cls = members.sum(axis=0)
    first = k * float(a @ a) - 2.0 * float(a @ s_cls) + q_cls
    third = float((k * a - s_cls) @ running[0])
    for m in range(1, k):
        w = members[(m - t) % k]
        third += float((w - a) @ running[m])
    return first + 2.0 * third
