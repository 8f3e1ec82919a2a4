"""Graph-derived lifting vectors, kept implicit.

A connected simple graph on k nodes induces one integer vector per node,
with one coordinate per edge: an edge contributes +1 to its lower-indexed
endpoint's vector and -1 to the higher-indexed one. Consequences used all
over the package:

* <q_i, q_i> equals the degree of node i,
* <q_i, q_j> is -1 for an edge ij and 0 otherwise,
* sum_i q_i = 0 exactly,
* || sum_i u_i (x) q_i ||^2 = sum over edges ij of ||u_i - u_j||^2.

Nothing here materializes the vectors; dot products come straight from
the adjacency structure. The tests build them explicitly, in
``tests/reference.py``, to cross-check this module.

Nodes are 0-indexed. Rooted families use node 0 as the root and place
children in breadth-first, left-to-right order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "GraphStats",
    "LiftingGraph",
    "heap_children",
    "heap_parent",
    "make_graph",
    "quadratic_form",
    "stats",
]

KINDS = ("star", "balanced_ary", "custom")


def heap_parent(x: int, arity: int) -> int:
    return (x - 1) // arity


def heap_children(x: int, arity: int, k: int) -> range:
    """Children of node x in a breadth-first arity-ary tree on k nodes."""
    lo = arity * x + 1
    return range(min(lo, k), min(lo + arity, k))


@dataclass(frozen=True)
class LiftingGraph:
    """Connected simple graph whose nodes carry the implicit lifting vectors.

    The arrays derived from the adjacency are computed on first use and
    kept, so every user of a make_graph instance shares them.
    """

    k: int
    adjacency: tuple[tuple[int, ...], ...]  # sorted neighbor tuples
    kind: str
    arity: int | None = None

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("graph needs at least one node")
        if self.kind not in KINDS:
            raise ValueError(f"unknown graph kind {self.kind!r}")
        if len(self.adjacency) != self.k:
            raise ValueError("adjacency list length must equal k")
        for i, nbrs in enumerate(self.adjacency):
            if list(nbrs) != sorted(set(nbrs)):
                raise ValueError("neighbor lists must be sorted and duplicate-free")
            for j in nbrs:
                if j == i:
                    raise ValueError("self loops are not allowed")
                if not 0 <= j < self.k:
                    raise ValueError("neighbor index out of range")
                if i not in self.adjacency[j]:
                    raise ValueError("adjacency must be symmetric")
        if self.k > 1:
            # connectivity via BFS from node 0
            seen = {0}
            queue = deque([0])
            while queue:
                x = queue.popleft()
                for j in self.adjacency[x]:
                    if j not in seen:
                        seen.add(j)
                        queue.append(j)
            if len(seen) != self.k:
                raise ValueError("graph must be connected")

    @cached_property
    def degrees(self) -> np.ndarray:
        deg = np.array([len(a) for a in self.adjacency], dtype=np.int64)
        deg.setflags(write=False)
        return deg

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edges as (low, high) pairs in lexicographic order."""
        return tuple((i, j) for i, nbrs in enumerate(self.adjacency) for j in nbrs if j > i)

    @cached_property
    def _edge_index(self) -> tuple[np.ndarray, np.ndarray]:
        """The low and the high endpoints of every edge, as two index arrays."""
        ends = np.array(self.edges, dtype=np.intp).reshape(-1, 2)
        return ends[:, 0], ends[:, 1]

    @cached_property
    def _neighbor_index(self) -> tuple[np.ndarray, ...]:
        """Each node's neighbors as a read-only index array."""
        index = tuple(np.array(a, dtype=np.intp) for a in self.adjacency)
        for a in index:
            a.setflags(write=False)
        return index

    @property
    def edge_count(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2

    @property
    def is_tree(self) -> bool:
        return self.edge_count == self.k - 1


@dataclass(frozen=True)
class GraphStats:
    edge_count: int
    max_degree: int
    diameter_or_height: int


@lru_cache(maxsize=32)
def make_graph(kind: str, k: int, arity: int | None = None) -> LiftingGraph:
    """Build one of the stock graph families on k nodes.

    kind is "star" (node 0 is the hub) or "balanced_ary" (breadth-first
    arity-ary tree, requires arity >= 2); other graphs are built as
    LiftingGraph(k, adjacency, "custom").
    Graphs are immutable, so repeated requests share one validated
    instance and a partition and its self-check build it once.
    """
    if k < 1:
        raise ValueError("graph needs at least one node")
    if kind == "star":
        adj = [tuple(range(1, k))] + [(0,) for _ in range(k - 1)]
        return LiftingGraph(k, tuple(adj), "star")
    if kind == "balanced_ary":
        if arity is None or arity < 2:
            raise ValueError("balanced_ary graphs need arity >= 2")
        adj = []
        for x in range(k):
            nbrs = [] if x == 0 else [heap_parent(x, arity)]
            nbrs.extend(heap_children(x, arity, k))
            adj.append(tuple(sorted(nbrs)))
        return LiftingGraph(k, tuple(adj), "balanced_ary", arity)
    raise ValueError(f"unknown graph kind {kind!r}")


def quadratic_form(g: LiftingGraph, vectors) -> float:
    """|| sum_i vectors[i] (x) q_i ||^2, evaluated edge-wise.

    vectors is a (k, d) array; the value equals the sum over edges ij of
    ||vectors[i] - vectors[j]||^2 and never goes negative.
    """
    arr = np.asarray(vectors, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != g.k:
        raise ValueError("need one row vector per graph node")
    ei, ej = g._edge_index
    diff = arr[ei] - arr[ej]
    return float(np.einsum("ij,ij->", diff, diff))


def _bfs_ecc(g: LiftingGraph, src: int) -> int:
    depth = {src: 0}
    queue = deque([src])
    best = 0
    while queue:
        x = queue.popleft()
        for j in g.adjacency[x]:
            if j not in depth:
                depth[j] = depth[x] + 1
                best = max(best, depth[j])
                queue.append(j)
    return best


def stats(g: LiftingGraph) -> GraphStats:
    """Edge count, max degree, and height (trees) or diameter (otherwise).

    Rooted tree families report the height from node 0, which is the
    quantity the radius guarantees depend on; non-tree customs report the
    graph diameter.
    """
    max_deg = max(len(a) for a in g.adjacency) if g.k > 0 else 0
    if g.is_tree and g.kind != "custom":
        dh = _bfs_ecc(g, 0)
    else:
        dh = max(_bfs_ecc(g, s) for s in range(g.k))
    return GraphStats(g.edge_count, max_deg, dh)
