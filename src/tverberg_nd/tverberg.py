"""Prescribed-size point partitioning with dimension-free radius guarantees.

The partitioners assign points to k classes one at a time, processing the
rows in reverse input order on centered coordinates. Over a uniformly
random size-respecting assignment of the rows not yet placed, the
conditional expectation of the final squared lifted-centroid norm depends
on the class i chosen for the current point only through

    coef_n * deg[i] + coef_r * quota_bal[i] + <w, sum_bal[i]>

where the two per-class arrays are read off the lifting graph,

    quota_bal[i] = 2 * (quota[i] * deg[i] - sum of neighbor quotas)
    sum_bal[i]   = 2 * (deg[i] * assigned[i] - sum of neighbor assigned)

with quota[i] the remaining capacity of class i and assigned[i] the sum
of centered points placed in it so far, and the step scalars are built
from prefix aggregates of the t rows still unplaced after this one:

    coef_n = ||p||^2 - 2<p, cp> - Q2/t + 2*corr
    coef_r = <p, cp> - corr            w = p - cp
    corr   = (||S||^2 - Q2) / (t(t-1))

with S and Q2 the prefix sums of the unplaced rows and their squared
norms, cp = S/t their centroid (the corr term exists for t >= 2, the
Q2 and cp terms for t >= 1). Choosing a class whose value does not
exceed the quota-weighted class average, which equals the conditional
expectation before the choice, can never increase that expectation, so
the finished traversal is at most the average over all assignments; the
emitted radius guarantees rest on that dominance.

Each step takes the feasible class with the smallest value, lowest index
winning ties. A minimum over the feasible classes never exceeds their
quota-weighted average, and a feasible class exists until every row is
placed.

One state object holds quota, deg, quota_bal and sum_bal for any lifting
graph: the balanced arity-ary tree for general sizes and the star for
equal sizes. Assigning a point to class i touches row i and the rows of
its neighbors, so an update costs O(deg(i) d) and scoring all classes
O(k d) per row.

Equal, nearly equal and prescribed sizes share one builder. They differ
only in the lifting graph (star or balanced tree), in the rows the
traversal places (the first n - n mod k for nearly equal sizes, whose
leftovers go to parts 0, 1, ... round-robin; all n otherwise) and in the
guarantee formula, which the builder and check_certificate read from one
dispatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geom import (
    DIAMETER_EXACT_DEFAULT_THRESHOLD,
    Ball,
    PointSet,
    diameter_bound,
)
from .lifting import LiftingGraph, make_graph, quadratic_form, stats

__all__ = [
    "CertificateError",
    "CheckResult",
    "InfeasibleError",
    "SizeSpec",
    "TverbergCertificate",
    "apply_selection",
    "check_certificate",
    "partition_balanced",
    "partition_general",
    "partition_nearly_balanced",
    "radius_bound",
    "select_class",
    "step_coefficients",
    "step_objective",
    "traversal_norm_bound",
]

ABS_GUARD = 1e-15  # absolute slack so zero-diameter inputs compare cleanly
REL_SLACK = 1e-9


class InfeasibleError(ValueError):
    """Parameters that cannot produce a partition."""


class CertificateError(RuntimeError):
    """A produced certificate failed its own recomputation checks."""

    def __init__(self, failures):
        super().__init__("certificate checks failed: " + "; ".join(f.name for f in failures))
        self.failures = list(failures)


@dataclass(frozen=True)
class SizeSpec:
    """Prescribed class sizes, one positive entry per class."""

    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        sizes = tuple(int(r) for r in self.sizes)
        if len(sizes) == 0:
            raise InfeasibleError("need at least one class")
        if any(r < 1 for r in sizes):
            raise InfeasibleError("class sizes must be positive")
        object.__setattr__(self, "sizes", sizes)

    @property
    def k(self) -> int:
        return len(self.sizes)

    @property
    def total(self) -> int:
        return sum(self.sizes)


def _as_sizes(sizes) -> tuple[int, ...]:
    if isinstance(sizes, SizeSpec):
        return sizes.sizes
    return SizeSpec(tuple(sizes)).sizes


class _TraversalState:
    """Per-class objective ingredients for one traversal over a lifting graph.

    quota, deg, quota_bal and sum_bal are stored outright. Assigning a
    point to class i changes quota_bal and sum_bal along column i of the
    graph Laplacian: row i moves by deg[i] times the update and each
    neighbor row by minus the update.
    """

    def __init__(self, graph: LiftingGraph, sizes: tuple[int, ...], dim: int):
        k = graph.k
        self.k = k
        self.quota = np.asarray(sizes, dtype=np.int64).copy()
        self.deg = graph.degrees.astype(np.float64)
        self.neighbors = [np.asarray(a, dtype=np.intp) for a in graph.adjacency]
        nbr_quota = np.array([sum(sizes[j] for j in a) for a in graph.adjacency], dtype=np.float64)
        self.quota_bal = 2.0 * (self.quota * self.deg - nbr_quota)
        self.sum_bal = np.zeros((k, dim))

    def objective(self, i: int, coef_n: float, coef_r: float, w: np.ndarray) -> float:
        return coef_n * self.deg[i] + coef_r * self.quota_bal[i] + float(self.sum_bal[i] @ w)

    def objectives(self, coef_n: float, coef_r: float, w: np.ndarray) -> np.ndarray:
        return coef_n * self.deg + coef_r * self.quota_bal + self.sum_bal @ w

    def weighted_average(self, coef_n: float, coef_r: float, w: np.ndarray) -> float:
        """Quota-weighted class average; equals the pre-choice expectation."""
        q = self.quota.astype(np.float64)
        return float(q @ self.objectives(coef_n, coef_r, w)) / float(q.sum())

    def apply(self, i: int, p: np.ndarray) -> None:
        self.quota[i] -= 1
        two_p = 2.0 * p
        nbrs = self.neighbors[i]
        self.quota_bal[i] -= 2.0 * self.deg[i]
        self.quota_bal[nbrs] += 2.0
        self.sum_bal[i] += self.deg[i] * two_p
        self.sum_bal[nbrs] -= two_p

    # -- introspection used by the recomputation tests --

    def quota_balance(self) -> np.ndarray:
        return self.quota_bal.copy()

    def sum_balance(self) -> np.ndarray:
        return self.sum_bal.copy()


def step_objective(state, class_index: int, coef_n: float, coef_r: float, w) -> float:
    """Class-dependent part of the conditional expectation for one choice."""
    if not 0 <= class_index < state.k:
        raise ValueError("class index out of range")
    return state.objective(
        class_index, float(coef_n), float(coef_r), np.asarray(w, dtype=np.float64)
    )


def step_coefficients(point, t: int, prefix_sum, prefix_sq: float):
    """Per-step scalars (coef_n, coef_r, w) from the unplaced-prefix aggregates.

    t is the number of rows still unplaced after the current one,
    prefix_sum their coordinate sum, prefix_sq the sum of their squared
    norms. Dropping class-independent constants, the conditional
    expectation of the squared lifted-sum norm after assigning `point`
    to class i is coef_n*deg[i] + coef_r*quota_bal[i] + <w, sum_bal[i]>.
    """
    p = np.asarray(point, dtype=np.float64)
    alpha = float(p @ p)
    if t == 0:
        return alpha, 0.0, p
    s = np.asarray(prefix_sum, dtype=np.float64)
    cp = s / t
    beta = float(p @ cp)
    corr = (float(s @ s) - prefix_sq) / (t * (t - 1)) if t >= 2 else 0.0
    coef_n = alpha - 2.0 * beta - prefix_sq / t + 2.0 * corr
    coef_r = beta - corr
    return coef_n, coef_r, p - cp


def select_class(state, coef_n: float, coef_r: float, w) -> int:
    """Pick the feasible class with the smallest objective.

    A masked argmin: classes with no remaining quota score infinity and
    the lowest index wins ties. The minimum over feasible classes never
    exceeds their quota-weighted average, so the running conditional
    expectation cannot grow. Raises InfeasibleError when every quota is
    used up.
    """
    vals = state.objectives(float(coef_n), float(coef_r), np.asarray(w, dtype=np.float64))
    best = int(np.argmin(np.where(state.quota > 0, vals, np.inf)))
    if state.quota[best] <= 0:
        raise InfeasibleError("size spec exhausted")
    return best


def apply_selection(state, class_index: int, point) -> None:
    """Commit the assignment, updating the per-class bookkeeping."""
    if not 0 <= class_index < state.k:
        raise ValueError("class index out of range")
    if state.quota[class_index] <= 0:
        raise InfeasibleError("size spec exhausted")
    state.apply(class_index, np.asarray(point, dtype=np.float64))


def _traverse(centered: np.ndarray, state) -> np.ndarray:
    """Assign every row to a class, scanning rows in reverse order."""
    n = centered.shape[0]
    prefix = np.cumsum(centered, axis=0)
    sq = np.einsum("ij,ij->i", centered, centered)
    sq_prefix = np.cumsum(sq)
    assign = np.empty(n, dtype=np.int64)
    for t in range(n - 1, -1, -1):
        p = centered[t]
        if t > 0:
            coef_n, coef_r, w = step_coefficients(p, t, prefix[t - 1], float(sq_prefix[t - 1]))
        else:
            coef_n, coef_r, w = step_coefficients(p, 0, None, 0.0)
        i = select_class(state, coef_n, coef_r, w)
        apply_selection(state, i, p)
        assign[t] = i
    return assign


def _ceil_log(k: int, base: int) -> int:
    """Smallest h with base**h >= k, computed in integers."""
    h = 0
    v = 1
    while v < k:
        v *= base
        h += 1
    return h


def radius_bound(
    mode: str,
    n: int,
    k: int,
    sizes=None,
    diam: float = 1.0,
    graph_stats=None,
    arity: int = 4,
) -> float:
    """Guaranteed covering radius for the given partition mode.

    general:         (n / min size) * sqrt(10 * ceil(log4 k) / (n-1)) * diam
                     for the default arity 4; other arities use the tree
                     stats as (n / min size) * sqrt(2*height*maxdeg/(n-1)) * diam
    balanced:        sqrt(k(k-1) / (n-1)) * diam
    nearly_balanced: sqrt((k+2)(k-1) / (n-1)) * diam
    """
    if k < 1:
        raise InfeasibleError("need at least one class")
    if k == 1 or n <= 1:
        return 0.0
    if mode == "balanced":
        return math.sqrt(k * (k - 1) / (n - 1)) * diam
    if mode == "nearly_balanced":
        return math.sqrt((k + 2) * (k - 1) / (n - 1)) * diam
    if mode == "general":
        if sizes is None:
            raise ValueError("general mode needs the size spec")
        min_size = min(_as_sizes(sizes))
        if arity == 4:
            return (n / min_size) * math.sqrt(10.0 * _ceil_log(k, 4) / (n - 1)) * diam
        if graph_stats is None:
            raise ValueError("non-default arity needs graph stats")
        return (
            (n / min_size)
            * math.sqrt(2.0 * graph_stats.diameter_or_height * graph_stats.max_degree / (n - 1))
            * diam
        )
    raise ValueError(f"unknown mode {mode!r}")


def traversal_norm_bound(mode: str, n: int, k: int, diam: float, max_degree: int | None = None) -> float:
    """Averaging bound that the produced lifted centroid must stay under.

    general graphs: sqrt(maxdeg / (2(n-1))) * diam; stars with equal
    class sizes: sqrt((k-1) / (k(n-1))) * diam.
    """
    if n <= 1 or k <= 1:
        return 0.0
    if mode == "general":
        if max_degree is None:
            raise ValueError("general mode needs the graph max degree")
        return math.sqrt(max_degree / (2.0 * (n - 1))) * diam
    if mode in ("balanced", "nearly_balanced"):
        return math.sqrt((k - 1) / (k * (n - 1))) * diam
    raise ValueError(f"unknown mode {mode!r}")


@dataclass(frozen=True, eq=False)
class TverbergCertificate:
    """Partition plus the measured and guaranteed covering radii.

    parts hold 0-based input row indices; part_centroids and the ball
    live in the original input coordinates. The ball radius equals
    radius_guaranteed; radius_achieved is the measured distance from the
    ball center to the farthest part centroid. traversal_centroid_norm is
    the norm of the mean lifted point of the run that produced the
    partition (for the nearly balanced mode: of its balanced sub-run),
    and must stay below traversal_norm_bound.
    """

    mode: str
    sizes: tuple[int, ...]
    arity: int | None
    parts: tuple[tuple[int, ...], ...]
    part_centroids: np.ndarray
    ball: Ball
    radius_guaranteed: float
    radius_achieved: float
    traversal_centroid_norm: float
    traversal_norm_bound: float
    diameter_used: float
    diameter_exact: bool

    @property
    def k(self) -> int:
        return len(self.parts)

    @property
    def n(self) -> int:
        return sum(self.sizes)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def _parts_from_assign(assign: np.ndarray, k: int) -> tuple[tuple[int, ...], ...]:
    order = np.argsort(assign, kind="stable").tolist()
    ends = np.cumsum(np.bincount(assign, minlength=k)).tolist()
    return tuple(tuple(order[a:b]) for a, b in zip([0] + ends[:-1], ends))


def _assign_from_parts(parts, n: int) -> np.ndarray:
    assign = np.full(n, -1, dtype=np.int64)
    for c, part in enumerate(parts):
        for i in part:
            assign[i] = c
    return assign


def _class_sums(rows: np.ndarray, assign: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-class row sums and row counts, grouped in one pass.

    Callers pass rows already centered near the origin, so the sums keep
    their precision for inputs far from it.
    """
    sums = np.zeros((k, rows.shape[1]))
    np.add.at(sums, assign, rows)
    return sums, np.bincount(assign, minlength=k)


def _part_centroids(sums: np.ndarray, counts: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Class means of rows summed relative to center.

    An empty class, which only a tampered certificate has, gets 0/0 = NaN.
    """
    with np.errstate(invalid="ignore"):
        return sums / counts[:, None] + center


def _traversal_norm(sums: np.ndarray, counts: np.ndarray, graph: LiftingGraph) -> float:
    """Norm of the mean lifted point for the given class sums.

    The sums cover exactly the rows that took part in the run; they are
    re-centered over those rows before lifting.
    """
    n = int(counts.sum())
    if n == 0:
        return 0.0
    centered = sums - counts[:, None] * (sums.sum(axis=0) / n)
    return math.sqrt(max(quadratic_form(graph, centered), 0.0)) / n


def _graph_for_mode(mode: str, k: int, arity: int | None) -> LiftingGraph:
    if mode == "general":
        return make_graph("balanced_ary", k, arity)
    return make_graph("star", k)


def _run_rows(mode: str, n: int, k: int) -> int:
    """Rows the traversal places; the nearly balanced mode leaves n mod k."""
    return n - n % k if mode == "nearly_balanced" else n


def _sizes_within_one(n: int, k: int) -> tuple[int, ...]:
    """Nearly balanced part sizes: the first n mod k parts get one extra row."""
    return tuple(n // k + (j < n % k) for j in range(k))


def _ball_center(mode: str, center: np.ndarray, cents: np.ndarray) -> np.ndarray:
    """Input centroid for general sizes, first part centroid for the star modes."""
    return center if mode == "general" else cents[0]


def _guarantees(mode, n, k, sizes, arity, diam, graph) -> tuple[float, float]:
    """(radius guarantee, traversal norm bound) for a partition's mode."""
    if mode == "general":
        gstats = stats(graph) if arity != 4 else None
        return (
            radius_bound("general", n, k, sizes, diam, graph_stats=gstats, arity=arity),
            traversal_norm_bound("general", n, k, diam, int(graph.degrees.max())),
        )
    return (
        radius_bound(mode, n, k, diam=diam),
        traversal_norm_bound(mode, _run_rows(mode, n, k), k, diam),
    )


def check_certificate(cert: TverbergCertificate, points: PointSet) -> list[CheckResult]:
    """Recompute every certificate claim from the raw input.

    Returns one CheckResult per claim; callers decide whether failures
    are fatal. The partition constructors run this and raise.
    """
    coords = _as_point_set(points).coords
    n, _ = coords.shape
    k = cert.k
    checks: list[CheckResult] = []
    scale = max(cert.diameter_used, 1.0)

    def add(name: str, ok: bool, detail: str = "") -> None:
        checks.append(CheckResult(name, bool(ok), detail))

    flat = sorted(i for part in cert.parts for i in part)
    add("partition_covers_input", flat == list(range(n)), f"{len(flat)} of {n} rows")
    add(
        "part_sizes_match",
        tuple(len(p) for p in cert.parts) == cert.sizes and sum(cert.sizes) == n,
        f"sizes={tuple(len(p) for p in cert.parts)}",
    )
    if cert.mode == "nearly_balanced":
        expected = _sizes_within_one(n, k) if k else "at least one part"
        add("nearly_balanced_size_pattern", cert.sizes == expected, f"expected {expected}")
    if flat != list(range(n)):
        return checks  # nothing else is well defined

    assign = _assign_from_parts(cert.parts, n)
    n0 = _run_rows(cert.mode, n, k)
    center = coords.mean(axis=0)
    run_sums, run_counts = _class_sums(coords[:n0] - center, assign[:n0], k)
    tail_sums, tail_counts = _class_sums(coords[n0:] - center, assign[n0:], k)
    cents = _part_centroids(run_sums + tail_sums, run_counts + tail_counts, center)
    cent_err = float(np.abs(cents - cert.part_centroids).max())
    add("part_centroids_match", cent_err <= REL_SLACK * scale + ABS_GUARD, f"max err {cent_err:.3e}")

    center_err = float(np.linalg.norm(_ball_center(cert.mode, center, cents) - cert.ball.center))
    add("ball_center_matches_mode", center_err <= REL_SLACK * scale + ABS_GUARD, f"err {center_err:.3e}")

    achieved = float(np.sqrt(((cents - cert.ball.center) ** 2).sum(axis=1)).max())
    add(
        "radius_achieved_matches",
        abs(achieved - cert.radius_achieved) <= REL_SLACK * scale + ABS_GUARD,
        f"measured {achieved!r} stored {cert.radius_achieved!r}",
    )
    slack = REL_SLACK * cert.diameter_used + ABS_GUARD
    add(
        "radius_within_guarantee",
        achieved <= cert.radius_guaranteed + slack,
        f"achieved {achieved!r} guaranteed {cert.radius_guaranteed!r}",
    )

    diam_recomputed, _ = diameter_bound(points, n if cert.diameter_exact else 0)
    diam_err = abs(diam_recomputed - cert.diameter_used)
    add("diameter_matches", diam_err <= REL_SLACK * scale + ABS_GUARD, f"err {diam_err:.3e}")

    arity = 4 if cert.arity is None else cert.arity
    graph = _graph_for_mode(cert.mode, k, arity)
    guar, bound = _guarantees(cert.mode, n, k, cert.sizes, arity, cert.diameter_used, graph)
    add(
        "guarantee_formula",
        abs(guar - cert.radius_guaranteed) <= REL_SLACK * max(guar, 1.0) + ABS_GUARD,
        f"recomputed {guar!r} stored {cert.radius_guaranteed!r}",
    )

    norm = _traversal_norm(run_sums, run_counts, graph)
    add(
        "traversal_norm_matches",
        abs(norm - cert.traversal_centroid_norm) <= REL_SLACK * scale + ABS_GUARD,
        f"recomputed {norm!r} stored {cert.traversal_centroid_norm!r}",
    )
    add(
        "traversal_norm_within_bound",
        cert.traversal_centroid_norm <= cert.traversal_norm_bound + slack,
        f"norm {cert.traversal_centroid_norm!r} bound {cert.traversal_norm_bound!r}",
    )
    add(
        "traversal_bound_formula",
        abs(bound - cert.traversal_norm_bound) <= REL_SLACK * max(bound, 1.0) + ABS_GUARD,
        f"recomputed {bound!r} stored {cert.traversal_norm_bound!r}",
    )
    return checks


def _as_point_set(points) -> PointSet:
    return points if isinstance(points, PointSet) else PointSet(points)


def _partition(pts: PointSet, mode: str, sizes, arity, threshold: int) -> TverbergCertificate:
    """Traverse, assemble and self-check one certificate with the given part sizes.

    The traversal places the first _run_rows(mode, n, k) rows; the n mod k
    rows left over in the nearly balanced mode go to parts 0, 1, ...
    round-robin, so the traversal quotas are sizes minus those leftovers.
    """
    n, k = pts.n, len(sizes)
    n0 = _run_rows(mode, n, k)
    graph = _graph_for_mode(mode, k, arity)
    center = pts.coords[:n0].mean(axis=0)
    centered = pts.coords[:n0] - center
    quotas = tuple(r - (j < n - n0) for j, r in enumerate(sizes))
    assign = _traverse(centered, _TraversalState(graph, quotas, pts.dim))
    sums, counts = _class_sums(centered, assign, k)
    norm = _traversal_norm(sums, counts, graph)

    assign = np.concatenate([assign, np.arange(n - n0)])
    parts = _parts_from_assign(assign, k)
    sums[: n - n0] += pts.coords[n0:] - center
    counts[: n - n0] += 1
    cents = _part_centroids(sums, counts, center)
    ball_center = _ball_center(mode, center, cents)
    diam, diam_exact = diameter_bound(pts, threshold)
    guaranteed, bound = _guarantees(mode, n, k, sizes, arity, diam, graph)
    achieved = float(np.sqrt(((cents - ball_center) ** 2).sum(axis=1)).max())

    cert = TverbergCertificate(
        mode=mode,
        sizes=sizes,
        arity=arity,
        parts=parts,
        part_centroids=cents,
        ball=Ball(ball_center, guaranteed),
        radius_guaranteed=guaranteed,
        radius_achieved=achieved,
        traversal_centroid_norm=norm,
        traversal_norm_bound=bound,
        diameter_used=diam,
        diameter_exact=diam_exact,
    )
    failures = [c for c in check_certificate(cert, pts) if not c.ok]
    if failures:
        raise CertificateError(failures)
    return cert


def partition_general(
    points,
    sizes,
    arity: int = 4,
    diameter_exact_threshold: int = DIAMETER_EXACT_DEFAULT_THRESHOLD,
) -> TverbergCertificate:
    """Partition into classes of the prescribed sizes.

    The lifting graph is a balanced arity-ary tree; the ball is centered
    at the input centroid. Raises InfeasibleError when the sizes do not
    sum to n or there are more classes than points.
    """
    pts = _as_point_set(points)
    sizes = _as_sizes(sizes)
    if len(sizes) > pts.n:
        raise InfeasibleError("more classes than points")
    if sum(sizes) != pts.n:
        raise InfeasibleError("class sizes must sum to the number of points")
    if arity < 2:
        raise InfeasibleError("tree arity must be at least 2")
    return _partition(pts, "general", sizes, arity, diameter_exact_threshold)


def partition_balanced(
    points,
    k: int,
    diameter_exact_threshold: int = DIAMETER_EXACT_DEFAULT_THRESHOLD,
) -> TverbergCertificate:
    """Partition into k equal classes (k must divide n).

    Uses the star lifting; the ball is centered at the first part's
    centroid with guarantee sqrt(k(k-1)/(n-1)) * diam.
    """
    pts = _as_point_set(points)
    if k < 1:
        raise InfeasibleError("need at least one class")
    if k > pts.n:
        raise InfeasibleError("more classes than points")
    if pts.n % k != 0:
        raise InfeasibleError(
            "class count must divide the point count; use partition_nearly_balanced otherwise"
        )
    return _partition(pts, "balanced", (pts.n // k,) * k, None, diameter_exact_threshold)


def partition_nearly_balanced(
    points,
    k: int,
    diameter_exact_threshold: int = DIAMETER_EXACT_DEFAULT_THRESHOLD,
) -> TverbergCertificate:
    """Partition into k classes whose sizes differ by at most one.

    Runs the balanced partitioner on the first k*floor(n/k) rows, then
    hands the trailing leftovers to parts 0, 1, ... round-robin. The
    guarantee widens to sqrt((k+2)(k-1)/(n-1)) * diam. When k divides n
    the result is the balanced certificate.
    """
    pts = _as_point_set(points)
    if k < 1:
        raise InfeasibleError("need at least one class")
    if k > pts.n:
        raise InfeasibleError("more classes than points")
    mode = "nearly_balanced" if pts.n % k else "balanced"
    return _partition(pts, mode, _sizes_within_one(pts.n, k), None, diameter_exact_threshold)
