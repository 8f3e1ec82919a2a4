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

Each step takes the feasible class with the smallest computed value, the
lowest index winning ties among equal computed values. The values come
from a BLAS product, which may score classes with identical state an ulp
apart, so such classes need not tie. A minimum over the feasible
classes never exceeds their quota-weighted average, and a feasible class
exists until every row is placed.

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
    _as_point_set,
    _block_rows,
    diameter_bound,
)
from .lifting import LiftingGraph, make_graph, quadratic_form, stats

__all__ = [
    "CertificateError",
    "CheckResult",
    "InfeasibleError",
    "TverbergCertificate",
    "apply_selection",
    "check_certificate",
    "partition_balanced",
    "partition_general",
    "partition_nearly_balanced",
    "radius_bound",
    "select_class",
    "step_coefficients",
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


def _as_sizes(sizes) -> tuple[int, ...]:
    """Prescribed class sizes, one positive entry per class."""
    sizes = tuple(int(r) for r in sizes)
    if len(sizes) == 0:
        raise InfeasibleError("need at least one class")
    if any(r < 1 for r in sizes):
        raise InfeasibleError("class sizes must be positive")
    return sizes


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
        self.neighbors = graph._neighbor_index
        nbr_quota = np.array([sum(sizes[j] for j in a) for a in graph.adjacency], dtype=np.float64)
        self.quota_bal = 2.0 * (self.quota * self.deg - nbr_quota)
        self.sum_bal = np.zeros((k, dim))

    def objectives(self, coef_n: float, coef_r: float, w: np.ndarray) -> np.ndarray:
        return coef_n * self.deg + coef_r * self.quota_bal + self.sum_bal @ w

    def apply(self, i: int, p: np.ndarray) -> None:
        self.quota[i] -= 1
        two_p = 2.0 * p
        nbrs = self.neighbors[i]
        self.quota_bal[i] -= 2.0 * self.deg[i]
        self.quota_bal[nbrs] += 2.0
        self.sum_bal[i] += self.deg[i] * two_p
        self.sum_bal[nbrs] -= two_p


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
    the lowest index wins ties among equal computed values (classes with
    identical state rows may still score an ulp apart, since sum_bal @ w
    is a BLAS product). The minimum over feasible classes never
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


def _centered_block(rows: np.ndarray, center: np.ndarray, carry):
    """rows - center, with the running sums of those rows and of their squared norms.

    carry holds both sums over every row before the block, or is None for
    the first block. np.cumsum adds one row at a time, so adding the carry
    into the first row gives, bit for bit, the sums of one cumsum over all
    rows.
    """
    block = rows - center
    sq = np.einsum("ij,ij->i", block, block)
    if carry is None:
        return block, np.cumsum(block, axis=0), np.cumsum(sq)
    prefix = block.copy()
    prefix[0] += carry[0]
    sq[0] += carry[1]
    return block, np.cumsum(prefix, axis=0, out=prefix), np.cumsum(sq, out=sq)


def _block_carry(rows: np.ndarray, center: np.ndarray, carry) -> tuple[np.ndarray, float]:
    """The two running sums at the end of the block, copied out of its temporaries."""
    _, prefix, sq_prefix = _centered_block(rows, center, carry)
    return prefix[-1].copy(), float(sq_prefix[-1])


def _traverse_block(rows, center, lo: int, carry, state, assign: np.ndarray) -> None:
    """Assign rows lo, lo+1, ... of the input, scanning them in reverse order."""
    block, prefix, sq_prefix = _centered_block(rows, center, carry)
    for t in range(block.shape[0] - 1, -1, -1):
        p = block[t]
        if t > 0:
            coef_n, coef_r, w = step_coefficients(p, lo + t, prefix[t - 1], float(sq_prefix[t - 1]))
        elif lo > 0:
            coef_n, coef_r, w = step_coefficients(p, lo, carry[0], carry[1])
        else:
            coef_n, coef_r, w = step_coefficients(p, 0, None, 0.0)
        i = select_class(state, coef_n, coef_r, w)
        apply_selection(state, i, p)
        assign[lo + t] = i


def _traverse(coords: np.ndarray, center: np.ndarray, state) -> np.ndarray:
    """Assign every row of coords - center to a class, scanning rows in reverse order.

    The centered rows, their squared norms and the prefix sums of both are
    formed one _SCAN_BYTES block of rows at a time, and only one block's
    temporaries are alive at once. A forward pass over every block but the
    last keeps the two sums at each block start; the reverse pass
    re-accumulates each block from its carry. An input of one block does
    no forward pass.
    """
    step = _block_rows(8 * coords.shape[1])
    starts = range(0, coords.shape[0], step)
    carries = [None]
    for lo in starts[:-1]:
        carries.append(_block_carry(coords[lo : lo + step], center, carries[-1]))
    assign = np.empty(coords.shape[0], dtype=np.int64)
    for lo, carry in zip(reversed(starts), reversed(carries)):
        _traverse_block(coords[lo : lo + step], center, lo, carry, state, assign)
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

    parts hold 0-based input row indices; part_centroids and ball_center
    live in the original input coordinates. The covering ball is the
    property ball: ball_center with radius radius_guaranteed.
    radius_achieved is the measured distance from the ball center to the
    farthest part centroid. traversal_centroid_norm is the norm of the
    mean lifted point of the run that produced the partition (for the
    nearly balanced mode: of its balanced sub-run), and must stay below
    traversal_norm_bound.
    """

    mode: str
    sizes: tuple[int, ...]
    arity: int | None
    parts: tuple[tuple[int, ...], ...]
    part_centroids: np.ndarray
    ball_center: np.ndarray
    radius_guaranteed: float
    radius_achieved: float
    traversal_centroid_norm: float
    traversal_norm_bound: float
    diameter_used: float
    diameter_exact: bool

    @property
    def ball(self) -> Ball:
        return Ball(self.ball_center, self.radius_guaranteed)

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


class _Checks(list):
    """The CheckResults of one certificate, in the order its claims are checked."""

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.append(CheckResult(name, bool(ok), detail))

    def close(self, name: str, recomputed, stored, scale: float) -> None:
        """Pass when |recomputed - stored| <= REL_SLACK * max(scale, 1) + ABS_GUARD.

        Arrays compare entrywise; arrays of different shapes fail.
        """
        a = np.asarray(recomputed, dtype=np.float64)
        b = np.asarray(stored, dtype=np.float64)
        err = float(np.abs(a - b).max(initial=0.0)) if a.shape == b.shape else math.inf
        scalar = a.shape == b.shape == ()
        detail = f"recomputed {float(a)!r} stored {float(b)!r}" if scalar else f"max err {err:.3e}"
        self.add(name, err <= REL_SLACK * max(scale, 1.0) + ABS_GUARD, detail)


def _radius(cents: np.ndarray, center: np.ndarray) -> float:
    """Largest distance from center to a row of cents, 0 for no rows; inf when the dimensions differ."""
    if center.shape != cents.shape[1:]:
        return math.inf
    with np.errstate(over="ignore", invalid="ignore"):  # a huge stored coordinate gives inf, which fails
        return float(np.sqrt(((cents - center) ** 2).sum(axis=1)).max(initial=0.0))


def _require(checks: list[CheckResult]) -> None:
    """A builder's self-check: raise CertificateError naming every failed check."""
    failures = [c for c in checks if not c.ok]
    if failures:
        raise CertificateError(failures)


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


def _class_sums(
    coords: np.ndarray, center: np.ndarray, assign: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-class sums of coords - center, and row counts.

    Centering keeps the sums precise for inputs far from the origin. The
    rows are centered one _SCAN_BYTES block at a time; np.add.at adds
    them one by one in row order, so the blocks make the same additions
    as one call over every row.
    """
    sums = np.zeros((k, coords.shape[1]))
    step = _block_rows(8 * coords.shape[1])
    for lo in range(0, coords.shape[0], step):
        np.add.at(sums, assign[lo : lo + step], coords[lo : lo + step] - center)
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
    pts = _as_point_set(points)
    coords, n, k = pts.coords, pts.n, cert.k
    checks = _Checks()
    scale = max(cert.diameter_used, 1.0)

    flat = sorted(i for part in cert.parts for i in part)
    covers = flat == list(range(n))
    checks.add("partition_covers_input", covers, f"{len(flat)} of {n} rows")
    sizes = tuple(len(p) for p in cert.parts)
    checks.add("part_sizes_match", sizes == cert.sizes and sum(cert.sizes) == n, f"sizes={sizes}")
    if cert.mode == "nearly_balanced":
        expected = _sizes_within_one(n, k) if k else "at least one part"
        checks.add("nearly_balanced_size_pattern", cert.sizes == expected, f"expected {expected}")
    if not covers:
        return checks  # nothing else is well defined

    assign = _assign_from_parts(cert.parts, n)
    n0 = _run_rows(cert.mode, n, k)
    center = coords.mean(axis=0)
    run_sums, run_counts = _class_sums(coords[:n0], center, assign[:n0], k)
    tail_sums, tail_counts = _class_sums(coords[n0:], center, assign[n0:], k)
    cents = _part_centroids(run_sums + tail_sums, run_counts + tail_counts, center)
    checks.close("part_centroids_match", cents, cert.part_centroids, scale)
    center_err = _radius(_ball_center(cert.mode, center, cents)[None], cert.ball_center)
    checks.close("ball_center_matches_mode", center_err, 0.0, scale)
    achieved = _radius(cents, cert.ball_center)
    checks.close("radius_achieved_matches", achieved, cert.radius_achieved, scale)
    slack = REL_SLACK * cert.diameter_used + ABS_GUARD
    checks.add(
        "radius_within_guarantee",
        achieved <= cert.radius_guaranteed + slack,
        f"achieved {achieved!r} guaranteed {cert.radius_guaranteed!r}",
    )

    diam = pts.diameter if cert.diameter_exact else pts.upper_diameter
    checks.close("diameter_matches", diam, cert.diameter_used, scale)

    arity = 4 if cert.arity is None else cert.arity
    graph = _graph_for_mode(cert.mode, k, arity)
    guar, bound = _guarantees(cert.mode, n, k, cert.sizes, arity, cert.diameter_used, graph)
    checks.close("guarantee_formula", guar, cert.radius_guaranteed, guar)
    norm = _traversal_norm(run_sums, run_counts, graph)
    checks.close("traversal_norm_matches", norm, cert.traversal_centroid_norm, scale)
    checks.add(
        "traversal_norm_within_bound",
        cert.traversal_centroid_norm <= cert.traversal_norm_bound + slack,
        f"norm {cert.traversal_centroid_norm!r} bound {cert.traversal_norm_bound!r}",
    )
    checks.close("traversal_bound_formula", bound, cert.traversal_norm_bound, bound)
    return checks


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
    quotas = tuple(r - (j < n - n0) for j, r in enumerate(sizes))
    assign = _traverse(pts.coords[:n0], center, _TraversalState(graph, quotas, pts.dim))
    sums, counts = _class_sums(pts.coords[:n0], center, assign, k)
    norm = _traversal_norm(sums, counts, graph)

    assign = np.concatenate([assign, np.arange(n - n0)])
    parts = _parts_from_assign(assign, k)
    sums[: n - n0] += pts.coords[n0:] - center
    counts[: n - n0] += 1
    cents = _part_centroids(sums, counts, center)
    ball_center = _ball_center(mode, center, cents)
    diam, diam_exact = diameter_bound(pts, threshold)
    guaranteed, bound = _guarantees(mode, n, k, sizes, arity, diam, graph)
    achieved = _radius(cents, ball_center)

    cert = TverbergCertificate(
        mode=mode,
        sizes=sizes,
        arity=arity,
        parts=parts,
        part_centroids=cents,
        ball_center=ball_center,
        radius_guaranteed=guaranteed,
        radius_achieved=achieved,
        traversal_centroid_norm=norm,
        traversal_norm_bound=bound,
        diameter_used=diam,
        diameter_exact=diam_exact,
    )
    _require(check_certificate(cert, pts))
    return cert


def partition_general(points, sizes, arity: int = 4) -> TverbergCertificate:
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
    return _partition(pts, "general", sizes, arity, DIAMETER_EXACT_DEFAULT_THRESHOLD)


def partition_balanced(points, k: int) -> TverbergCertificate:
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
    return _partition(pts, "balanced", (pts.n // k,) * k, None, DIAMETER_EXACT_DEFAULT_THRESHOLD)


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
