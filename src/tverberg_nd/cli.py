"""Command-line interface.

Subcommands: tverberg / colorful / hamsandwich run the three algorithms
and write certificate documents; verify recomputes every claim of a
document against the original input; gen fabricates datasets; bench
times the partitioners over a size grid and fits the growth exponent.

Exit codes: 0 success, 1 verification check failure, 2 input parse
failure, 3 infeasible parameters, 4 digest mismatch.

Certificates are JSON with schema tag "tverberg-nd/1". Floats are
emitted with 17 significant digits so parse(emit(x)) == x, and documents
contain nothing run-dependent unless --timing is passed, so a rerun on
the same input is byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from xml.sax.saxutils import quoteattr

import numpy as np

from .colorful import (
    ColorfulCertificate,
    ColorInstance,
    check_colorful_certificate,
    partition_colorful,
)
from .geom import Ball, PointSet
from .hamsandwich import (
    DepthCertificate,
    ProjectionChain,
    check_depth_certificate,
    generalized_ham_sandwich,
    product_set,
)
from .tverberg import (
    InfeasibleError,
    TverbergCertificate,
    check_certificate,
    partition_general,
    partition_nearly_balanced,
)

__all__ = ["ParseError", "entry", "main"]

SCHEMA = "tverberg-nd/1"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_DIGEST = 4


class ParseError(Exception):
    """Input file rejected; carries the offending line when known."""

    def __init__(self, path: str, message: str, line: int | None = None):
        loc = f"{path}:{line}" if line is not None else path
        super().__init__(f"{loc}: {message}")
        self.path = path
        self.line = line


# ---------------------------------------------------------------- loading


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return "sha256:" + hashlib.sha256(fh.read()).hexdigest()


def _looks_like_json(path: str) -> bool:
    if path.endswith(".json"):
        return True
    try:
        with open(path, "r", encoding="utf-8") as fh:
            head = fh.read(64).lstrip()
    except OSError as exc:
        raise ParseError(path, str(exc)) from exc
    return head.startswith("{") or head.startswith("[")


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(path, str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise ParseError(path, exc.msg, exc.lineno) from exc


def _check_dim(path: str, doc: dict, width: int) -> None:
    """An optional "dim" field must be an integer equal to the point width."""
    if "dim" not in doc:
        return
    try:
        dim = int(doc["dim"])
    except (TypeError, ValueError):
        raise ParseError(path, f"dim field is not an integer: {doc['dim']!r}") from None
    if dim != width:
        raise ParseError(path, "dim field does not match point width")


def load_points(path: str) -> PointSet:
    """Read a point set from CSV (one row per point) or JSON."""
    if _looks_like_json(path):
        doc = _load_json(path)
        if not isinstance(doc, dict) or "points" not in doc:
            raise ParseError(path, 'expected an object with a "points" array')
        try:
            arr = np.asarray(doc["points"], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ParseError(path, f"points are not rectangular numbers: {exc}") from exc
        if arr.ndim != 2:
            raise ParseError(path, "points must form a 2-d array")
        _check_dim(path, doc, arr.shape[1])
        if not np.isfinite(arr).all():
            raise ParseError(path, "points must be finite")
        return PointSet(arr)

    rows: list[list[float]] = []
    width = None
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ParseError(path, str(exc)) from exc
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            fields = text.replace(",", " ").split()
            try:
                vals = [float(f) for f in fields]
            except ValueError:
                if lineno == 1 and not rows:
                    continue  # header row
                raise ParseError(path, f"non-numeric field in {fields!r}", lineno) from None
            if not all(math.isfinite(v) for v in vals):
                raise ParseError(path, "points must be finite", lineno)
            if width is None:
                width = len(vals)
            elif len(vals) != width:
                raise ParseError(path, f"expected {width} columns, found {len(vals)}", lineno)
            rows.append(vals)
    if not rows:
        raise ParseError(path, "no data rows")
    return PointSet(np.asarray(rows, dtype=np.float64))


def load_classes(path: str) -> ColorInstance:
    """Read a colorful instance: JSON with a "classes" array of point lists."""
    if not _looks_like_json(path):
        raise ParseError(path, 'colorful input must be JSON with a "classes" array')
    doc = _load_json(path)
    if not isinstance(doc, dict) or "classes" not in doc:
        raise ParseError(path, 'expected an object with a "classes" array')
    try:
        arr = np.asarray(doc["classes"], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ParseError(path, f"classes are not rectangular: {exc}") from exc
    if arr.ndim != 3:
        raise InfeasibleError("every class needs the same number of points")
    _check_dim(path, doc, arr.shape[2])
    if not np.isfinite(arr).all():
        raise ParseError(path, "points must be finite")
    return ColorInstance(arr)


# ------------------------------------------------------------- JSON output


def _jsonify(value):
    """Render a document fragment with 17-significant-digit floats."""
    if isinstance(value, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{_jsonify(v)}" for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_jsonify(v) for v in value) + "]"
    if isinstance(value, np.ndarray):
        return _jsonify(value.tolist())
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if value is None:
        return "null"
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value)!r}")


def emit_document(doc: dict) -> bytes:
    return (_jsonify(doc) + "\n").encode("utf-8")


def _write_doc(doc: dict, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(emit_document(doc))


BOUND_NAMES = {
    "general": "tree_lift_min_size_scaled",
    "balanced": "star_lift_equal_sizes",
    "nearly_balanced": "star_lift_sizes_within_one",
}


def _ball_doc(center, guaranteed: float, achieved: float) -> dict:
    return {
        "center": np.asarray(center).tolist(),
        "radius_guaranteed": float(guaranteed),
        "radius_achieved": float(achieved),
    }


def _tverberg_body(cert: TverbergCertificate) -> dict:
    """Fields of a Tverberg document, shared with each ham-sandwich per-set entry."""
    return {
        "mode": cert.mode,
        "parameters": {
            "k": cert.k,
            "sizes": list(cert.sizes),
            "arity": cert.arity,
        },
        "parts": [list(p) for p in cert.parts],
        "part_centroids": cert.part_centroids,
        "ball": _ball_doc(cert.ball.center, cert.radius_guaranteed, cert.radius_achieved),
        "bound": {
            "name": BOUND_NAMES[cert.mode],
            "traversal_centroid_norm": cert.traversal_centroid_norm,
            "traversal_norm_bound": cert.traversal_norm_bound,
        },
        "diameter_used": cert.diameter_used,
        "diameter_exact": cert.diameter_exact,
    }


def _tverberg_doc(cert: TverbergCertificate, digest: str, timing_ms: float | None) -> dict:
    return {
        "schema": SCHEMA,
        "command": "tverberg",
        "input_digest": digest,
        **_tverberg_body(cert),
        "timing_ms": timing_ms,
    }


def _tverberg_from_doc(doc: dict) -> TverbergCertificate:
    """Decode the fields _tverberg_body writes; an unknown mode is a ValueError."""
    if doc["mode"] not in BOUND_NAMES:
        raise ValueError(f"unknown mode {doc['mode']!r}")
    ball = doc["ball"]
    return TverbergCertificate(
        mode=doc["mode"],
        sizes=tuple(int(r) for r in doc["parameters"]["sizes"]),
        arity=None if doc["parameters"]["arity"] is None else int(doc["parameters"]["arity"]),
        parts=tuple(tuple(int(i) for i in part) for part in doc["parts"]),
        part_centroids=np.asarray(doc["part_centroids"], dtype=np.float64),
        ball=Ball(np.asarray(ball["center"], dtype=np.float64), float(ball["radius_guaranteed"])),
        radius_guaranteed=float(ball["radius_guaranteed"]),
        radius_achieved=float(ball["radius_achieved"]),
        traversal_centroid_norm=float(doc["bound"]["traversal_centroid_norm"]),
        traversal_norm_bound=float(doc["bound"]["traversal_norm_bound"]),
        diameter_used=float(doc["diameter_used"]),
        diameter_exact=bool(doc["diameter_exact"]),
    )


def _colorful_doc(cert: ColorfulCertificate, digest: str, timing_ms: float | None) -> dict:
    return {
        "schema": SCHEMA,
        "command": "colorful",
        "input_digest": digest,
        "parameters": {"n_classes": cert.n_classes, "k": cert.k},
        "shifts": list(cert.shifts),
        "parts": [[list(pair) for pair in part] for part in cert.parts],
        "part_centroids": cert.part_centroids,
        "ball": _ball_doc(cert.ball.center, cert.radius_guaranteed, cert.radius_achieved),
        "lifted_sum_norm": cert.lifted_sum_norm,
        "max_class_diameter": cert.max_class_diameter,
        "timing_ms": timing_ms,
    }


def _colorful_from_doc(doc: dict) -> ColorfulCertificate:
    ball = doc["ball"]
    return ColorfulCertificate(
        n_classes=int(doc["parameters"]["n_classes"]),
        k=int(doc["parameters"]["k"]),
        shifts=tuple(int(t) for t in doc["shifts"]),
        parts=tuple(tuple((int(c), int(i)) for c, i in part) for part in doc["parts"]),
        part_centroids=np.asarray(doc["part_centroids"], dtype=np.float64),
        ball=Ball(np.asarray(ball["center"], dtype=np.float64), float(ball["radius_guaranteed"])),
        radius_guaranteed=float(ball["radius_guaranteed"]),
        radius_achieved=float(ball["radius_achieved"]),
        lifted_sum_norm=float(doc["lifted_sum_norm"]),
        max_class_diameter=float(doc["max_class_diameter"]),
    )


def _hamsandwich_doc(cert: DepthCertificate, digests: list[str], timing_ms: float | None) -> dict:
    return {
        "schema": SCHEMA,
        "command": "hamsandwich",
        "input_digest": digests,
        "parameters": {
            "k": len(cert.per_set),
            "dim": int(cert.translation.shape[0]),
            "m": list(cert.m),
        },
        "translation": cert.translation,
        "axes_local": [a.tolist() for a in cert.chain.axes_local],
        "axes_ambient": cert.chain.axes_ambient,
        "lines_local": [ln.direction.tolist() for ln in cert.chain.lines],
        "subspace_basis": cert.chain.basis,
        "ball": {
            "center_local": cert.ball.center,
            "center_ambient": cert.ball_center_ambient,
            "radius": cert.ball.radius,
        },
        "constructive_radius": cert.constructive_radius,
        "existential_radius": cert.existential_radius,
        "depth_lower_bounds": list(cert.depth_lower_bounds),
        "set_diameters": list(cert.set_diameters),
        "set_diameters_exact": list(cert.set_diameters_exact),
        "oracle_depths": None if cert.oracle_depths is None else list(cert.oracle_depths),
        "per_set": [_tverberg_body(sub) for sub in cert.per_set],
        "timing_ms": timing_ms,
    }


def _hamsandwich_from_doc(doc: dict) -> DepthCertificate:
    from .geom import LineThroughOrigin

    dim = int(doc["parameters"]["dim"])
    chain = ProjectionChain(
        axes_local=tuple(np.asarray(a, dtype=np.float64) for a in doc["axes_local"]),
        axes_ambient=np.asarray(doc["axes_ambient"], dtype=np.float64).reshape(-1, dim),
        lines=tuple(
            LineThroughOrigin(np.asarray(v, dtype=np.float64)) for v in doc["lines_local"]
        ),
        basis=np.asarray(doc["subspace_basis"], dtype=np.float64),
    )
    ball = Ball(np.asarray(doc["ball"]["center_local"], dtype=np.float64), float(doc["ball"]["radius"]))
    translation = np.asarray(doc["translation"], dtype=np.float64)
    return DepthCertificate(
        translation=translation,
        chain=chain,
        ball=ball,
        ball_center_ambient=np.asarray(doc["ball"]["center_ambient"], dtype=np.float64),
        product=product_set(chain, ball, translation),
        m=tuple(int(v) for v in doc["parameters"]["m"]),
        depth_lower_bounds=tuple(int(v) for v in doc["depth_lower_bounds"]),
        per_set=tuple(_tverberg_from_doc(sd) for sd in doc["per_set"]),
        constructive_radius=float(doc["constructive_radius"]),
        existential_radius=float(doc["existential_radius"]),
        set_diameters=tuple(float(v) for v in doc["set_diameters"]),
        set_diameters_exact=tuple(bool(v) for v in doc["set_diameters_exact"]),
        oracle_depths=None
        if doc["oracle_depths"] is None
        else tuple(int(v) for v in doc["oracle_depths"]),
    )


_DECODERS = {
    "tverberg": _tverberg_from_doc,
    "colorful": _colorful_from_doc,
    "hamsandwich": _hamsandwich_from_doc,
}


# -------------------------------------------------------------------- SVG

PALETTE = [
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f", "#edc948",
    "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac", "#1f77b4", "#8c564b",
]


def render_svg(points: np.ndarray, labels, centroids: np.ndarray, ball: Ball) -> str:
    """Plane figure: points colored by part, centroid squares, the ball."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.shape[1] != 2:
        raise ValueError("svg rendering needs dimension 2")
    cen = np.asarray(ball.center, dtype=np.float64)
    r = float(ball.radius)
    lo = np.minimum(pts.min(axis=0), cen - r)
    hi = np.maximum(pts.max(axis=0), cen + r)
    span = np.maximum(hi - lo, 1e-9)
    margin = 0.10 * float(span.max())
    lo -= margin
    hi += margin
    width = float(hi[0] - lo[0])
    height = float(hi[1] - lo[1])

    def sx(x: float) -> str:
        return format(x - lo[0], ".6g")

    def sy(y: float) -> str:
        return format(hi[1] - y, ".6g")  # svg y axis points down

    unit = max(width, height)
    pt_r = format(unit / 180, ".6g")
    sq = unit / 80
    parts = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="0 0 {width:.6g} {height:.6g}" '
        f'width="640" height="{640 * height / width:.6g}">'
    )
    parts.append(
        f'<circle class="ball" cx="{sx(cen[0])}" cy="{sy(cen[1])}" r="{r:.6g}" '
        f'fill="none" stroke="#333333" stroke-width="{unit / 300:.6g}" '
        f'stroke-dasharray="{unit / 60:.6g} {unit / 120:.6g}"/>'
    )
    for p, lab in zip(pts, labels):
        color = PALETTE[int(lab) % len(PALETTE)]
        parts.append(
            f'<circle class="point" cx="{sx(p[0])}" cy="{sy(p[1])}" r="{pt_r}" '
            f'fill={quoteattr(color)}/>'
        )
    for idx, c in enumerate(np.asarray(centroids, dtype=np.float64)):
        color = PALETTE[idx % len(PALETTE)]
        parts.append(
            f'<rect class="centroid" x="{format(float(c[0]) - lo[0] - sq / 2, ".6g")}" '
            f'y="{format(hi[1] - float(c[1]) - sq / 2, ".6g")}" '
            f'width="{sq:.6g}" height="{sq:.6g}" fill={quoteattr(color)} '
            f'stroke="#000000" stroke-width="{unit / 400:.6g}"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ----------------------------------------------------------------- timing


def _int_list(text: str, option: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise ParseError(option, f"expected comma-separated integers, got {text!r}") from None


def _timed(flag: bool, fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    dt = (time.perf_counter() - t0) * 1000.0
    return result, (dt if flag else None)


# ------------------------------------------------------------- subcommands


def cmd_tverberg(args) -> int:
    pts = load_points(args.input)
    digest = _digest(args.input)
    if args.sizes:
        sizes = _int_list(args.sizes, "--sizes")
        cert, ms = _timed(args.timing, partition_general, pts, sizes, args.arity)
    else:
        if args.k is None:
            raise InfeasibleError("pass --k or --sizes")
        cert, ms = _timed(args.timing, partition_nearly_balanced, pts, args.k)
    _write_doc(_tverberg_doc(cert, digest, ms), args.out)
    print(
        f"{cert.mode}: n={cert.n} k={cert.k} radius_achieved={cert.radius_achieved:.6g} "
        f"radius_guaranteed={cert.radius_guaranteed:.6g}"
    )
    if args.svg:
        if pts.dim != 2:
            print("svg skipped: input is not 2-dimensional", file=sys.stderr)
        else:
            labels = np.empty(pts.n, dtype=np.int64)
            for idx, part in enumerate(cert.parts):
                labels[list(part)] = idx
            with open(args.svg, "w", encoding="utf-8") as fh:
                fh.write(render_svg(pts.coords, labels, cert.part_centroids, cert.ball))
    return EXIT_OK


def cmd_colorful(args) -> int:
    inst = load_classes(args.input)
    digest = _digest(args.input)
    cert, ms = _timed(args.timing, partition_colorful, inst)
    _write_doc(_colorful_doc(cert, digest, ms), args.out)
    print(
        f"colorful: classes={cert.n_classes} k={cert.k} radius_achieved={cert.radius_achieved:.6g} "
        f"radius_guaranteed={cert.radius_guaranteed:.6g}"
    )
    if args.svg:
        if inst.dim != 2:
            print("svg skipped: input is not 2-dimensional", file=sys.stderr)
        else:
            flat = inst.classes.reshape(-1, 2)
            labels = np.empty(inst.n_classes * inst.k, dtype=np.int64)
            for node, part in enumerate(cert.parts):
                for c, i in part:
                    labels[c * inst.k + i] = node
            with open(args.svg, "w", encoding="utf-8") as fh:
                fh.write(render_svg(flat, labels, cert.part_centroids, cert.ball))
    return EXIT_OK


def cmd_hamsandwich(args) -> int:
    sets = [load_points(path) for path in args.inputs]
    digests = [_digest(path) for path in args.inputs]
    m = _int_list(args.m, "--m")
    cert, ms = _timed(args.timing, generalized_ham_sandwich, sets, m)
    _write_doc(_hamsandwich_doc(cert, digests, ms), args.out)
    bounds = ",".join(str(b) for b in cert.depth_lower_bounds)
    print(
        f"hamsandwich: k={len(sets)} dim={sets[0].dim} depth_bounds={bounds} "
        f"radius={cert.constructive_radius:.6g}"
    )
    return EXIT_OK


def _print_checks(checks) -> bool:
    ok = True
    for c in checks:
        status = "PASS" if c.ok else "FAIL"
        detail = f"  ({c.detail})" if c.detail else ""
        print(f"{status} {c.name}{detail}")
        ok = ok and c.ok
    return ok


def cmd_verify(args) -> int:
    doc = _load_json(args.certificate)
    if not isinstance(doc, dict):
        raise ParseError(args.certificate, "a certificate must be a JSON object")
    if doc.get("schema") != SCHEMA:
        raise ParseError(args.certificate, f"unknown schema {doc.get('schema')!r}")
    command = doc.get("command")
    stored = doc.get("input_digest")
    if command == "hamsandwich":
        actual = [_digest(p) for p in args.inputs]
    else:
        if len(args.inputs) != 1:
            raise ParseError(args.certificate, "this certificate verifies against one input file")
        actual = _digest(args.inputs[0])
    if stored != actual:
        print(f"digest mismatch: certificate has {stored}, input is {actual}", file=sys.stderr)
        return EXIT_DIGEST

    if command not in _DECODERS:
        raise ParseError(args.certificate, f"unknown command {command!r}")
    try:
        cert = _DECODERS[command](doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(args.certificate, f"malformed certificate: {exc!r}") from exc
    if command == "tverberg":
        checks = check_certificate(cert, load_points(args.inputs[0]))
    elif command == "colorful":
        checks = check_colorful_certificate(cert, load_classes(args.inputs[0]))
    else:
        checks = check_depth_certificate(cert, [load_points(p) for p in args.inputs])
    return EXIT_OK if _print_checks(checks) else EXIT_CHECK_FAILED


def _generate(dist: str, n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    if dist == "uniform":
        return rng.random((n, d))
    if dist == "gaussian":
        return rng.standard_normal((n, d))
    if dist == "clustered":
        n_centers = max(1, min(8, n))
        centers = rng.uniform(0.0, 10.0, (n_centers, d))
        which = rng.integers(0, n_centers, n)
        return centers[which] + 0.5 * rng.standard_normal((n, d))
    raise InfeasibleError(f"unknown distribution {dist!r}")


def cmd_gen(args) -> int:
    rng = np.random.default_rng(args.seed)
    if args.classes is not None:
        if args.k is None:
            raise InfeasibleError("--classes needs --k (points per class)")
        arr = _generate(args.dist, args.classes * args.k, args.d, rng)
        classes = arr.reshape(args.classes, args.k, args.d)
        _write_doc({"dim": args.d, "classes": classes}, args.out)
    else:
        if args.n is None:
            raise InfeasibleError("pass --n (or --classes with --k)")
        arr = _generate(args.dist, args.n, args.d, rng)
        lines = [",".join(format(v, ".17g") for v in row) for row in arr]
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines))
            if lines:
                fh.write("\n")
    print(f"wrote {args.out}")
    return EXIT_OK


def _fit_exponent(xs, ys) -> float:
    lx = np.log(np.asarray(xs, dtype=np.float64))
    ly = np.log(np.asarray(ys, dtype=np.float64))
    slope = np.polyfit(lx, ly, 1)[0]
    return float(slope)


def run_bench_tverberg(n_grid, k: int, d: int, reps: int, seed: int = 12345):
    """Time the equal-sizes partitioner across n; returns (rows, exponent)."""
    rows = []
    for n in n_grid:
        rng = np.random.default_rng(seed + n)
        coords = rng.standard_normal((n, d))
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            partition_nearly_balanced(coords, k, diameter_exact_threshold=0)
            times.append((time.perf_counter() - t0) * 1000.0)
        rows.append((n, float(np.median(times))))
    return rows, _fit_exponent([r[0] for r in rows], [max(r[1], 1e-6) for r in rows])


def run_bench_colorful(k_grid, n_classes: int, d: int, reps: int, seed: int = 12345):
    """Time the rainbow partitioner across k; returns (rows, exponent)."""
    rows = []
    for k in k_grid:
        rng = np.random.default_rng(seed + k)
        classes = rng.standard_normal((n_classes, k, d))
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            partition_colorful(ColorInstance(classes))
            times.append((time.perf_counter() - t0) * 1000.0)
        rows.append((k, float(np.median(times))))
    return rows, _fit_exponent([r[0] for r in rows], [max(r[1], 1e-6) for r in rows])


def cmd_bench(args) -> int:
    if args.algo == "tverberg":
        grid = _int_list(args.n_grid, "--n-grid")
        rows, expo = run_bench_tverberg(grid, args.k, args.d, args.reps)
        label = "n"
    else:
        grid = _int_list(args.k_grid, "--k-grid")
        rows, expo = run_bench_colorful(grid, args.n, args.d, args.reps)
        label = "k"
    print(f"{label:>10}  median_ms")
    for x, ms in rows:
        print(f"{x:>10}  {ms:.3f}")
    print(f"fitted exponent: {expo:.3f}")
    return EXIT_OK


# ------------------------------------------------------------------ driver


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tverberg-nd",
        description="Partition point sets so one small ball meets every part hull.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tverberg", help="partition one point set into k parts")
    p.add_argument("input")
    p.add_argument("--k", type=int)
    p.add_argument("--sizes", help="comma-separated part sizes (general mode)")
    p.add_argument("--arity", type=int, default=4, help="lifting tree arity for --sizes mode")
    p.add_argument("--out", required=True)
    p.add_argument("--svg", help="also render a 2-d figure to this path")
    p.add_argument("--timing", action="store_true", help="record wall time in the certificate")
    p.set_defaults(fn=cmd_tverberg)

    p = sub.add_parser("colorful", help="one-point-per-class partition of equal classes")
    p.add_argument("input")
    p.add_argument("--out", required=True)
    p.add_argument("--svg", help="also render a 2-d figure to this path")
    p.add_argument("--timing", action="store_true")
    p.set_defaults(fn=cmd_colorful)

    p = sub.add_parser("hamsandwich", help="joint depth ball for up to d point sets")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--m", required=True, help="comma-separated per-set part sizes")
    p.add_argument("--out", required=True)
    p.add_argument("--timing", action="store_true")
    p.set_defaults(fn=cmd_hamsandwich)

    p = sub.add_parser("verify", help="recheck a certificate against its input")
    p.add_argument("certificate")
    p.add_argument("inputs", nargs="+")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("gen", help="write a synthetic dataset")
    p.add_argument("--dist", choices=["uniform", "gaussian", "clustered"], default="uniform")
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--classes", type=int, help="emit a colorful instance with this many classes")
    p.add_argument("--k", type=int, help="points per class (with --classes)")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("bench", help="time the partitioners and fit growth exponents")
    p.add_argument("--algo", choices=["tverberg", "colorful"], required=True)
    p.add_argument("--n-grid", default="16,64,256,1024,4096")
    p.add_argument("--k-grid", default="128,256,512,1024")
    p.add_argument("--k", type=int, default=16)
    p.add_argument("--n", type=int, default=16, help="class count for colorful benches")
    p.add_argument("--d", type=int, default=16)
    p.add_argument("--reps", type=int, default=1)
    p.set_defaults(fn=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
