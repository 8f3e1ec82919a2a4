"""End-to-end benchmark of tverberg_nd: library solve, CLI solve, CLI verify.

    python3 perfbench/run.py --workload tv-star-lowd --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Generates the workload's inputs from the seed, then times setup in fresh
processes and the three ops in one more fresh process (perfbench/worker.py)
with the BLAS thread count pinned. The last line of stdout is one JSON
object: the end-to-end metrics with --trace 0, the per-layer metrics of an
outside-in traced run with --trace 1. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from tracer import COMPUTED, LAYER_METRICS  # noqa: E402
from worker import OPS  # noqa: E402

THREADS = 1  # BLAS threads; multithreaded OpenBLAS makes small GEMMs erratic
SETUP_SAMPLES = 3  # fresh processes timed for setup_s, besides the run's own
TIME_LIMIT = 165.0  # seconds for one workload, which must end within 180

E2E = [
    ("solve_s", "s"),
    ("cli_solve_s", "s"),
    ("cli_verify_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("radius_ratio", "1"),
    ("failed_frac", "1"),
]
# Printed but left out of the JSON line: failed_frac is 0 on a correct
# run, and radius_ratio, a maximum over part centroids, moves by a third
# between seeds at a fixed shape, so neither can carry a bound on its
# median. The JSON line carries failures as "failed" and "attempted".
PRINTED_ONLY = {"radius_ratio", "failed_frac"}


# Each workload returns its instances: the arrays handed to the program
# ("sets") and the parameters of the solve. The tiny shapes serve
# selftest.py only.


def tv_star_lowd(rng, tiny=False):
    n, d, k = (203, 4, 4) if tiny else (40003, 16, 16)
    return [{"kind": "tverberg", "sets": [rng.standard_normal((n, d))], "k": k}]


def tv_tree_highd(rng, tiny=False):
    n, d, k = (120, 8, 8) if tiny else (12000, 256, 48)
    base = n // k - (k - 1)  # sizes base, base+2, ... sum to n
    sizes = [base + 2 * j for j in range(k)]
    return [{"kind": "tverberg", "sets": [rng.standard_normal((n, d))], "sizes": sizes}]


def colorful_k1024(rng, tiny=False):
    classes, k, d = (3, 16, 4) if tiny else (8, 1024, 64)
    return [{"kind": "colorful", "sets": [rng.standard_normal((classes, k, d))]}]


def hamsandwich_mix(rng, tiny=False):
    shapes = [(3, 60, 4, 5), (2, 40, 2, 4)] if tiny else [(3, 3000, 8, 50), (2, 1000, 2, 10)]
    instances = []
    for count, n, d, m in shapes:
        # offset centers keep the centroid directions of the projection chain apart
        sets = [rng.standard_normal((n, d)) + rng.standard_normal(d) for _ in range(count)]
        instances.append({"kind": "hamsandwich", "sets": sets, "m": [m] * count})
    return instances


WORKLOADS = {
    "tv-star-lowd": tv_star_lowd,
    "tv-tree-highd": tv_tree_highd,
    "colorful-k1024": colorful_k1024,
    "hamsandwich-mix": hamsandwich_mix,
}


def write_inputs(instances, work: Path) -> list[dict]:
    """Save raw arrays (.npy) and CLI input files; return the instance specs."""
    specs = []
    for i, inst in enumerate(instances):
        spec = {k: v for k, v in inst.items() if k != "sets"}
        spec["arrays"], spec["files"] = [], []
        for j, arr in enumerate(inst["sets"]):
            stem = work / f"in{i}_{j}"
            np.save(f"{stem}.npy", arr)
            if inst["kind"] == "colorful":
                path = f"{stem}.json"
                text = json.dumps({"dim": arr.shape[2], "classes": arr.tolist()}) + "\n"
            else:
                path = f"{stem}.csv"  # repr round-trips every float exactly
                text = "\n".join(",".join(map(repr, row)) for row in arr.tolist()) + "\n"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            spec["arrays"].append(f"{stem}.npy")
            spec["files"].append(path)
        specs.append(spec)
    return specs


def host_record(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = out.stdout.strip() or "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": THREADS,
        "commit": commit,
        "seed": seed,
    }


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(THREADS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def call_worker(spec_path: Path, mode: str, deadline: float) -> dict:
    result_path = spec_path.with_name(f"result-{mode}.json")
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path), mode],
        env=worker_env(),
        cwd=ROOT,
        check=True,
        timeout=max(deadline - time.time(), 1.0),
    )
    with open(result_path) as fh:
        return json.load(fh)


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny=False) -> dict:
    """Measure one workload; returns the raw worker record plus setup samples."""
    start = time.time()
    deadline = start + TIME_LIMIT
    instances = WORKLOADS[name](np.random.default_rng(seed), tiny)
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))
    try:
        spec = {
            "root": str(ROOT),
            "dir": str(work),
            "seconds": seconds,
            "trace": trace,
            "deadline": deadline - 10.0,
            "instances": write_inputs(instances, work),
        }
        del instances
        spec_path = work / "spec.json"
        spec_path.write_text(json.dumps(spec))
        call_worker(spec_path, "setup", deadline)  # fills the bytecode and file caches
        setups = [call_worker(spec_path, "setup", deadline)["setup_s"] for _ in range(SETUP_SAMPLES)]
        record = call_worker(spec_path, "run", deadline)
        record["setup_samples"] = setups + [record["setup_s"]]
        record["wall_s"] = time.time() - start
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it


def e2e_metrics(record: dict) -> dict:
    med = {op: statistics.median(v) for op, v in record["samples"].items()}
    values = {
        "solve_s": med["solve"],
        "cli_solve_s": med["cli_solve"],
        "cli_verify_s": med["cli_verify"],
        "setup_s": statistics.median(record["setup_samples"]),
        "peak_rss_mb": record["peak_rss_mb"],
        "radius_ratio": record["radius_ratio"],
        "failed_frac": len(record["failures"]) / record["attempted"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in E2E}


def layer_metrics(record: dict) -> dict:
    out = {}
    for op in OPS:
        reps = record["layers"][op]
        untraced = statistics.median(record["samples"][op])
        for name, unit, _ in LAYER_METRICS:
            if name == "trace_overhead_s":
                value = statistics.median(seconds for seconds, _ in reps) - untraced
            elif name in reps[0][1]:
                value = statistics.median(layers[name] for _, layers in reps)
            else:
                continue  # the traced function is missing at this commit
            out[f"{op}.{name}"] = {"value": value, "unit": unit}
    return out


def report(name: str, record: dict, metrics: dict) -> None:
    failed = len(record["failures"])
    print(f"workload {name}")
    print("host " + json.dumps(record["host"]))
    print("warm-up rep (not in the medians): " + json.dumps(record["warmup_s"]))
    print("timed reps: " + json.dumps(record["samples"]))
    print("setup samples: " + json.dumps(record["setup_samples"]))
    print(f"run took {record['wall_s']:.1f} s")
    for problem in record["failures"]:
        print(f"FAILED {problem}")
    print(f"failed {failed} of {record['attempted']} ops")
    for metric, entry in metrics.items():
        tag = "  [computed]" if metric.split(".", 1)[-1] in COMPUTED else ""
        print(f"  {metric:<48} {entry['value']:.6g} {entry['unit']}{tag}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: subprocess.run kills its worker and the work
    # directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (ROOT / "src" / "tverberg_nd" / "__init__.py").is_file():
        print(f"no tverberg_nd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        try:
            record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            print(f"{name}: worker did not finish: {exc}", file=sys.stderr)
            return 1
        record["host"] = host_record(args.seed)
        found = layer_metrics(record) if args.trace else e2e_metrics(record)
        report(name, record, found)
        attempted += record["attempted"]
        failed += len(record["failures"])
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + m: entry for m, entry in found.items() if m not in PRINTED_ONLY})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
