"""One benchmark run of one workload, in a fresh process.

    python3 perfbench/worker.py SPEC RESULT setup|run

SPEC is the JSON written by run.py (instances, input files, run length,
trace flag). ``setup`` times importing tverberg_nd and building the input
containers, then exits. ``run`` does the same and then times the three
ops (solve, cli_solve, cli_verify) rep after rep, gating every op on
correctness. Either writes its measurements as JSON to RESULT.
"""

import time

_START = time.perf_counter()  # before numpy and tverberg_nd are imported

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

OPS = ("solve", "cli_solve", "cli_verify")
ARITY = 4  # lifting tree arity of the prescribed-sizes workload (the CLI default)
MIN_REPS = 2  # timed reps after the warm-up, whatever the run length
# Within an untraced rep an op shorter than this runs again, so the short
# ops, whose times scatter most, get more samples.
OP_SECONDS = 2.0


def containers(tv, inst, arrays):
    if inst["kind"] == "colorful":
        return [tv.ColorInstance(arrays[0])]
    return [tv.PointSet(a) for a in arrays]


def solve(tv, inst, arrays):
    kind = inst["kind"]
    if kind == "tverberg":
        if "k" in inst:
            return tv.partition_nearly_balanced(arrays[0], inst["k"])
        return tv.partition_general(arrays[0], inst["sizes"], ARITY)
    if kind == "colorful":
        return tv.partition_colorful(arrays[0])
    return tv.generalized_ham_sandwich(arrays, inst["m"])


def recheck(tv, inst, cert, arrays) -> list[str]:
    """Names of failed checks, against containers built fresh from the arrays."""
    fresh = containers(tv, inst, arrays)
    if inst["kind"] == "tverberg":
        checks = tv.check_certificate(cert, fresh[0])
    elif inst["kind"] == "colorful":
        checks = tv.check_colorful_certificate(cert, fresh[0])
    else:
        checks = tv.check_depth_certificate(cert, fresh)
    return [c.name for c in checks if not c.ok]


def radius_ratio(inst, cert) -> float:
    certs = cert.per_set if inst["kind"] == "hamsandwich" else [cert]
    return max(c.radius_achieved / c.radius_guaranteed for c in certs)


def cli_solve_argv(inst, cert_path):
    kind, files = inst["kind"], inst["files"]
    if kind == "tverberg":
        if "k" in inst:
            params = ["--k", str(inst["k"])]
        else:
            params = ["--sizes", ",".join(map(str, inst["sizes"])), "--arity", str(ARITY)]
        return ["tverberg", files[0], *params, "--out", cert_path]
    if kind == "colorful":
        return ["colorful", files[0], "--out", cert_path]
    return ["hamsandwich", *files, "--m", ",".join(map(str, inst["m"])), "--out", cert_path]


def peak_rss_mb() -> float:
    """High-water resident set of this process.

    On Linux ru_maxrss also counts the parent's resident set at fork and
    exec, so the process's own VmHWM is read where /proc has it.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_cli(cli, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


class Run:
    """State of the timed reps: inputs, reference bytes, samples, failures."""

    def __init__(self, tv, cli, spec, raw):
        self.tv, self.cli, self.raw = tv, cli, raw
        self.instances = spec["instances"]
        self.cert_paths = [os.path.join(spec["dir"], f"cert{i}.json") for i in range(len(self.instances))]
        self.input_bytes = sum(os.path.getsize(f) for inst in self.instances for f in inst["files"])
        self.reference = {}  # op -> (digest, failed check names) of its first success
        self.samples = {op: [] for op in OPS}
        self.warmup = {}
        self.layers = {op: [] for op in OPS}
        self.attempted = 0
        self.failures: list[str] = []
        self.ratio = 0.0

    def rep(self, tracer=None, warmup=False):
        """Solve, CLI solve and CLI verify of every instance, in that order."""
        for op in OPS:
            spent = 0.0
            while True:
                spent += self.sample(op, tracer, warmup)
                if warmup or tracer is not None or spent >= OP_SECONDS:
                    break

    def sample(self, op, tracer, warmup) -> float:
        """Time and gate one run of one op; returns its seconds."""
        # every solve starts from fresh copies of the raw arrays, so no
        # rep reuses a container or anything cached on one
        arrays = [[a.copy() for a in sets] for sets in self.raw] if op == "solve" else None
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        try:
            result = getattr(self, op)(arrays)
        except Exception:
            result = traceback.format_exc(limit=3)
        finally:
            seconds = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        problem = result
        if not isinstance(result, str):
            try:
                problem = self.gate(op, result)
            except Exception:
                problem = traceback.format_exc(limit=3)
        self.attempted += 1
        if problem:
            self.failures.append(f"{op}: {problem}")
        if warmup:
            self.warmup[op] = seconds
        elif tracer is not None:
            layers = tracer.take(seconds)
            layers["cli.input_bytes"] = float(self.input_bytes if op != "solve" else 0)
            layers["cli.cert_bytes"] = float(
                sum(os.path.getsize(p) for p in self.cert_paths if os.path.exists(p)) if op != "solve" else 0
            )
            self.layers[op].append((seconds, layers))
        else:
            self.samples[op].append(seconds)
        return seconds

    def solve(self, arrays):
        return [solve(self.tv, inst, sets) for inst, sets in zip(self.instances, arrays)]

    def cli_solve(self, arrays):
        return [run_cli(self.cli, cli_solve_argv(inst, p)) for inst, p in zip(self.instances, self.cert_paths)]

    def cli_verify(self, arrays):
        return [
            run_cli(self.cli, ["verify", p, *inst["files"]])
            for inst, p in zip(self.instances, self.cert_paths)
        ]

    def gate(self, op, result) -> str:
        """Empty when the op's output is correct, else what is wrong."""
        if op == "solve":
            digest = hashlib.sha256(pickle.dumps(result)).hexdigest()
            ratio = max(radius_ratio(inst, cert) for inst, cert in zip(self.instances, result))
            self.ratio = max(self.ratio, ratio)
            if ratio > 1.0:
                return f"radius_ratio {ratio!r} > 1"
        elif op == "cli_solve":
            if any(code != 0 for code, _ in result):
                return f"exit codes {[code for code, _ in result]}"
            digest = hashlib.sha256()
            for path in self.cert_paths:
                with open(path, "rb") as fh:
                    digest.update(fh.read())
            digest = digest.hexdigest()
        else:
            if any(code != 0 for code, _ in result):
                return f"exit codes {[code for code, _ in result]}"
            lines = [line for _, text in result for line in text.splitlines() if line.strip()]
            bad = [line for line in lines if not line.startswith("PASS")]
            return "; ".join(bad) if lines else "verify printed no checks"
        if op not in self.reference:
            # The checks are deterministic, so identical certificate bytes
            # in a later rep pass exactly when this first recheck passed.
            failed = []
            if op == "solve":
                for inst, cert, sets in zip(self.instances, result, self.raw):
                    failed += recheck(self.tv, inst, cert, [a.copy() for a in sets])
            self.reference[op] = (digest, failed)
        ref_digest, failed = self.reference[op]
        if failed:
            return "FAIL " + ", ".join(failed)
        if digest != ref_digest:
            return "certificate bytes differ from the first rep"
        return ""


def main(argv) -> int:
    spec_path, result_path, mode = argv
    import tverberg_nd as tv
    from tverberg_nd import cli

    imported = time.perf_counter()
    import numpy as np

    with open(spec_path) as fh:
        spec = json.load(fh)
    src = os.path.realpath(os.path.join(spec["root"], "src"))
    if not os.path.realpath(tv.__file__).startswith(src + os.sep):
        print(f"tverberg_nd was imported from {tv.__file__}, not from {src}", file=sys.stderr)
        return 2
    raw = [[np.load(path) for path in inst["arrays"]] for inst in spec["instances"]]
    loaded = time.perf_counter()
    for inst, sets in zip(spec["instances"], raw):
        containers(tv, inst, sets)
    setup_s = (imported - _START) + (time.perf_counter() - loaded)
    result = {"setup_s": setup_s}

    if mode == "run":
        run = Run(tv, cli, spec, raw)
        run.rep(warmup=True)
        tracer = None
        if spec["trace"]:
            from tracer import Tracer  # this script's directory leads sys.path

            tracer = Tracer()
        t0 = time.time()
        reps = 0
        while reps < MIN_REPS or time.time() - t0 < spec["seconds"]:
            rep_start = time.time()
            run.rep()  # untraced reps give the e2e times and the trace overhead base
            if tracer is not None:
                run.rep(tracer)
            reps += 1
            if time.time() + 1.5 * (time.time() - rep_start) > spec["deadline"]:
                break
        result.update(
            attempted=run.attempted,
            failures=run.failures,
            radius_ratio=run.ratio,
            warmup_s=run.warmup,
            samples=run.samples,
            layers=run.layers,
            peak_rss_mb=peak_rss_mb(),
        )
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
