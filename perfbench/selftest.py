"""Self-test of the benchmark at tiny shapes (about 3 minutes in all).

    python3 perfbench/selftest.py

For every workload it checks that no op fails, that the untraced run
emits exactly the end-to-end metrics and the traced run exactly the
per-layer metrics that BENCHMARK.json declares, and that two traced runs
give identical computed counts.
"""

import json
import sys

from run import PRINTED_ONLY, ROOT, WORKLOADS, e2e_metrics, layer_metrics, run_workload
from tracer import COMPUTED


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    declared_e2e = [m["name"] for m in bench["end_to_end"]]
    declared_layers = [m["name"] for m in bench["per_layer"]]
    for name in WORKLOADS:
        record = run_workload(name, seed=3, seconds=0, trace=False, tiny=True)
        assert not record["failures"], record["failures"]
        assert [m for m in e2e_metrics(record) if m not in PRINTED_ONLY] == declared_e2e
        counts = []
        for _ in range(2):
            record = run_workload(name, seed=3, seconds=0, trace=True, tiny=True)
            assert not record["failures"], record["failures"]
            layers = layer_metrics(record)
            assert list(layers) == declared_layers, set(layers) ^ set(declared_layers)
            counts.append({m: e["value"] for m, e in layers.items() if m.split(".", 1)[1] in COMPUTED})
        assert counts[0] == counts[1], (counts[0], counts[1])
        print(f"ok {name}: {len(declared_e2e)} e2e and {len(layers)} layer metrics, {len(counts[0])} counts repeat")
    return 0


if __name__ == "__main__":
    sys.exit(main())
