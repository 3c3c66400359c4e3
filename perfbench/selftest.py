"""Fast self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at tiny sizes (traced, so both metric sets are built),
requires every answer to pass its check except on the operations that carry
a named fault, and shows that every checker rejects a planted wrong answer:
a count off by one, a witness that contains a forbidden pattern, a
classification with a set removed, a budget error below its budget. Exits 1
and lists what went wrong if anything did.
"""

from __future__ import annotations

import json
import sys

from run import ROOT, Tracer, run, set_up
from workloads import TINY, WORKLOADS


def check_workload(name: str, declared: dict[str, set[str]]) -> list[str]:
    problems = []
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        out = run(name, seed=0, seconds=0, trace=trace, sizes=TINY)
        result, raw = out["result"], out["raw"]
        if not result["correct"]:
            problems += [f"{name}: {i['op']}: {i['reason']}" for i in raw["incorrect"]]
        if set(result["metrics"]) != declared[kind]:
            problems.append(f"{name}: trace={int(trace)} prints {sorted(result['metrics'])}, "
                            f"BENCHMARK.json declares {sorted(declared[kind])}")

    workload, _elapsed = set_up(name, 0, TINY, Tracer(False))
    for precheck in workload.prechecks:
        precheck()
    expected_faults = {op.name for op in workload.ops if op.fault is not None}
    if set(raw["failed_ops"]) != expected_faults:
        problems.append(f"{name}: failed operations {sorted(raw['failed_ops'])}, "
                        f"expected the faulty {sorted(expected_faults)}")
    for op in workload.ops:
        planted = op.wrong(op.run())
        if op.check(planted) is None:
            problems.append(f"{name}: {op.name}: check accepts the planted answer {planted!r}")
    return problems


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {kind: {m["name"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}
    problems = []
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from perfbench/workloads.py")
    for name in WORKLOADS:
        found = check_workload(name, declared)
        print(f"{name}: {'ok' if not found else f'{len(found)} problem(s)'}")
        problems += found
    for p in problems:
        print("  " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
