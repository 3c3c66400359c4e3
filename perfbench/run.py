"""Benchmark of the cycvin engine: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/` directory. The run sets up the workload several times (import, bundled
tables, inputs built from the seed), checks the expectations that need a
computation of their own, then runs whole rounds of the workload's
operations until S seconds have passed, checking every answer. The last line
of standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
metrics with `--trace 1`. Raw per-round data, and the spans of a traced run,
go to `perfbench/out/`. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

from workloads import FULL, WORKLOADS, Op, Sizes, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 9
MODULES = ("avoidability", "enumeration", "formulas", "matcher", "patterns", "perms", "tables")
ROUND_LAYERS = ("enumeration.count_s", "enumeration.refine_s", "enumeration.pool_s",
                "enumeration.pool_serial_s", "avoidability.find_s", "avoidability.classify_s")


class Tracer:
    """Spans kept in memory: name, start and end (s from the tracer's start),
    the operation, and the id of the enclosing span. Disabled, it only calls."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.t0 = time.perf_counter()
        self.spans: list[dict[str, Any]] = []
        self.stack: list[int] = []

    def begin(self, name: str, op: str = "") -> int:
        sid = len(self.spans)
        self.spans.append({"id": sid, "name": name, "op": op,
                           "parent": self.stack[-1] if self.stack else None,
                           "start": time.perf_counter() - self.t0, "end": None})
        self.stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid]["end"] = time.perf_counter() - self.t0
        self.stack.pop()

    def call(self, name: str, fn: Callable[..., Any], *args: Any) -> Any:
        if not self.enabled:
            return fn(*args)
        sid = self.begin(name)
        try:
            return fn(*args)
        finally:
            self.end(sid)

    def total(self, name: str, parent: int) -> float:
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name and s["parent"] == parent)


@dataclass
class Ctx:
    """What a workload builder gets: the freshly imported modules, the bundled
    tables, the sizes and the seed, and a traced pattern parser."""

    cv: SimpleNamespace
    tables: dict[int, dict[str, dict[int, int]]]
    sizes: Sizes
    seed: int
    tracer: Tracer

    def parse(self, *texts: str) -> Any:
        return self.tracer.call("patterns.parse_ms", self.cv.patterns.PatternSet.from_texts, *texts)


@dataclass
class Round:
    wall: float = 0.0
    cpu: float = 0.0
    layers: dict[str, float] = field(default_factory=dict)
    query_ms: list[float] = field(default_factory=list)
    first_ms: list[float] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=lambda: {
        "enumeration.avoiders": 0, "avoidability.subsets_checked": 0, "avoidability.witnesses": 0})
    failed: list[tuple[str, str, str]] = field(default_factory=list)  # op, fault, reason
    incorrect: list[tuple[str, str]] = field(default_factory=list)  # op, reason
    ops: list[dict[str, Any]] = field(default_factory=list)
    traced: bool = False


def cpu_seconds() -> float:
    """CPU time of this process plus its reaped worker processes."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def peak_rss_mib() -> float:
    """Peak resident set of this process or of its largest reaped worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def import_cycvin() -> SimpleNamespace:
    for name in [m for m in sys.modules if m == "cycvin" or m.startswith("cycvin.")]:
        del sys.modules[name]
    importlib.import_module("cycvin")
    return SimpleNamespace(**{m: importlib.import_module(f"cycvin.{m}") for m in MODULES})


def set_up(name: str, seed: int, sizes: Sizes, tracer: Tracer) -> tuple[Workload, float]:
    """Import the package, load the tables and build the inputs; returns the
    workload and the set-up time."""
    t0 = time.perf_counter()
    sid = tracer.begin("setup") if tracer.enabled else None
    cv = tracer.call("import", import_cycvin)
    tables = {t: tracer.call("tables.load_ms", cv.tables.expected_counts, t) for t in (1, 2)}
    workload = WORKLOADS[name](Ctx(cv, tables, sizes, seed, tracer))
    if sid is not None:
        tracer.end(sid)
    return workload, time.perf_counter() - t0


def run_round(workload: Workload, tracer: Tracer, traced: bool) -> Round:
    rnd = Round(traced=traced)
    rid = tracer.begin("round") if traced else None
    results: dict[str, Any] = {}
    for op in workload.ops:
        sid = tracer.begin(op.layer, op.name) if traced else None
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # a crash is an answer to check, not the end of the run
            result = exc
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - c0
        if sid is not None:
            tracer.end(sid)
        results[op.name] = result
        rnd.wall += wall
        rnd.cpu += cpu
        rnd.layers[op.layer] = rnd.layers.get(op.layer, 0.0) + wall
        if op.query:
            rnd.query_ms.append(wall * 1000.0)
        if op.layer == "enumeration.first_ms":
            rnd.first_ms.append(wall * 1000.0)
        reason = (f"raised {type(result).__name__}: {result}" if isinstance(result, Exception)
                  else op.check(result))
        if reason is None:
            rnd.counts["enumeration.avoiders"] += op.avoiders(result)
            rnd.counts["avoidability.subsets_checked"] += op.subsets(result)
            rnd.counts["avoidability.witnesses"] += op.witnesses(result)
        rnd.ops.append({"op": op.name, "wall_ms": wall * 1000.0, "ok": reason is None})
        record(rnd, op, reason)
    by_name = {op.name: op for op in workload.ops}
    for check in workload.round_checks:
        for op_name, reason in check(results):
            record(rnd, by_name[op_name], reason)
    if rid is not None:
        tracer.end(rid)
    return rnd


def record(rnd: Round, op: Op, reason: str | None) -> None:
    if reason is None:
        return
    if any(entry[0] == op.name for entry in rnd.failed + rnd.incorrect):
        return  # one failure per operation and round
    if op.fault is not None:
        rnd.failed.append((op.name, op.fault, reason))
    else:
        rnd.incorrect.append((op.name, reason))


def round_decile(rounds: list[Round], q: int) -> float:
    """Median over rounds of each round's q-th decile of query latency, so
    that a change of host speed within a run moves it no more than wall_s."""
    return statistics.median(statistics.quantiles(r.query_ms, n=10, method="inclusive")[q - 1]
                             for r in rounds)


def metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": value, "unit": unit}


def end_to_end(rounds: list[Round], setup_times: list[float]) -> dict[str, Any]:
    return {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "wall_s": metric(statistics.median(r.wall for r in rounds), "s"),
        "cpu_s": metric(statistics.median(r.cpu for r in rounds), "s"),
        "peak_rss_mib": metric(peak_rss_mib(), "MiB"),
        "query_ms_p50": metric(round_decile(rounds, 5), "ms"),
        "query_ms_p90": metric(round_decile(rounds, 9), "ms"),
    }


def per_layer(rounds: list[Round], tracer: Tracer) -> dict[str, Any]:
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    setups = [s["id"] for s in tracer.spans if s["name"] == "setup"]

    def setup_ms(name: str) -> float:
        return 1000.0 * statistics.median(tracer.total(name, sid) for sid in setups)

    def round_s(name: str) -> float:
        return statistics.median(r.layers.get(name, 0.0) for r in traced)

    out = {
        "patterns.parse_ms": metric(setup_ms("patterns.parse_ms"), "ms"),
        "tables.load_ms": metric(setup_ms("tables.load_ms"), "ms"),
    }
    for name in ROUND_LAYERS:
        out[name] = metric(round_s(name), "s")
    pool, serial = out["enumeration.pool_s"]["value"], out["enumeration.pool_serial_s"]["value"]
    out["enumeration.pool_speedup"] = metric(serial / pool if pool else 0.0, "x")
    out["enumeration.budget_ms"] = metric(1000.0 * round_s("enumeration.budget_ms"), "ms")
    firsts = [ms for r in traced for ms in r.first_ms]
    out["enumeration.first_ms_p50"] = metric(statistics.median(firsts) if firsts else 0.0, "ms")
    for name, value in traced[0].counts.items():
        out[name] = metric(value, "count")
    out["trace.overhead_s"] = metric(statistics.median(r.wall for r in traced)
                                     - statistics.median(r.wall for r in plain), "s")
    return out


def run(name: str, seed: int, seconds: float, trace: bool, sizes: Sizes = FULL) -> dict[str, Any]:
    tracer = Tracer(trace)
    setup_times = []
    for _ in range(SETUP_REPS):
        workload, elapsed = set_up(name, seed, sizes, tracer)
        setup_times.append(elapsed)

    incorrect = []
    for precheck in workload.prechecks:
        reason = precheck()
        if reason is not None:
            incorrect.append(("precheck", reason))

    # whole rounds until the time is up; a traced run alternates plain and
    # traced rounds, so that the tracing overhead is measured within the run
    rounds: list[Round] = []
    start = time.perf_counter()
    while (not rounds or time.perf_counter() - start < seconds
           or (trace and len(rounds) < 2)):
        rounds.append(run_round(workload, tracer, traced=trace and len(rounds) % 2 == 1))

    for r in rounds:
        incorrect.extend(r.incorrect)
    failed = sum(len(r.failed) for r in rounds)
    metrics = per_layer(rounds, tracer) if trace else end_to_end(rounds, setup_times)
    faults = {op: (fault, reason) for r in rounds for op, fault, reason in r.failed}
    raw = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "setup_s": setup_times, "metrics": metrics,
        "failed_ops": {op: {"fault": f, "reason": why} for op, (f, why) in faults.items()},
        "incorrect": [{"op": op, "reason": why} for op, why in incorrect],
        "rounds": [{"wall_s": r.wall, "cpu_s": r.cpu, "traced": r.traced, "ops": r.ops}
                   for r in rounds],
    }
    if trace:
        raw["spans"] = tracer.spans
    for op, (fault, reason) in sorted(faults.items()):
        print(f"failed: {op}: {fault.split(':')[0]} ({reason})", file=sys.stderr)
    for op, reason in incorrect:
        print(f"INCORRECT: {op}: {reason}", file=sys.stderr)
    return {
        "result": {"correct": not incorrect, "attempted": len(rounds) * len(workload.ops),
                   "failed": failed, "metrics": metrics},
        "raw": raw,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cycvin" / "__init__.py").is_file():
        print(f"no cycvin sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(out["raw"], indent=1) + "\n")
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
