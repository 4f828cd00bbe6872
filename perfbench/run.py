"""Two-clock benchmark of the Nimble mediator.

    python3 perfbench/run.py --workload web_view --seed 1 --seconds 20 --trace 0

Runs one workload (``web_view``, ``shard_storm`` or ``cdc_churn``; see
``workloads.py``) in this process and thread as a closed loop: one
client, the next operation sent when the previous one returns, no think
time.  Every answer is checked against a plain-Python oracle.

``--trace 0`` measures wall time with tracing off.  It sets the system
up ``PASSES`` times; set-up (imports, data load, engine construction,
first queries, cache warm-up, view maintenance) is untimed warm-up and
its median is ``setup_s``.  After each set-up one pass runs its own draw
of the workload's operations for its share of ``--seconds`` and of
``MIN_READS`` reads.  Percentiles are taken over the operations of all
passes.  Wall times are scaled to a reference machine speed measured
during each pass (see ``speed.py``); raw times are printed as ``*_raw``.

``--trace 1`` runs a fixed schedule twice on fresh set-ups, first
untraced and then with the layer wrappers of ``spans.py`` installed, and
reports per-layer self time and counts.  Both passes must agree exactly
on modelled time and counters.  All spans go to ``perfbench/out/``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it give the
environment and every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from speed import REFERENCE_MS, SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
#: ``workloads.WORKLOADS`` keys; spelled out so arguments are checked
#: before the program is imported
WORKLOAD_NAMES = ("web_view", "shard_storm", "cdc_churn")
#: set-ups per timed run, each followed by one pass of its own schedule
PASSES = 3
#: reads per run, so the p90 keeps at least ten samples beyond it
MIN_READS = 100
#: a pass stops here even short of its reads, so a slow program still
#: finishes all passes well inside the run's time limit
MAX_PASS_S = 40.0
#: traced-pass length: operations per requested second
TRACE_OPS_PER_S = {"web_view": 4, "shard_storm": 4, "cdc_churn": 26}


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def digest(entries) -> str:
    return hashlib.sha256(repr(entries).encode()).hexdigest()[:16]


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    """Runs operations, checks answers and counts failures."""

    def __init__(self, workloads):
        self.workloads = workloads
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run(self, instance, op, recorder=None, op_id: int = 0):
        """One operation: the timed call, then the untimed oracle check.

        Returns (wall ms, virtual ms, output, fingerprint entry); output
        is None when the call raised.
        """
        self.attempted += 1
        clock = instance.clock
        virtual_start = clock.now
        started = time.perf_counter()
        try:
            if recorder is None:
                output = instance.execute(op)
            else:
                output = recorder.op(op_id, instance.execute, op)
        except Exception:
            wall_ms = (time.perf_counter() - started) * 1000
            self.fail(f"{op[:2]} raised:\n{traceback.format_exc()}")
            return wall_ms, clock.now - virtual_start, None, ("raised",)
        wall_ms = (time.perf_counter() - started) * 1000
        virtual_ms = clock.now - virtual_start
        # the oracle's garbage must not move the program's collections
        gc.disable()
        try:
            entry = instance.check(op, output)
        except self.workloads.Failure as failure:
            self.fail(f"{op[:2]} disagrees with the oracle: {failure}")
            entry = ("failed", str(failure))
        finally:
            gc.enable()
        return wall_ms, virtual_ms, output, (virtual_ms, *entry)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.note(message)

    def note(self, message: str) -> None:
        if len(self.failures) < 5:
            self.failures.append(message)


def timed_run(args, spec, runner, import_s) -> tuple[dict, dict]:
    """``--trace 0``: ``PASSES`` set-ups, each with its own schedule."""
    READ, CHANGE, SYNC = (runner.workloads.READ, runner.workloads.CHANGE,
                          runner.workloads.SYNC)
    setup_times: list[float] = []
    scales: list[float] = []
    virtual: list[float] = []
    walls: list[list[tuple[str, float]]] = []
    for index in range(PASSES):
        instance = schedule = None
        gc.collect()
        started = time.perf_counter()
        instance = spec.build()
        setup_times.append(time.perf_counter() - started)
        schedule = instance.schedule(variant=index)
        gc.collect()
        probe = SpeedProbe()
        wall: list[tuple[str, float]] = []
        measured, reads = 0.0, 0
        pass_start = time.perf_counter()
        while (measured < args.seconds / PASSES
               or reads * PASSES < MIN_READS):
            if time.perf_counter() - pass_start > MAX_PASS_S:
                break
            op = next(schedule)
            wall_ms, virtual_ms, _, _ = runner.run(instance, op)
            probe.after(wall_ms)
            measured += wall_ms / 1000
            wall.append((op[0], wall_ms))
            if op[0] == READ:
                reads += 1
                virtual.append(virtual_ms)
        scales.append(probe.scale())
        walls.append(wall)

    def per_op(scaled: bool) -> dict[str, list[float]]:
        """Operation times of all passes, by kind."""
        factors = scales if scaled else [1.0] * PASSES
        by_kind: dict[str, list[float]] = {READ: [], CHANGE: [], SYNC: [],
                                           "all": []}
        for wall, factor in zip(walls, factors):
            for kind, value in wall:
                by_kind[kind].append(value * factor)
                by_kind["all"].append(value * factor)
        return by_kind

    def figures(by_kind, setup_s, suffix="") -> dict:
        out = {
            "setup_s": (setup_s, "s"),
            "query_ms_p50": (percentile(by_kind[READ], 50), "ms"),
            "query_ms_p90": (percentile(by_kind[READ], 90), "ms"),
            "ops_per_s": (len(by_kind["all"]) / (sum(by_kind["all"]) / 1000),
                          "1/s"),
        }
        if by_kind[CHANGE]:
            out["change_ms_p50"] = (percentile(by_kind[CHANGE], 50), "ms")
        if by_kind[SYNC]:
            out["sync_ms_p50"] = (percentile(by_kind[SYNC], 50), "ms")
            out["sync_ms_p90"] = (percentile(by_kind[SYNC], 90), "ms")
        return {name + suffix: value for name, value in out.items()}

    scaled = figures(per_op(True), import_s * scales[0] + statistics.median(
        t * f for t, f in zip(setup_times, scales)))
    metrics = {name: scaled[name] for name in
               ("setup_s", "query_ms_p50", "query_ms_p90", "ops_per_s")}
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    counts = per_op(False)
    extra = {name: scaled[name] for name in scaled if name not in metrics}
    extra.update({
        "virtual_ms_p50": (percentile(virtual, 50), "ms"),
        "failed_ratio": (ratio(runner.failed, runner.attempted), "ratio"),
        "reads": (len(counts[READ]), "count"),
        "ops": (len(counts["all"]), "count"),
        "syncs": (len(counts[SYNC]), "count"),
    })
    extra.update(figures(per_op(False), import_s + statistics.median(
        setup_times), suffix="_raw"))
    extra.update({
        "reference_loop_ms": ([REFERENCE_MS / f for f in scales], "ms"),
        "pass_wall_s": ([sum(t for _, t in w) / 1000 for w in walls], "s"),
    })
    return metrics, extra


def fixed_pass(spec, runner, n_ops: int, recorder=None) -> dict:
    """One fixed-length pass on a fresh set-up; returns its totals."""
    READ, SYNC = runner.workloads.READ, runner.workloads.SYNC
    gc.collect()
    try:
        if recorder is not None:
            recorder.install()
        instance = spec.build()
        engine = getattr(instance, "engine", None)
        lifetime = engine.cdc_stats if engine is not None else None
        before = lifetime.as_dict() if lifetime is not None else {}
        totals = {"wall_ms": 0.0, "entries": [], "stats": {}, "reads": 0,
                  "answer_rows": 0, "virtual": [], "syncs": []}
        schedule = instance.schedule()
        probe = SpeedProbe()
        if recorder is not None:
            recorder.active = True
        for op_id in range(n_ops):
            op = next(schedule)
            wall_ms, virtual_ms, output, entry = runner.run(
                instance, op, recorder, op_id
            )
            probe.after(wall_ms)
            totals["wall_ms"] += wall_ms
            totals["entries"].append(entry)
            if output is None:
                continue
            if op[0] == READ:
                result = instance.result_of(output)
                totals["reads"] += 1
                totals["virtual"].append(virtual_ms)
                totals["answer_rows"] += len(result.elements)
                for name, value in result.stats.as_dict().items():
                    totals["stats"][name] = totals["stats"].get(name, 0) + value
            elif op[0] == SYNC:
                totals["syncs"].append(output)
    finally:
        if recorder is not None:
            recorder.active = False
            recorder.uninstall()
    after = lifetime.as_dict() if lifetime is not None else {}
    totals["scale"] = probe.scale()
    totals["lifetime"] = {k: after[k] - before[k] for k in after}
    return totals


def layer_run(args, spec, runner) -> tuple[dict, dict, bool]:
    """``--trace 1``: an untraced and a traced pass over one schedule."""
    from spans import LAYERS, SpanRecorder

    n_ops = TRACE_OPS_PER_S[spec.name] * args.seconds
    plain = fixed_pass(spec, runner, n_ops)
    recorder = SpanRecorder()
    traced = fixed_pass(spec, runner, n_ops, recorder)
    repeat_ok = plain["entries"] == traced["entries"]
    if not repeat_ok:
        runner.note("traced pass: modelled time or counters differ")

    layers = recorder.summary()
    stats, lifetime, syncs = traced["stats"], traced["lifetime"], traced["syncs"]

    def both(name):
        return stats.get(name, 0) + lifetime.get(name, 0)

    def synced(key):
        return sum(report[key] for report in syncs)

    rows = both("rows_transferred")
    counts = {
        "core.plan_cache_hit_ratio": (
            ratio(stats.get("plan_cache_hits", 0), traced["reads"]), "ratio"),
        "core.shards_executed": (stats.get("shards_executed", 0), "count"),
        "core.shards_pruned": (stats.get("shards_pruned", 0), "count"),
        "core.gather_rows": (stats.get("gather_rows", 0), "count"),
        "sources.rows_transferred": (rows, "count"),
        "sources.bytes_transferred": (both("bytes_transferred"), "count"),
        "sources.rows_per_answer_row": (
            ratio(rows, traced["answer_rows"]), "ratio"),
        "cache.hit_ratio": (ratio(
            stats.get("fragment_cache_hits", 0),
            stats.get("fragment_cache_hits", 0)
            + stats.get("fragment_cache_misses", 0)), "ratio"),
        "cache.evictions": (both("fragment_cache_evictions"), "count"),
        "cache.entries_patched": (synced("cache_patched"), "count"),
        "cache.entries_retained": (synced("cache_retained"), "count"),
        "cache.entries_evicted": (synced("cache_evicted"), "count"),
        "cdc.changes_applied": (synced("changes"), "count"),
        "materialize.views_delta_refreshed": (
            lifetime.get("views_delta_refreshed", 0), "count"),
        "materialize.views_full_rebuilt": (
            lifetime.get("views_full_rebuilt", 0), "count"),
    }
    attributed = sum(layers[f"{layer}.self_ms"] for layer in LAYERS)
    accounted = attributed + layers["trace.unattributed_ms"]
    accounting_ok = math.isclose(accounted, layers["trace.total_ms"],
                                 rel_tol=1e-9, abs_tol=1e-6)
    if not accounting_ok:
        runner.note(f"layer self times + unattributed = {accounted} ms, "
                    f"top-level time = {layers['trace.total_ms']} ms")
    metrics = {}
    for name, value in layers.items():
        if name.endswith(".calls"):
            metrics[name] = (value, "count")
        elif name == "sources.virtual_ms":
            metrics[name] = (value, "ms")
        else:
            metrics[name] = (value * traced["scale"], "ms")
    metrics.update(counts)
    metrics["trace.overhead_ratio"] = (ratio(
        traced["wall_ms"] * traced["scale"], plain["wall_ms"] * plain["scale"]
    ), "ratio")
    metrics["virtual_ms_p50"] = (
        percentile(traced["virtual"], 50) if traced["virtual"] else 0.0, "ms")
    call_counts = recorder.call_counts()
    extra = {
        "trace.ops": (n_ops, "count"),
        "reference_loop_ms": (REFERENCE_MS / traced["scale"], "ms"),
        "repeat_digest": (digest(traced["entries"]), "sha256"),
        "span_digest": (digest(call_counts), "sha256"),
        "spans": (len(recorder.spans), "count"),
    }
    path = OUT / f"spans_{spec.name}_seed{args.seed}.json"
    recorder.write(path, {"workload": spec.name, "seed": args.seed,
                          "calls": call_counts})
    print(f"spans written to {path.relative_to(ROOT)}")
    return metrics, extra, repeat_ok and accounting_ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    started = time.perf_counter()
    import workloads  # imports the program; its cost is part of set-up

    import_s = time.perf_counter() - started
    spec = workloads.WORKLOADS[args.workload](args.seed)
    runner = Runner(workloads)
    env = {
        "workload": spec.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "commit": git_commit(), "nproc": os.cpu_count(),
        "sizes": spec.sizes, "loop": "closed, 1 client, no think time",
    }
    print("env " + json.dumps(env))
    if args.trace:
        metrics, extra, repeat_ok = layer_run(args, spec, runner)
    else:
        metrics, extra = timed_run(args, spec, runner, import_s)
        repeat_ok = True
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name:36s} {value} {unit}")
    for failure in runner.failures:
        print("FAILURE " + failure, file=sys.stderr)
    result = {
        "correct": runner.failed == 0 and repeat_ok,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
