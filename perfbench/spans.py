"""Layer spans recorded from outside the program.

The traced run installs a wrapper around each layer's public entry
point (see ``BOUNDARIES``).  A wrapper records one span per call —
layer, boundary name, wall start and end, parent span and operation id —
into an in-memory list; nothing is written until the run ends.  The
program under ``src/`` is never edited: wrappers are set as attributes
on the program's modules and classes at run time and removed afterwards.

A layer's self time is the time its spans cover minus the time their
child spans cover.  The benchmark opens one ``op`` span per operation,
so the ``op`` spans' self time is the top-level time no layer covers.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from pathlib import Path

#: layer -> (module, attribute path) of each wrapped entry point.  A
#: function imported by name into another module is wrapped where the
#: caller looks it up, so the wrapper sees the calls that matter.
BOUNDARIES: dict[str, list[tuple[str, str]]] = {
    "query": [
        ("repro.core.engine", "parse_query"),
        ("repro.core.engine", "bind_query"),
    ],
    "optimizer": [
        ("repro.core.engine", "decompose"),
        ("repro.optimizer.planner", "PlanBuilder.build"),
        ("repro.optimizer.planner", "PlanBuilder.build_binding_tree"),
    ],
    "core": [
        ("repro.core.engine", "NimbleEngine.query"),
        ("repro.core.engine", "NimbleEngine.sync_changes"),
        ("repro.core.engine", "_ExecutionContext.fetch_view"),
        ("repro.core.sharding", "ShardRouter.query"),
        ("repro.core.sharding", "ShardRouter._execute_shard"),
        ("repro.core.formatting", "format_result"),
    ],
    "algebra": [
        ("repro.algebra.plan", "Plan.results"),
        ("repro.algebra.construct", "build_elements"),
        ("repro.core.sharding", "build_elements"),
        ("repro.core.sharding", "merge_sorted"),
        ("repro.core.sharding", "sort_rows"),
        ("repro.core.sharding", "topk_rows"),
        ("repro.core.sharding", "dedup_rows"),
        ("repro.algebra.merge", "PartialGroups.merge"),
    ],
    "sources": [
        ("repro.sources.base", "DataSource.execute"),
        ("repro.sources.base", "DataSource.execute_batch"),
        ("repro.sources.relational", "RelationalSource.insert_row"),
        ("repro.sources.relational", "RelationalSource.update_row"),
        ("repro.sources.relational", "RelationalSource.delete_row"),
    ],
    "sql": [
        ("repro.sql.database", "Database.execute"),
        ("repro.sql.database", "Database.execute_statement"),
    ],
    "cache": [
        ("repro.cache.fragmentcache", "FragmentResultCache.lookup"),
        ("repro.cache.fragmentcache", "FragmentResultCache.insert"),
        ("repro.cache.fragmentcache", "FragmentResultCache.apply_change"),
    ],
    "cdc": [
        ("repro.cdc.changelog", "ChangeLog.emit"),
        ("repro.cdc.changelog", "ChangeLog.since"),
        ("repro.cdc.scope", "patch_records"),
        ("repro.materialize.incremental", "patch_records"),
    ],
    "materialize": [
        ("repro.materialize.incremental", "IncrementalMaterializer.refresh"),
    ],
}

LAYERS = tuple(BOUNDARIES)

#: boundary names whose inclusive time is reported on its own
FETCH_VIEW = "_ExecutionContext.fetch_view"
CONSTRUCT = "build_elements"
GATHER = ("merge_sorted", "sort_rows", "topk_rows", "dedup_rows",
          "PartialGroups.merge")
DML = ("RelationalSource.insert_row", "RelationalSource.update_row",
       "RelationalSource.delete_row")
#: recursive entry points: only the outermost call is a span
OUTERMOST = ("build_elements",)

# span tuple fields
LAYER, NAME, START, END, PARENT, OP, VIRTUAL = range(7)


class SpanRecorder:
    """Spans of one traced pass, kept in memory until written out."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.active = False
        self._stack: list[int] = []
        self._op = -1
        self._installed: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _open(self, layer: str, name: str, virtual: float | None) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, name, time.perf_counter(), 0.0, parent,
                           self._op, virtual])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    def op(self, op_id: int, fn, *args):
        """Run one benchmark operation under a top-level ``op`` span."""
        self._op = op_id
        index = self._open("op", "op", None)
        try:
            return fn(*args)
        finally:
            self._close(index)

    def wrap(self, layer: str, name: str, fn):
        recorder = self
        outermost = name.rsplit(".", 1)[-1] in OUTERMOST
        timed_clock = layer == "sources"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            stack = recorder._stack
            if outermost and stack and recorder.spans[stack[-1]][NAME] == name:
                return fn(*args, **kwargs)
            clock = args[0].clock if timed_clock else None
            index = recorder._open(layer, name,
                                   clock.now if clock is not None else None)
            try:
                return fn(*args, **kwargs)
            finally:
                span = recorder.spans[index]
                if clock is not None:
                    span[VIRTUAL] = clock.now - span[VIRTUAL]
                recorder._close(index)

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary in ``BOUNDARIES`` (inactive until enabled)."""
        for layer, targets in BOUNDARIES.items():
            for module_name, path in targets:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                name = path if outer else attr
                setattr(owner, attr, self.wrap(layer, name, original))
                self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the duration of its direct children.

        Spans of one thread nest, so children never overlap each other
        and their summed durations are exactly the time they cover.
        """
        own = [span[END] - span[START] for span in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                own[span[PARENT]] -= span[END] - span[START]
        return own

    def summary(self) -> dict[str, float]:
        """Per-layer self time, call counts and named inclusive times (ms)."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = 0.0
            out[f"{layer}.calls"] = 0
        out.update({
            "core.fetch_view_ms": 0.0, "core.format_ms": 0.0,
            "core.scatter_ms": 0.0, "algebra.construct_ms": 0.0,
            "algebra.gather_ms": 0.0, "sources.virtual_ms": 0.0,
            "sources.change_self_ms": 0.0, "trace.unattributed_ms": 0.0,
            "trace.total_ms": 0.0,
        })
        own = self.self_times()
        for index, span in enumerate(self.spans):
            layer, name = span[LAYER], span[NAME]
            wall = (span[END] - span[START]) * 1000
            mine = own[index] * 1000
            if layer == "op":
                out["trace.unattributed_ms"] += mine
                out["trace.total_ms"] += wall
                continue
            out[f"{layer}.self_ms"] += mine
            parent_layer = (self.spans[span[PARENT]][LAYER]
                            if span[PARENT] >= 0 else None)
            # a layer's calls are entries into it from another layer
            if parent_layer != layer:
                out[f"{layer}.calls"] += 1
            if name == FETCH_VIEW:
                if not self._inside(index, FETCH_VIEW):
                    out["core.fetch_view_ms"] += wall
            elif name == "format_result":
                out["core.format_ms"] += wall
            elif name == "ShardRouter._execute_shard":
                out["core.scatter_ms"] += wall
            elif name == CONSTRUCT:
                out["algebra.construct_ms"] += wall
            elif name in GATHER:
                out["algebra.gather_ms"] += wall
            elif name in DML:
                out["sources.change_self_ms"] += mine
            if layer == "sources" and parent_layer != "sources":
                out["sources.virtual_ms"] += span[VIRTUAL] or 0.0
        return out

    def _inside(self, index: int, name: str) -> bool:
        parent = self.spans[index][PARENT]
        while parent >= 0:
            if self.spans[parent][NAME] == name:
                return True
            parent = self.spans[parent][PARENT]
        return False

    def call_counts(self) -> dict[str, int]:
        """Calls per boundary name — deterministic for a fixed schedule."""
        counts: dict[str, int] = {}
        for span in self.spans:
            counts[span[NAME]] = counts.get(span[NAME], 0) + 1
        return dict(sorted(counts.items()))

    def write(self, path: Path, meta: dict) -> None:
        """All spans as JSON, times in ms relative to the first span."""
        base = self.spans[0][START] if self.spans else 0.0
        rows = [
            {"layer": s[LAYER], "name": s[NAME],
             "start_ms": round((s[START] - base) * 1000, 4),
             "end_ms": round((s[END] - base) * 1000, 4),
             "parent": s[PARENT], "op": s[OP],
             **({"virtual_ms": s[VIRTUAL]} if s[VIRTUAL] is not None else {})}
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"meta": meta, "spans": rows}))
