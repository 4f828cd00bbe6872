"""E17 — incremental view maintenance with scoped cache invalidation.

The claims under test:

1. **Delta refresh beats re-materialization**: at 1% churn, refreshing
   maintained views by draining the change feeds costs >= 10x less
   virtual time than re-running the view queries against the sources —
   refresh cost is proportional to the delta, not the base.
2. **Scoped invalidation beats the epoch bump**: a single-row update
   retains >= 90% of the unaffected cached fragments (key-range
   exclusion + in-place patching), where the old catalog-epoch bump
   evicted 100% of them.
3. **Staleness is visible**: the freshness monitor reports the
   sequence lag and the virtual-time staleness window between a write
   landing and the next sync applying it.
4. **Bit-identity**: after every churn batch, maintained view elements
   are byte-identical to a full re-execution of the view queries.
5. **Both clocks**: the wall time of one ``sync_changes`` follows the
   delta too — at a fixed 20 changes per sync it stays flat as the base
   grows from 4k to 40k rows.

Claims 1-3 are on the virtual clock (``SimClock``): the network model
charges every source fetch, delta refreshes charge only local per-row
work.  Claim 5 is wall time (``time.perf_counter``, median of repeats),
which the virtual clock never sees.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from repro.admin import FreshnessMonitor
from repro.core import NimbleEngine
from repro.materialize import MaterializationManager
from repro.mediator.catalog import Catalog
from repro.mediator.schema import MediatedSchema, ViewDef
from repro.simtime import SimClock
from repro.sources import NetworkModel, SourceRegistry
from repro.sources.relational import RelationalSource
from repro.sql.database import Database
from repro.xmldm import serialize

N_ROWS = 4_000
CHURN_RATES = (0.001, 0.01, 0.1)
TARGET_SPEEDUP_AT_1PCT = 10.0
TARGET_RETENTION = 0.90
NETWORK = dict(latency_ms=5.0, per_row_ms=0.05)
#: wall-time repeats (fresh deployments) behind each median
WALL_REPEATS = 3
#: base-size sweep: rows, at a fixed number of changes per sync
BASE_SIZES = (4_000, 10_000, 20_000, 40_000)
SWEEP_CHANGES = 20
SWEEP_SYNCS = 5


def views(n_rows: int) -> dict[str, str]:
    return {
        # rows mode: predicate on the key, so value churn never flips
        # membership and the delta path stays hot
        "lower_half": (
            'WHERE <i><k>$k</k><grp>$g</grp><v>$v</v></i> IN "items", '
            f"$k < {n_rows // 2} CONSTRUCT <r><k>$k</k><v>$v</v></r>"
        ),
        # groups mode: count/sum/avg retract exactly, so every churn
        # batch propagates as per-group state arithmetic
        "by_group": (
            'WHERE <i><k>$k</k><grp>$g</grp><v>$v</v></i> IN "items" '
            "CONSTRUCT <g id=$g><n>count($v)</n><total>sum($v)</total>"
            "<mean>avg($v)</mean></g>"
        ),
    }


VIEWS = views(N_ROWS)


def make_rows(n: int = N_ROWS) -> list[tuple[int, int, int]]:
    return [(k, (k * 13) % 24, (k * k * 7) % 1000) for k in range(n)]


def build_engine(rows, **engine_kw):
    db = Database()
    db.execute(
        "CREATE TABLE t (k INTEGER PRIMARY KEY, grp INTEGER, v INTEGER)"
    )
    db.insert_rows("t", rows)
    registry = SourceRegistry(SimClock())
    source = RelationalSource("s", db, network=NetworkModel(**NETWORK))
    registry.register(source)
    source.enable_cdc()
    catalog = Catalog(registry)
    catalog.map_relation("items", "s", "t")
    schema = MediatedSchema("m")
    for name, text in views(len(rows)).items():
        schema.define(ViewDef.from_text(name, text))
    catalog.add_schema(schema)
    engine = NimbleEngine(
        catalog, materializer=MaterializationManager(registry.clock),
        **engine_kw,
    )
    return engine, source


def churn_ops(rate: float, batch: int, next_key: int, n_rows: int = N_ROWS):
    """A deterministic churn batch: updates spread over the key space,
    one delete and one insert per 10 touched rows."""
    touched = max(1, round(n_rows * rate))
    ops = []
    for i in range(touched):
        key = (i * 37 + batch * 101) % n_rows
        if i % 10 == 3:
            ops.append(("delete", key, 0, 0))
        elif i % 10 == 7:
            ops.append(("insert", next_key, (key * 3) % 24, (key * 11) % 1000))
            next_key += 1
        else:
            ops.append(("update", key, (key + batch) % 24,
                        (key * 7 + batch) % 1000))
    return ops, next_key


def apply_ops(source, ops, dead: set) -> None:
    for kind, key, grp, v in ops:
        if kind == "insert":
            source.insert_row("t", {"k": key, "grp": grp, "v": v})
            dead.discard(key)
        elif key in dead:
            continue
        elif kind == "delete":
            source.delete_row("t", key)
            dead.add(key)
        else:
            source.update_row("t", key, {"grp": grp, "v": v})


def fresh_elements(engine, name):
    from repro.core.engine import PartialResultPolicy

    resolved = engine.catalog.resolve(name)
    result = engine._execute(
        resolved.query, PartialResultPolicy.FAIL, frozenset()
    )
    return [serialize(e) for e in result.elements]


# -- claim 1 + 3 + 4: refresh cost vs churn rate ------------------------------


def refresh_sweep(bench_stats):
    table = []
    speedups = {}
    staleness = {}
    identity_cells = 0
    for rate in CHURN_RATES:
        incremental, inc_source = build_engine(make_rows(), incremental=True)
        full, full_source = build_engine(make_rows())
        monitor = FreshnessMonitor(incremental)
        for name in VIEWS:
            incremental.maintain_view(name)
            full.materialize_view(name)
        inc_ms = full_ms = 0.0
        worst_staleness = 0.0
        next_key = N_ROWS
        dead: set = set()
        full_dead: set = set()
        for batch in range(3):
            ops, batch_next = churn_ops(rate, batch, next_key)
            apply_ops(inc_source, ops, dead)
            apply_ops(full_source, ops, full_dead)
            next_key = batch_next
            # writes land, then a beat passes before the next sync —
            # the freshness monitor must see that window
            incremental.clock.advance(50.0)
            full.clock.advance(50.0)
            worst_staleness = max(worst_staleness,
                                  monitor.worst_staleness_ms())

            started = incremental.clock.now
            incremental.sync_changes()
            inc_ms += incremental.clock.now - started

            started = full.clock.now
            for name in VIEWS:
                full.materialize_view(name)  # re-runs the view query
            full_ms += full.clock.now - started

            for name in VIEWS:
                maintained = [
                    serialize(e)
                    for e in incremental.incremental.views[name].elements
                ]
                assert maintained == fresh_elements(incremental, name), (
                    rate, batch, name,
                )
                identity_cells += 1
        bench_stats.stats.absorb(incremental.cdc_stats)
        speedup = full_ms / inc_ms if inc_ms else float("inf")
        speedups[rate] = speedup
        staleness[rate] = worst_staleness
        counters = incremental.cdc_stats.cdc_counters()
        table.append([
            f"{rate:.1%}", round(inc_ms, 2), round(full_ms, 2),
            round(speedup, 1), round(sync_wall_ms(N_ROWS, rate, 3), 2),
            round(worst_staleness, 1),
            counters["views_delta_refreshed"],
            counters["views_full_rebuilt"],
        ])
    return table, speedups, staleness, identity_cells


# -- claim 5: the wall clock ----------------------------------------------


def sync_wall_ms(n_rows: int, rate: float, syncs: int,
                 cache_buckets: bool = False) -> float:
    """Median wall ms of one ``sync_changes`` over fresh deployments.

    Each repeat maintains both views (plus, with ``cache_buckets``, the
    20 key-range bucket fragments warmed into the fragment cache), then
    times ``syncs`` churn batches; set-up and writes are not timed.
    """
    samples = []
    for _ in range(WALL_REPEATS):
        engine, source = build_engine(
            make_rows(n_rows), incremental=True,
            fragment_cache_bytes=64_000_000 if cache_buckets else 0,
        )
        for name in VIEWS:
            engine.maintain_view(name)
        if cache_buckets:
            for query in _bucket_queries(n_rows):
                engine.query(query)
        next_key = n_rows
        dead: set = set()
        for batch in range(syncs):
            ops, next_key = churn_ops(rate, batch, next_key, n_rows)
            apply_ops(source, ops, dead)
            engine.clock.advance(50.0)
            started = time.perf_counter()
            engine.sync_changes()
            samples.append((time.perf_counter() - started) * 1e3)
    return statistics.median(samples)


def base_size_sweep():
    """Wall ms per sync at a fixed delta while the base grows."""
    table = []
    for n_rows in BASE_SIZES:
        wall = sync_wall_ms(n_rows, SWEEP_CHANGES / n_rows, SWEEP_SYNCS,
                            cache_buckets=True)
        table.append([f"{n_rows:,}", SWEEP_CHANGES, round(wall, 2)])
    return table


# -- claim 2: scoped invalidation vs the epoch bump ---------------------------


N_BUCKETS = 20


def _bucket_queries(n_rows: int = N_ROWS):
    width = n_rows // N_BUCKETS
    return [
        (
            'WHERE <i><k>$k</k><v>$v</v></i> IN "items", '
            f"$k >= {b * width}, $k < {(b + 1) * width} "
            "CONSTRUCT <r>$k</r>"
        )
        for b in range(N_BUCKETS)
    ]


def _warm_and_count_hits(engine, bench_stats):
    hits = 0
    for query in _bucket_queries():
        result = bench_stats.absorb(engine.query(query))
        hits += result.stats.cache_counters()["fragment_cache_hits"]
    return hits


def invalidation_rows(bench_stats):
    # scoped: one keyed update, then re-probe every bucket
    scoped, source = build_engine(
        make_rows(), fragment_cache_bytes=2_000_000
    )
    _warm_and_count_hits(scoped, bench_stats)  # warm all 20 buckets
    source.update_row("t", 5, {"v": 999})
    report = scoped.sync_changes()
    scoped_hits = _warm_and_count_hits(scoped, bench_stats)

    # epoch bump: the pre-CDC behaviour — any write invalidates all
    bumped, bump_source = build_engine(
        make_rows(), fragment_cache_bytes=2_000_000
    )
    _warm_and_count_hits(bumped, bench_stats)
    bump_source.update_row("t", 5, {"v": 999})
    bumped.catalog.map_relation("epoch_bump", "s", "t")  # version moves
    bumped_hits = _warm_and_count_hits(bumped, bench_stats)

    scoped_retention = scoped_hits / N_BUCKETS
    bumped_retention = bumped_hits / N_BUCKETS
    table = [
        ["scoped (CDC)", report["cache_retained"], report["cache_patched"],
         report["cache_evicted"], scoped_hits, f"{scoped_retention:.0%}"],
        ["epoch bump", 0, 0, N_BUCKETS, bumped_hits,
         f"{bumped_retention:.0%}"],
    ]
    return table, scoped_retention, bumped_retention


# -- report -------------------------------------------------------------------

SWEEP_COLUMNS = ["churn", "delta virtual ms", "full virtual ms", "speedup",
                 "sync wall ms", "staleness ms", "delta refreshes",
                 "rebuilds"]
BASE_COLUMNS = ["base rows", "changes per sync", "sync wall ms"]


def report():
    from common import BenchStats, print_table, write_bench_json

    bench_stats = BenchStats()
    bench_stats.reset()

    sweep_table, speedups, staleness, identity_cells = refresh_sweep(
        bench_stats
    )
    print_table(
        f"E17: delta refresh vs full re-materialization ({N_ROWS:,} rows, "
        "3 churn batches each)",
        SWEEP_COLUMNS,
        sweep_table,
    )
    base_table = base_size_sweep()
    print_table(
        f"E17: wall ms per sync_changes vs base size ({SWEEP_CHANGES} "
        f"changes per sync, median of {WALL_REPEATS} x {SWEEP_SYNCS} syncs; "
        "both views plus 20 cached bucket fragments)",
        BASE_COLUMNS,
        base_table,
    )
    inval_table, scoped_retention, bumped_retention = invalidation_rows(
        bench_stats
    )
    print_table(
        f"E17: scoped invalidation vs epoch bump ({N_BUCKETS} disjoint "
        "key-range fragments, one keyed update)",
        ["strategy", "retained", "patched", "evicted", "re-probe hits",
         "retention"],
        inval_table,
    )
    print(f"\nbit-identity: {identity_cells} churn-batch x view cells verified")

    at_1pct = speedups[0.01]
    assert at_1pct >= TARGET_SPEEDUP_AT_1PCT, (
        f"delta refresh speedup {at_1pct:.1f}x at 1% churn is below the "
        f"{TARGET_SPEEDUP_AT_1PCT}x target"
    )
    assert scoped_retention >= TARGET_RETENTION, (
        f"scoped invalidation retained {scoped_retention:.0%}, below the "
        f"{TARGET_RETENTION:.0%} target"
    )
    assert bumped_retention == 0.0, "epoch bump unexpectedly retained entries"
    assert all(value > 0 for value in staleness.values()), (
        "staleness window was never observed"
    )

    write_bench_json(
        "e17_incremental",
        SWEEP_COLUMNS,
        sweep_table,
        headline={
            "speedup_at_1pct_churn": round(at_1pct, 1),
            "scoped_retention": scoped_retention,
            "epoch_bump_retention": bumped_retention,
            "bit_identity_cells": identity_cells,
            "worst_staleness_ms_at_1pct": round(staleness[0.01], 1),
            "sync_wall_ms_at_1pct": sweep_table[1][4],
            "sync_wall_ms_40k_over_4k": round(
                base_table[-1][2] / base_table[0][2], 2
            ),
        },
        extra_tables={
            "base_size": (BASE_COLUMNS, base_table),
            "invalidation": (
                ["strategy", "retained", "patched", "evicted",
                 "re-probe hits", "retention"],
                inval_table,
            ),
        },
        stats=bench_stats,
    )
    return sweep_table


if __name__ == "__main__":
    report()
