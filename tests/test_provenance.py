"""Answer provenance and freshness lineage.

The load-bearing properties:

* provenance is strictly observational — elements, completeness, the
  determinism-checked ``counters()``, and virtual time are bit-identical
  with the knob on or off, across fragment caching, injected faults,
  sharded scatter-gather, and incremental maintenance (the hypothesis
  sweep at the bottom);
* version vectors advance exactly with ``sync_changes`` — an answer's
  ``feed_lag`` is the precise number of unapplied change records;
* ``explain_answer`` attributes a degraded serve to its cause: the open
  breaker behind a stale rung, the lagging CDC feed behind a behind
  answer;
* the dark paths now carry spans: ``sync_changes`` (cdc_sync/cdc_feed),
  incremental refresh (maintenance/view_refresh), the XML snapshot
  differ, and shard scatter spans with ``shard_index``/``key_range``
  attributes — all exported on the Chrome maintenance lane.
"""

from __future__ import annotations

import pytest

from repro.admin import FreshnessMonitor, ManagementConsole, TraceMonitor
from repro.core.engine import NimbleEngine, PartialResultPolicy
from repro.core.loadbalance import EngineCluster
from repro.core.sharding import ShardRouter
from repro.errors import MediationError
from repro.materialize import MaterializationManager
from repro.mediator.catalog import Catalog
from repro.observability import (
    MetricsRegistry,
    QueryLog,
    Tracer,
    chrome_trace_events,
    parse_exposition,
    prometheus_exposition,
)
from repro.observability.export import MAINTENANCE_TID
from repro.observability.provenance import (
    ORIGIN_CACHE,
    ORIGIN_LIVE,
    ORIGIN_STALE_CACHE,
    FragmentOrigin,
    Provenance,
    explain_provenance,
    origin_counts,
    render_origin_counts,
)
from repro.resilience import (
    BreakerConfig,
    FaultModel,
    ResiliencePolicy,
    RetryPolicy,
)
from repro.simtime import SimClock
from repro.sources.base import NetworkModel
from repro.sources.registry import SourceRegistry
from repro.sources.relational import RelationalSource
from repro.sources.sharding import partition_registry
from repro.sources.xmlfile import XMLSource
from repro.sql.database import Database
from repro.mediator.schema import MediatedSchema, ViewDef
from repro.xmldm.serializer import serialize

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False


# -- deployment builders ------------------------------------------------------


ITEMS_QUERY = (
    'WHERE <i><k>$k</k><grp>$g</grp><v>$v</v></i> IN "items" '
    "CONSTRUCT <r><k>$k</k><v>$v</v></r> ORDER BY $k"
)

VIEW_QUERY = (
    'WHERE <r><k>$k</k><v>$v</v></r> IN "big_items", $k < 6 '
    "CONSTRUCT <x k=$k>$v</x> ORDER BY $k"
)

RANGE_QUERY = (
    'WHERE <i><k>$k</k><grp>$g</grp><v>$v</v></i> IN "items", $k < 4 '
    "CONSTRUCT <r><k>$k</k><v>$v</v></r> ORDER BY $k"
)


def seeded_rows(n: int, seed: int = 7) -> list[tuple[int, int, int]]:
    return [(k, (k * seed) % 5, (k * k * seed) % 23) for k in range(n)]


def build_deployment(rows, faults=None, **engine_kw):
    db = Database()
    db.execute(
        "CREATE TABLE t (k INTEGER PRIMARY KEY, grp INTEGER, v INTEGER)"
    )
    db.insert_rows("t", rows)
    clock = SimClock()
    registry = SourceRegistry(clock)
    source = RelationalSource(
        "s", db, network=NetworkModel(latency_ms=20.0, per_row_ms=0.5)
    )
    if faults is not None:
        source.faults = faults
    registry.register(source)
    source.enable_cdc()
    catalog = Catalog(registry)
    catalog.map_relation("items", "s", "t")
    schema = MediatedSchema("m")
    schema.define(ViewDef.from_text(
        "big_items",
        'WHERE <i><k>$k</k><grp>$g</grp><v>$v</v></i> IN "items", $v > 5 '
        "CONSTRUCT <r><k>$k</k><v>$v</v></r>",
    ))
    schema.define(ViewDef.from_text(
        "by_group",
        'WHERE <i><k>$k</k><grp>$g</grp><v>$v</v></i> IN "items" '
        "CONSTRUCT <g id=$g><n>count($v)</n><total>sum($v)</total></g>",
    ))
    catalog.add_schema(schema)
    manager = MaterializationManager(clock)
    engine = NimbleEngine(
        catalog, materializer=manager, incremental=True, **engine_kw
    )
    return engine, source


def insert_rows(source, rows):
    for k, grp, v in rows:
        source.insert_row("t", {"k": k, "grp": grp, "v": v})


def rendered(result) -> list[str]:
    return [serialize(element) for element in result.elements]


def _breaker_policy() -> ResiliencePolicy:
    return ResiliencePolicy(
        retry=RetryPolicy(max_attempts=2, base_backoff_ms=10.0),
        breaker=BreakerConfig(window=4, failure_threshold=0.5,
                              min_calls=2, cooldown_ms=60_000.0),
    )


# -- the Provenance record ----------------------------------------------------


class TestProvenanceRecord:
    def test_origin_counts_and_render(self):
        origins = [
            FragmentOrigin("a", ORIGIN_CACHE),
            FragmentOrigin("b", ORIGIN_CACHE),
            FragmentOrigin("c", ORIGIN_LIVE),
        ]
        counts = origin_counts(origins)
        assert counts == {"cache": 2, "live": 1}
        assert render_origin_counts(counts) == "cache=2 live=1"

    def test_feed_lag_is_head_minus_applied(self):
        provenance = Provenance(
            version_vector={"s": 3, "t": 5},
            feed_heads={"s": 7, "t": 5},
        )
        assert provenance.feed_lag() == {"s": 4, "t": 0}

    def test_absorb_merges_vector_pessimistically(self):
        mine = Provenance(version_vector={"s": 5}, feed_heads={"s": 5})
        other = Provenance(
            version_vector={"s": 3, "t": 9},
            feed_heads={"s": 8, "t": 9},
            origins=[FragmentOrigin("s", ORIGIN_LIVE, rows=2)],
        )
        mine.absorb(other, shard=1)
        # the answer is only as fresh as its most behind contributor
        assert mine.version_vector == {"s": 3, "t": 9}
        # but the head observed is the furthest one
        assert mine.feed_heads == {"s": 8, "t": 9}
        assert mine.origins[0].shard == 1

    def test_as_dict_round_trips_through_json(self):
        import json

        provenance = Provenance(
            trace_id="t0000",
            version_vector={"s": 1},
            feed_heads={"s": 2},
            snapshot_epoch=4,
            origins=[FragmentOrigin("s", ORIGIN_STALE_CACHE, 3, 120.0)],
            shards=[0, 1],
        )
        blob = json.loads(json.dumps(provenance.as_dict()))
        assert blob["feed_lag"] == {"s": 1}
        assert blob["origin_counts"] == {"stale_cache": 1}
        assert blob["origins"][0]["staleness_ms"] == 120.0

    def test_explain_names_breaker_and_feed(self):
        provenance = Provenance(
            trace_id="t0000",
            version_vector={"s": 2},
            feed_heads={"s": 6},
            origins=[FragmentOrigin("s", ORIGIN_STALE_CACHE, 3, 500.0)],
        )
        text = explain_provenance(
            provenance,
            breakers={"s": {"state": "open", "opened_at_ms": 40.0,
                            "times_opened": 1}},
            view_lag={"big_items": {"mode": "rows", "seq_lag": 4,
                                    "staleness_ms": 250.0}},
        )
        assert "breaker 's' is OPEN since virtual t=40.0 ms" in text
        assert "feed 's' is 4 changes ahead" in text
        assert "view 'big_items' [rows] lags feed" in text

    def test_explain_fresh_answer_has_no_why(self):
        provenance = Provenance(
            version_vector={"s": 2}, feed_heads={"s": 2},
            origins=[FragmentOrigin("s", ORIGIN_LIVE, 3)],
        )
        text = explain_provenance(provenance)
        assert "every fragment served fresh and in sync" in text


# -- per-answer lineage -------------------------------------------------------


class TestAnswerProvenance:
    def test_live_answer_carries_origins_and_trace_id(self):
        engine, _ = build_deployment(seeded_rows(6), provenance=True)
        tracer = Tracer(engine.clock)
        engine.use_tracer(tracer)
        result = engine.query(ITEMS_QUERY)
        assert result.provenance is not None
        assert result.provenance.trace_id == tracer.last_trace.trace_id
        assert result.provenance.origin_counts() == {"live": 1}
        assert result.provenance.snapshot_epoch == engine.catalog.version

    def test_provenance_off_attaches_nothing(self):
        engine, _ = build_deployment(seeded_rows(6))
        result = engine.query(ITEMS_QUERY)
        assert result.provenance is None
        with pytest.raises(MediationError):
            engine.explain_answer(result)

    def test_cache_hit_origin_with_age(self):
        engine, _ = build_deployment(
            seeded_rows(6), provenance=True, fragment_cache_bytes=100_000
        )
        engine.query(ITEMS_QUERY)
        engine.clock.advance(500.0)
        result = engine.query(ITEMS_QUERY)
        counts = result.provenance.origin_counts()
        assert counts == {"cache": 1}
        origin = result.provenance.origins[0]
        assert origin.staleness_ms >= 500.0

    def test_version_vector_advances_exactly_with_sync_changes(self):
        engine, source = build_deployment(seeded_rows(4), provenance=True)
        before = engine.query(ITEMS_QUERY)
        assert before.provenance.version_vector == {"s": 0}
        assert before.provenance.feed_lag() == {"s": 0}
        insert_rows(source, [(10, 1, 9), (11, 2, 8), (12, 3, 7)])
        behind = engine.query(ITEMS_QUERY)
        # the feed moved; this engine has not applied the changes yet
        assert behind.provenance.version_vector == {"s": 0}
        assert behind.provenance.feed_heads == {"s": 3}
        assert behind.provenance.feed_lag() == {"s": 3}
        engine.sync_changes()
        synced = engine.query(ITEMS_QUERY)
        assert synced.provenance.version_vector == {"s": 3}
        assert synced.provenance.feed_lag() == {"s": 0}

    def test_sharded_answer_tags_origins_with_shards(self):
        engine, _ = build_deployment(seeded_rows(8), provenance=True)
        deployment = partition_registry(
            engine.catalog.registry, {"s": "k"}, 2
        )
        router = ShardRouter(engine, deployment)
        result = router.query(ITEMS_QUERY)
        assert result.provenance is not None
        assert result.provenance.shards == [0, 1]
        shards_seen = {origin.shard for origin in result.provenance.origins}
        assert shards_seen == {0, 1}

    def test_query_log_records_origin_summary(self):
        log = QueryLog(capacity=8, slow_threshold_ms=0.0)
        engine, _ = build_deployment(
            seeded_rows(6), query_log=log, fragment_cache_bytes=100_000
        )
        engine.query(ITEMS_QUERY)
        engine.query(ITEMS_QUERY)
        records = log.recent()
        assert records[0].origins == {"live": 1}
        assert records[1].origins == {"cache": 1}


# -- the "why" surface --------------------------------------------------------


def _stale_breaker_scenario():
    """A warmed cache gone stale, a tripped breaker, a lagging feed."""
    engine, source = build_deployment(
        seeded_rows(6),
        provenance=True,
        fragment_cache_bytes=100_000,
        fragment_cache_ttl_ms=1_000.0,
        resilience=_breaker_policy(),
    )
    engine.query(ITEMS_QUERY)  # warm the fragment cache (live)
    insert_rows(source, [(20, 1, 9), (21, 2, 8)])  # feed moves, no sync
    engine.clock.advance(5_000.0)  # the cached entry is now expired
    source.faults = FaultModel(failure_rate=1.0, seed=3)
    stale = engine.query(ITEMS_QUERY)  # fails live, serves the stale rung
    return engine, stale


class TestExplainAnswer:
    def test_attributes_stale_serve_to_breaker_and_feed(self):
        engine, stale = _stale_breaker_scenario()
        assert stale.provenance.origin_counts() == {"stale_cache": 1}
        assert engine.resilient.breakers["s"].state.value == "open"
        chain = engine.explain_answer(stale)
        assert "s: stale_cache" in chain
        assert "because breaker 's' is OPEN since virtual t=" in chain
        assert "feed 's' is 2 changes ahead of this answer" in chain
        assert "(applied @0, head @2)" in chain

    def test_completeness_verdict_rendered(self):
        engine, stale = _stale_breaker_scenario()
        chain = engine.explain_answer(stale)
        assert "stale: s" in chain


# -- maintenance tracing ------------------------------------------------------


class TestMaintenanceTracing:
    def test_sync_changes_spans_cover_feeds_and_views(self):
        engine, source = build_deployment(seeded_rows(6))
        engine.maintain_view("big_items")
        tracer = Tracer(engine.clock)
        engine.use_tracer(tracer)
        insert_rows(source, [(30, 1, 9), (31, 2, 8)])
        engine.sync_changes()
        trace = tracer.last_trace
        assert trace.kind == "cdc_sync"
        assert trace.attrs["changes"] == 2
        feeds = trace.find("cdc_feed")
        assert len(feeds) == 1
        assert feeds[0].attrs["from_seq"] == 0
        assert feeds[0].attrs["to_seq"] == 2
        refreshes = trace.find("view_refresh")
        assert len(refreshes) == 1
        assert refreshes[0].attrs["mode"] == "rows"
        assert refreshes[0].attrs["outcome"] == "delta"
        events = [e.name for span in trace.walk() for e in span.events]
        assert "delta_applied" in events

    def test_in_sync_refresh_traced_as_in_sync(self):
        engine, _ = build_deployment(seeded_rows(6))
        engine.maintain_view("big_items")
        tracer = Tracer(engine.clock)
        engine.use_tracer(tracer)
        engine.sync_changes()
        refreshes = tracer.last_trace.find("view_refresh")
        assert refreshes[0].attrs["outcome"] == "in_sync"

    def test_snapshot_differ_span(self):
        clock = SimClock()
        registry = SourceRegistry(clock)
        source = XMLSource("feed", {"doc": "<r><i k='1'><v>a</v></i></r>"})
        registry.register(source)
        source.enable_cdc(keys={"doc": "k"})
        tracer = Tracer(clock)
        source.tracer = tracer
        source.replace_document(
            "doc", "<r><i k='1'><v>b</v></i><i k='2'><v>c</v></i></r>"
        )
        trace = tracer.last_trace
        assert trace.kind == "snapshot_diff"
        assert trace.attrs["insert"] == 1
        assert trace.attrs["update"] == 1
        assert trace.attrs["delete"] == 0

    def test_chrome_export_has_maintenance_lane(self):
        engine, source = build_deployment(seeded_rows(6))
        engine.maintain_view("big_items")
        tracer = Tracer(engine.clock)
        engine.use_tracer(tracer)
        insert_rows(source, [(40, 1, 9)])
        engine.sync_changes()
        payload = chrome_trace_events([tracer.last_trace])
        lanes = {event["tid"] for event in payload["traceEvents"]}
        assert MAINTENANCE_TID in lanes
        metadata = [event for event in payload["traceEvents"]
                    if event.get("ph") == "M"]
        assert metadata and metadata[0]["args"]["name"] == "maintenance"


# -- shard span attributes ----------------------------------------------------


class TestShardSpans:
    def _router(self, provenance=False):
        engine, _ = build_deployment(seeded_rows(8), provenance=provenance)
        deployment = partition_registry(
            engine.catalog.registry, {"s": "k"}, 2
        )
        router = ShardRouter(engine, deployment)
        tracer = Tracer(engine.clock)
        router.use_tracer(tracer)
        return router, tracer

    def test_shard_spans_carry_index_and_key_range(self):
        router, tracer = self._router()
        router.query(ITEMS_QUERY)
        shards = tracer.last_trace.find("shard")
        assert [span.attrs["shard_index"] for span in shards] == [0, 1]
        for span in shards:
            assert span.attrs["key_range"].startswith("s:[")

    def test_pruned_shards_emit_reasoned_events(self):
        router, tracer = self._router()
        router.query(RANGE_QUERY)
        scatter = tracer.last_trace.find("scatter")[0]
        pruned = [e for e in scatter.events if e.name == "shard_pruned"]
        assert len(pruned) == 1
        assert pruned[0].attrs["shard_index"] == 1
        assert "contradicts" in pruned[0].attrs["reason"]

    def test_cluster_dispatch_span_parents_query(self):
        engine, _ = build_deployment(seeded_rows(6))
        tracer = Tracer(engine.clock)
        engine.use_tracer(tracer)
        cluster = EngineCluster(engine, instances=2)
        cluster.submit(ITEMS_QUERY, arrival_ms=0.0)
        trace = tracer.last_trace
        assert trace.kind == "dispatch"
        assert trace.find("query"), "query span should nest under dispatch"


# -- gauges and console -------------------------------------------------------


class TestFreshnessGauges:
    def test_gauges_round_trip_through_exposition(self):
        engine, source = build_deployment(seeded_rows(6))
        engine.maintain_view("big_items")
        insert_rows(source, [(50, 1, 9), (51, 2, 8)])
        engine.clock.advance(300.0)
        engine.query(ITEMS_QUERY)
        monitor = FreshnessMonitor(engine)
        registry = monitor.export_gauges(MetricsRegistry())
        text = prometheus_exposition(registry.snapshot())
        parsed = parse_exposition(text)
        gauges = parsed["gauges"]
        assert gauges["nimble_freshness_worst_staleness_ms"] > 0
        assert gauges["nimble_freshness_view_big_items_seq_lag"] == 2
        assert gauges["nimble_cdc_s_head_seq"] == 2
        assert gauges["nimble_cdc_s_applied_seq"] == 0
        assert gauges["nimble_provenance_origin_live"] == 1

    def test_worst_staleness_matches_monitor(self):
        engine, source = build_deployment(seeded_rows(6))
        engine.maintain_view("big_items")
        insert_rows(source, [(60, 1, 9)])
        engine.clock.advance(250.0)
        monitor = FreshnessMonitor(engine)
        registry = monitor.export_gauges(MetricsRegistry())
        gauge = registry.gauge("freshness.worst_staleness_ms").value
        assert gauge == pytest.approx(monitor.worst_staleness_ms())

    def test_console_renders_slow_query_origins(self):
        log = QueryLog(capacity=8, slow_threshold_ms=0.0)
        engine, _ = build_deployment(seeded_rows(6), query_log=log)
        engine.query(ITEMS_QUERY)
        monitor = TraceMonitor(engine)
        snapshot = monitor.snapshot()
        assert snapshot["slow"][0]["origins"] == {"live": 1}
        console = ManagementConsole(engine, trace_monitor=monitor)
        text = console.render()
        assert "origins[live=1]" in text


# -- the bit-identity property ------------------------------------------------


def _run_workload(provenance: bool, n_rows, seed, cache, faulty,
                  incremental, sharded):
    kwargs = dict(
        provenance=provenance,
        fragment_cache_bytes=300_000 if cache else 0,
    )
    if faulty:
        kwargs["resilience"] = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=8), breaker=None
        )
    faults = FaultModel(failure_rate=0.08, seed=seed) if faulty else None
    engine, source = build_deployment(seeded_rows(n_rows, seed), faults,
                                      **kwargs)
    outputs: list[list[str]] = []
    if incremental:
        engine.maintain_view("big_items")
    outputs.append(rendered(engine.query(ITEMS_QUERY)))
    insert_rows(source, [(100 + seed, seed % 5, 9), (200 + seed, 1, 3)])
    if incremental:
        engine.sync_changes()
    outputs.append(rendered(engine.query(ITEMS_QUERY)))
    outputs.append(rendered(engine.query(RANGE_QUERY)))
    outputs.append(rendered(engine.query(VIEW_QUERY)))
    if sharded:
        deployment = partition_registry(
            engine.catalog.registry, {"s": "k"}, 2
        )
        router = ShardRouter(engine, deployment)
        outputs.append(rendered(router.query(ITEMS_QUERY)))
    counters = engine.cdc_stats.counters()
    return outputs, engine.clock.now, counters


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
class TestBitIdentityProperty:
    @given(
        n_rows=st.integers(2, 16),
        seed=st.integers(1, 50),
        cache=st.booleans(),
        faulty=st.booleans(),
        incremental=st.booleans(),
        sharded=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_provenance_is_bit_identical_and_free(
        self, n_rows, seed, cache, faulty, incremental, sharded
    ):
        with_provenance = _run_workload(
            True, n_rows, seed, cache, faulty, incremental, sharded
        )
        without = _run_workload(
            False, n_rows, seed, cache, faulty, incremental, sharded
        )
        # identical elements, identical virtual time (zero overhead),
        # identical determinism-checked counters
        assert with_provenance == without
