"""The on-demand fragment result cache (E11).

The load-bearing property mirrors the parallelism layer's: the cache is
a *performance* knob — for any budget, TTL, or containment setting,
query results, completeness, and every invariant stats counter must be
identical to the cache-less run.  On top of that transparency sit the
mechanisms themselves: LRU eviction under a byte budget, TTL and
catalog-epoch invalidation, containment serving, single-flight dedup,
and cost-model feedback.
"""

from hypothesis import given, settings, strategies as st

import pytest

from repro import NimbleEngine
from repro.algebra.pattern import TreePattern
from repro.cache import FragmentResultCache, StatisticsFeedback
from repro.cache.keys import params_key, result_key
from repro.materialize.matching import implies
from repro.materialize.policy import RefreshPolicy
from repro.optimizer.costs import CostModel
from repro.optimizer.planner import PlanBuilder
from repro.query import ast as qast
from repro.resilience import FaultModel, ResiliencePolicy, RetryPolicy
from repro.simtime import SimClock
from repro.sources.base import Access, CapabilityProfile, Fragment
from repro.workloads import make_website_workload
from repro.xmldm.serializer import serialize
from repro.xmldm.values import NULL, Record

FANOUT_QUERY = (
    'WHERE <product sku=$s category=$c><name>$n</name></product> '
    'IN "content.products", '
    '<t><sku>$s</sku><price>$p</price></t> IN "stock", '
    '<t><sku>$s</sku><ship_days>$d</ship_days></t> IN "shipping_estimate", '
    '<t><sku>$s</sku><discount>$disc</discount></t> IN "promo" '
    "CONSTRUCT <row sku=$s><price>$p</price><ship>$d</ship>"
    "<disc>$disc</disc></row> ORDER BY $s"
)

DEPENDENT_QUERY = (
    'WHERE <page sku=$s><name>$n</name></page> IN "product_page", '
    '<r><sku>$s</sku><rating>$rt</rating></r> IN "review_summary" '
    "CONSTRUCT <row sku=$s><rating>$rt</rating></row> ORDER BY $s"
)

PAGE_RANGE_QUERY = (
    'WHERE <page sku=$s><name>$n</name><price>$p</price></page> '
    'IN "product_page", $p < 250 '
    "CONSTRUCT <row sku=$s><price>$p</price></row> ORDER BY $s"
)

STOCK_QUERY = (
    'WHERE <t><sku>$s</sku><price>$p</price></t> IN "stock", $p > 100 '
    "CONSTRUCT <row sku=$s><price>$p</price></row> ORDER BY $s"
)

BROAD_STOCK_QUERY = (
    'WHERE <t><sku>$s</sku><price>$p</price></t> IN "stock", $p > 0 '
    "CONSTRUCT <row sku=$s><price>$p</price></row> ORDER BY $s"
)

#: duplicated content clause: XMLSource cannot join within a fragment,
#: so the two identical accesses stay two identical fragments
DUPLICATE_QUERY = (
    'WHERE <product sku=$s category=$c><name>$n</name></product> '
    'IN "content.products", '
    '<product sku=$s category=$c><name>$n</name></product> '
    'IN "content.products", '
    '<t><sku>$s</sku><price>$p</price></t> IN "stock" '
    "CONSTRUCT <row sku=$s><price>$p</price></row> ORDER BY $s"
)


def signature(result) -> list[str]:
    return [serialize(element) for element in result.elements]


def make_engine(cache_bytes=1 << 20, n_products=12, seed=23, **kwargs):
    workload = make_website_workload(n_products, seed=seed, extended=True)
    engine = NimbleEngine(
        workload.catalog, fragment_cache_bytes=cache_bytes, **kwargs
    )
    return workload, engine


def var(name):
    return qast.Var(name)


def lit(value):
    return qast.Literal(value)


def binop(op, left, right):
    return qast.BinOp(op, left, right)


def make_fragment(source="erp", relation="stock", conditions=(),
                  variables=("s", "p")):
    pattern = TreePattern(
        "t", children=tuple(TreePattern(v, text_var=v) for v in variables)
    )
    return Fragment(source, (Access(relation, pattern),),
                    conditions=tuple(conditions))


def make_records(n, price=lambda i: 10.0 * i):
    return [Record({"s": f"SKU-{i}", "p": price(i)}) for i in range(n)]


# -- condition implication (containment's logic core) --------------------------


class TestImplies:
    def test_equality_implies_satisfied_range(self):
        assert implies(binop("=", var("p"), lit(7)), binop(">", var("p"), lit(5)))
        assert implies(binop("=", var("p"), lit(5)),
                       binop(">=", var("p"), lit(5)))
        assert not implies(binop("=", var("p"), lit(3)),
                           binop(">", var("p"), lit(5)))

    def test_conjunct_implies_whole(self):
        conj = binop("AND", binop(">", var("p"), lit(10)),
                     binop("<", var("q"), lit(2)))
        assert implies(conj, binop(">", var("p"), lit(5)))
        assert implies(conj, binop("<", var("q"), lit(2)))

    def test_whole_implies_disjunct(self):
        strong = binop(">", var("p"), lit(10))
        disj = binop("OR", binop(">", var("p"), lit(5)),
                     binop("=", var("q"), lit(1)))
        assert implies(strong, disj)

    def test_or_stronger_needs_both_branches(self):
        disj = binop("OR", binop(">", var("p"), lit(10)),
                     binop(">", var("p"), lit(20)))
        assert implies(disj, binop(">", var("p"), lit(5)))
        mixed = binop("OR", binop(">", var("p"), lit(10)),
                      binop("<", var("p"), lit(1)))
        assert not implies(mixed, binop(">", var("p"), lit(5)))

    def test_range_weakening_still_works(self):
        assert implies(binop(">", var("p"), lit(10)),
                       binop(">", var("p"), lit(5)))
        assert not implies(binop(">", var("p"), lit(5)),
                           binop(">", var("p"), lit(10)))


# -- the store itself ----------------------------------------------------------


class TestFragmentResultCacheUnit:
    def _cache(self, max_bytes=1 << 20, **kwargs):
        clock = SimClock()
        return clock, FragmentResultCache(clock, max_bytes=max_bytes, **kwargs)

    def test_exact_hit_returns_copy(self):
        clock, cache = self._cache()
        fragment = make_fragment()
        cache.insert(fragment, None, make_records(3), epoch=1)
        served = cache.lookup(fragment, None, epoch=1)
        assert [r.get("s") for r in served.records] == ["SKU-0", "SKU-1",
                                                        "SKU-2"]
        served.records.clear()  # caller mutation must not corrupt the entry
        assert len(cache.lookup(fragment, None, epoch=1).records) == 3

    def test_lru_evicts_least_recently_used(self):
        # containment off: B must not be answered from A after eviction
        clock, cache = self._cache(containment=False)
        frag_a = make_fragment(conditions=(binop(">", var("p"), lit(1)),))
        frag_b = make_fragment(conditions=(binop(">", var("p"), lit(2)),))
        frag_c = make_fragment(conditions=(binop(">", var("p"), lit(3)),))
        cache.insert(frag_a, None, make_records(3), epoch=1)
        cache.insert(frag_b, None, make_records(3), epoch=1)
        cache.max_bytes = cache.current_bytes  # full: next insert evicts
        assert cache.lookup(frag_a, None, epoch=1) is not None  # touch A
        cache.insert(frag_c, None, make_records(3), epoch=1)
        assert cache.lookup(frag_b, None, epoch=1) is None  # B was LRU
        assert cache.lookup(frag_a, None, epoch=1) is not None
        assert cache.evictions == 1

    def test_ttl_expires_on_virtual_clock(self):
        clock, cache = self._cache(default_policy=RefreshPolicy.ttl(100.0))
        fragment = make_fragment()
        cache.insert(fragment, None, make_records(2), epoch=1)
        clock.advance(99.0)
        assert cache.lookup(fragment, None, epoch=1) is not None
        clock.advance(50.0)
        assert cache.lookup(fragment, None, epoch=1) is None
        assert len(cache) == 0  # expired entries are dropped, not kept

    def test_per_source_policy_override(self):
        clock, cache = self._cache(
            default_policy=RefreshPolicy.ttl(1_000.0),
            policies={"volatile": RefreshPolicy.ttl(10.0)},
        )
        steady = make_fragment(source="erp")
        volatile = make_fragment(source="volatile")
        cache.insert(steady, None, make_records(2), epoch=1)
        cache.insert(volatile, None, make_records(2), epoch=1)
        clock.advance(50.0)
        assert cache.lookup(steady, None, epoch=1) is not None
        assert cache.lookup(volatile, None, epoch=1) is None

    def test_epoch_change_invalidates(self):
        clock, cache = self._cache()
        fragment = make_fragment()
        cache.insert(fragment, None, make_records(2), epoch=(1, 0))
        assert cache.lookup(fragment, None, epoch=(1, 0)) is not None
        assert cache.lookup(fragment, None, epoch=(2, 0)) is None

    def test_oversize_result_rejected(self):
        clock, cache = self._cache(max_bytes=200)
        fragment = make_fragment()
        assert cache.insert(fragment, None, make_records(50), epoch=1) == 0
        assert cache.oversize_rejects == 1
        assert len(cache) == 0

    def test_invalidate_source_drops_only_that_source(self):
        clock, cache = self._cache()
        cache.insert(make_fragment(source="erp"), None, make_records(2), 1)
        cache.insert(make_fragment(source="crm"), None, make_records(2), 1)
        assert cache.invalidate_source("erp") == 1
        assert cache.entries_by_source() == {"crm": 1}

    def test_containment_serves_narrower_fragment(self):
        clock, cache = self._cache()
        broad = make_fragment()
        cache.insert(broad, None, make_records(5), epoch=1)
        narrow = make_fragment(conditions=(binop(">", var("p"), lit(15)),))
        served = cache.lookup(narrow, None, epoch=1)
        assert served is not None and served.containment
        assert served.residual_conditions == 1
        assert [r.get("p") for r in served.records] == [20.0, 30.0, 40.0]
        assert cache.containment_hits == 1

    def test_containment_filters_null_and_or_predicates(self):
        clock, cache = self._cache()
        broad = make_fragment()
        records = [
            Record({"s": "SKU-0", "p": NULL}),
            Record({"s": "SKU-1", "p": 5.0}),
            Record({"s": "SKU-2", "p": 50.0}),
        ]
        cache.insert(broad, None, records, epoch=1)
        narrow = make_fragment(conditions=(
            binop("OR", binop(">", var("p"), lit(40)),
                  binop("=", var("p"), lit(5))),
        ))
        served = cache.lookup(narrow, None, epoch=1)
        assert served is not None and served.containment
        # the Null price satisfies neither disjunct and is filtered out
        assert [r.get("s") for r in served.records] == ["SKU-1", "SKU-2"]

    def test_containment_knob_disables_scan(self):
        clock, cache = self._cache(containment=False)
        cache.insert(make_fragment(), None, make_records(5), epoch=1)
        narrow = make_fragment(conditions=(binop(">", var("p"), lit(15)),))
        assert cache.lookup(narrow, None, epoch=1) is None
        assert cache.misses == 1

    def test_containment_never_serves_parameterized(self):
        clock, cache = self._cache()
        cache.insert(make_fragment(), None, make_records(5), epoch=1)
        dependent = Fragment(
            "erp",
            make_fragment().accesses,
            input_vars=("s",),
        )
        assert cache.lookup(dependent, {"s": "SKU-1"}, epoch=1) is None

    def test_parameter_sets_cache_separately(self):
        clock, cache = self._cache()
        fragment = make_fragment(variables=("s", "rt"))
        cache.insert(fragment, {"s": "A"}, make_records(1), epoch=1)
        assert cache.lookup(fragment, {"s": "A"}, epoch=1) is not None
        assert cache.lookup(fragment, {"s": "B"}, epoch=1) is None
        assert params_key({"s": "A"}) != params_key({"s": "B"})
        assert result_key(fragment, {"s": "A"}) != result_key(fragment)

    def test_resident_rows_does_not_perturb_lru(self):
        clock, cache = self._cache()
        frag_a = make_fragment(conditions=(binop(">", var("p"), lit(1)),))
        frag_b = make_fragment(conditions=(binop(">", var("p"), lit(2)),))
        cache.insert(frag_a, None, make_records(3), epoch=1)
        cache.insert(frag_b, None, make_records(3), epoch=1)
        cache.max_bytes = cache.current_bytes
        # a planner probe of A must NOT rescue it from eviction
        assert cache.resident_rows(frag_a, epoch=1) == 3
        cache.insert(make_fragment(conditions=(binop(">", var("p"), lit(3)),)),
                     None, make_records(3), epoch=1)
        assert cache.resident_rows(frag_a, epoch=1) is None

    def test_rejects_non_positive_budget(self):
        with pytest.raises(ValueError):
            FragmentResultCache(SimClock(), max_bytes=0)


# -- engine integration --------------------------------------------------------


class TestEngineCacheIntegration:
    def test_warm_repeat_serves_from_cache(self):
        _, engine = make_engine()
        cold = engine.query(STOCK_QUERY)
        warm = engine.query(STOCK_QUERY)
        assert signature(warm) == signature(cold)
        assert warm.stats.remote_calls == 0
        assert warm.stats.cache_counters()["fragment_cache_hits"] == 1
        assert warm.stats.elapsed_virtual_ms < cold.stats.elapsed_virtual_ms

    def test_containment_serves_narrower_query(self):
        _, engine = make_engine()
        engine.query(BROAD_STOCK_QUERY)
        narrow = engine.query(STOCK_QUERY)
        assert narrow.stats.remote_calls == 0
        assert narrow.stats.cache_counters()["containment_hits"] == 1
        # ground truth from a cache-less engine
        _, bare = make_engine(cache_bytes=0)
        assert signature(narrow) == signature(bare.query(STOCK_QUERY))

    def test_cache_hit_spends_no_retry_budget(self):
        workload, engine = make_engine(
            resilience=ResiliencePolicy(
                retry=RetryPolicy(max_attempts=3), breaker=None
            ),
        )
        engine.query(STOCK_QUERY)
        workload.registry.get("erp").available = lambda: False
        served = engine.query(STOCK_QUERY)
        assert served.completeness.complete
        assert served.stats.remote_calls == 0
        assert served.stats.retries == 0
        assert served.stats.cache_counters()["fragment_cache_hits"] == 1

    def test_catalog_epoch_invalidates_entries(self):
        workload, engine = make_engine()
        engine.query(STOCK_QUERY)
        workload.catalog.map_relation("stock_again", "erp", "stock")
        refetched = engine.query(STOCK_QUERY)
        assert refetched.stats.remote_calls == 1
        assert refetched.stats.cache_counters()["fragment_cache_misses"] == 1

    def test_uncacheable_source_bypasses_cache(self):
        from dataclasses import replace

        workload, engine = make_engine()
        source = workload.registry.get("erp")
        source.capabilities = replace(source.capabilities, cacheable=False)
        engine.query(STOCK_QUERY)
        second = engine.query(STOCK_QUERY)
        assert second.stats.remote_calls == 1
        assert second.stats.cache_counters()["fragment_cache_hits"] == 0
        assert len(engine.fragment_cache) == 0

    def test_singleflight_dedups_within_wave(self):
        _, engine = make_engine(max_parallel_fetches=2)
        result = engine.query(DUPLICATE_QUERY)
        cache = result.stats.cache_counters()
        assert cache["singleflight_dedups"] == 1
        # the duplicate content fragment cost one call, not two
        assert result.stats.remote_calls == 2

    def test_serial_duplicate_hits_cache_instead(self):
        _, engine = make_engine(max_parallel_fetches=1)
        result = engine.query(DUPLICATE_QUERY)
        cache = result.stats.cache_counters()
        assert cache["singleflight_dedups"] == 0
        assert cache["fragment_cache_hits"] == 1
        assert result.stats.remote_calls == 2

    def test_duplicate_query_results_cache_invariant(self):
        baseline = make_engine(cache_bytes=0)[1].query(DUPLICATE_QUERY)
        for fan_out in (1, 2):
            cached = make_engine(max_parallel_fetches=fan_out)[1].query(
                DUPLICATE_QUERY
            )
            assert signature(cached) == signature(baseline)

    def test_batched_probes_share_cache_with_per_row(self):
        _, batched = make_engine(batch_size=8)
        _, per_row = make_engine(batch_size=1)
        first = batched.query(DEPENDENT_QUERY)
        warm = batched.query(DEPENDENT_QUERY)
        assert warm.stats.remote_calls < first.stats.remote_calls
        assert signature(warm) == signature(first)
        assert signature(per_row.query(DEPENDENT_QUERY)) == signature(first)

    def test_negative_budget_rejected(self):
        workload = make_website_workload(4, seed=1)
        with pytest.raises(ValueError):
            NimbleEngine(workload.catalog, fragment_cache_bytes=-1)

    def test_cache_disabled_by_default(self):
        workload = make_website_workload(4, seed=1)
        engine = NimbleEngine(workload.catalog)
        assert engine.fragment_cache is None
        assert engine.feedback is None


# -- transparency under every configuration ------------------------------------


class TestCacheTransparency:
    @given(cache_bytes=st.sampled_from([0, 4_096, 1 << 20]),
           fan_out=st.sampled_from([1, 4]),
           batch_size=st.sampled_from([1, 8]),
           repeats=st.integers(1, 3),
           seed=st.integers(0, 2))
    @settings(max_examples=20, deadline=None)
    def test_results_identical_cache_on_or_off(self, cache_bytes, fan_out,
                                               batch_size, repeats, seed):
        for query in (FANOUT_QUERY, DEPENDENT_QUERY, PAGE_RANGE_QUERY):
            _, bare = make_engine(cache_bytes=0, seed=seed)
            _, cached = make_engine(
                cache_bytes=cache_bytes, seed=seed,
                max_parallel_fetches=fan_out, batch_size=batch_size,
            )
            expected = bare.query(query)
            for _ in range(repeats):
                result = cached.query(query)
                assert signature(result) == signature(expected)
                assert (result.completeness.complete
                        == expected.completeness.complete)
                assert (result.completeness.missing_sources
                        == expected.completeness.missing_sources)

    def test_cold_counters_identical_to_cacheless(self):
        # a cache that never hits must be invisible to counters()
        _, bare = make_engine(cache_bytes=0)
        _, cached = make_engine()
        for query in (FANOUT_QUERY, DEPENDENT_QUERY):
            assert (cached.query(query).stats.counters()
                    == bare.query(query).stats.counters())

    def test_results_identical_under_faults(self):
        def build(cache_bytes):
            workload = make_website_workload(10, seed=5, extended=True)
            for name in ("erp", "logistics"):
                workload.registry.get(name).faults = FaultModel(
                    failure_rate=0.2, seed=17
                )
            return NimbleEngine(
                workload.catalog,
                fragment_cache_bytes=cache_bytes,
                resilience=ResiliencePolicy(
                    retry=RetryPolicy(max_attempts=6, base_backoff_ms=5.0),
                    breaker=None,
                ),
            )

        bare, cached = build(0), build(1 << 20)
        expected = bare.query(FANOUT_QUERY)
        for _ in range(3):
            result = cached.query(FANOUT_QUERY)
            assert signature(result) == signature(expected)
            assert result.completeness.complete

    def test_cache_counters_absorbed_but_not_in_counters(self):
        from repro.core.engine import EngineStats

        stats = EngineStats(fragment_cache_hits=2, singleflight_dedups=1)
        stats.absorb(EngineStats(fragment_cache_hits=3, containment_hits=4))
        assert stats.fragment_cache_hits == 5
        assert stats.containment_hits == 4
        assert stats.singleflight_dedups == 1
        assert "fragment_cache_hits" not in stats.counters()
        assert stats.cache_counters()["fragment_cache_hits"] == 5


# -- cache-aware planning and statistics feedback ------------------------------


class TestPlanningFeedback:
    def test_feedback_beats_folklore_selectivity(self):
        workload = make_website_workload(8, seed=3)
        source = workload.registry.get("erp")
        model = CostModel()
        fragment = make_fragment(
            conditions=(binop(">", var("p"), lit(100)),)
        )
        folklore = model.estimate_rows(fragment, source)
        feedback = StatisticsFeedback()
        feedback.observe(fragment, 3)
        model.bind_feedback(feedback)
        assert model.estimate_rows(fragment, source) == 3.0
        assert folklore != 3.0

    def test_feedback_is_ewma_not_last_write(self):
        feedback = StatisticsFeedback(alpha=0.5)
        fragment = make_fragment()
        feedback.observe(fragment, 100)
        feedback.observe(fragment, 0)
        assert feedback.rows_for(fragment) == 50.0
        assert feedback.updates == 2

    def test_engine_feeds_observations_back(self):
        _, engine = make_engine()
        result = engine.query(STOCK_QUERY)
        assert result.stats.cache_counters()["estimate_feedback_updates"] == 1
        # one fragment observed, with the actual (not folklore) row count
        assert len(engine.feedback) == 1
        assert list(engine.feedback._rows.values()) == [len(result.elements)]

    def test_residency_orders_cached_units_first(self):
        model = CostModel()
        cached_fragment = make_fragment(
            conditions=(binop(">", var("p"), lit(100)),)
        )
        cached_key = result_key(cached_fragment)
        model.bind_residency(
            lambda fragment: 5 if result_key(fragment) == cached_key else None
        )
        workload = make_website_workload(8, seed=3)
        source = workload.registry.get("erp")

        from repro.optimizer.decomposer import FragmentUnit

        huge_but_uncached = FragmentUnit(
            make_fragment(), source, ("s", "p")
        )
        small_cached = FragmentUnit(cached_fragment, source, ("s", "p"))
        builder = PlanBuilder(model)
        ordered = builder._order_units([huge_but_uncached, small_cached])
        assert ordered[0] is small_cached

    def test_loaded_view_ranks_by_actual_count(self):
        from types import SimpleNamespace

        clock = SimClock()

        class _View(SimpleNamespace):
            def is_fresh(self, now):
                return self.fresh

        materializer = SimpleNamespace(
            clock=clock,
            views={
                "loaded": _View(elements=["e"] * 7, fresh=True),
                "stale": _View(elements=["e"] * 7, fresh=False),
            },
        )
        builder = PlanBuilder(CostModel(), materializer=materializer)
        assert builder._loaded_view_size("loaded") == 7
        assert builder._loaded_view_size("stale") is None
        assert builder._loaded_view_size("never_loaded") is None


# -- monitoring ----------------------------------------------------------------


class TestCacheMonitor:
    def test_snapshot_reports_cache_health(self):
        from repro.admin import CacheMonitor

        _, engine = make_engine()
        engine.query(STOCK_QUERY)
        engine.query(STOCK_QUERY)
        snapshot = CacheMonitor(engine).snapshot()
        fragment = snapshot["fragment_cache"]
        assert fragment["entries"] == 1
        assert fragment["hits"] == 1
        assert fragment["by_source"] == {"erp": 1}
        assert 0 < fragment["fill_fraction"] < 1
        assert snapshot["plan_cache_hits"] == 1

    def test_snapshot_with_cache_disabled(self):
        from repro.admin import CacheMonitor

        _, engine = make_engine(cache_bytes=0)
        engine.query(STOCK_QUERY)
        snapshot = CacheMonitor(engine).snapshot()
        assert snapshot["fragment_cache"] is None
        assert CacheMonitor(engine).hot_sources() == []

    def test_hot_sources_ranked(self):
        from repro.admin import CacheMonitor

        _, engine = make_engine()
        engine.query(FANOUT_QUERY)
        hot = CacheMonitor(engine).hot_sources(top=2)
        assert len(hot) == 2
        assert all(count >= 1 for _, count in hot)
