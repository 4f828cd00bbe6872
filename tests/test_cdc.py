"""Change data capture and incremental view maintenance.

The load-bearing claim is the property test at the bottom: under random
insert/update/delete streams, a delta-maintained view's elements are
**bit-identical** to a full re-materialization of the same query —
across fragment caching on/off, injected faults on/off, and compared
against a sharded scatter-gather execution as well as the coordinator.
"""

from __future__ import annotations

import pytest

from repro.admin import FreshnessMonitor, ManagementConsole
from repro.algebra.tuples import BindingTuple
from repro.cdc import (
    ChangeLog,
    ChangeRecord,
    DeltaDistinct,
    DeltaGroups,
    DeltaJoin,
    DeltaSelect,
    DeltaUnsupported,
    RowDelta,
    diff_documents,
    fragment_patch,
    key_affected,
    patch_records,
)
from repro.core.engine import NimbleEngine, PartialResultPolicy
from repro.core.sharding import ShardRouter
from repro.materialize import MaterializationManager
from repro.mediator.catalog import Catalog
from repro.mediator.schema import MediatedSchema, ViewDef
from repro.query import ast as qast
from repro.query.exprs import compile_predicate
from repro.query.parser import parse_query
from repro.query.translate import template_to_construct
from repro.resilience import FaultModel, ResiliencePolicy, RetryPolicy
from repro.simtime import SimClock
from repro.sources.base import NetworkModel
from repro.sources.registry import SourceRegistry
from repro.sources.relational import RelationalSource
from repro.sources.sharding import partition_registry
from repro.sources.xmlfile import XMLSource
from repro.sql.database import Database
from repro.xmldm.parser import parse_document
from repro.xmldm.serializer import serialize

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False


# -- deployment builders ------------------------------------------------------


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
        "CONSTRUCT <g id=$g><n>count($v)</n><total>sum($v)</total>"
        "<mean>avg($v)</mean></g>",
    ))
    schema.define(ViewDef.from_text(
        # rows mode, root grouped by the key, plus a residual condition
        "keyed_rows",
        'WHERE <i><k>$k</k><grp>$g</grp><v>$v</v></i> IN "items", '
        "$v + 1 > 5 CONSTRUCT <r k=$k><g>$g</g><v>$v</v></r>",
    ))
    schema.define(ViewDef.from_text(
        # rows mode whose root groups by a non-key: whole-plan output
        "values_only",
        'WHERE <i><k>$k</k><grp>$g</grp><v>$v</v></i> IN "items" '
        "CONSTRUCT <r>$v</r>",
    ))
    schema.define(ViewDef.from_text(
        "group_extremes",
        'WHERE <i><k>$k</k><grp>$g</grp><v>$v</v></i> IN "items" '
        "CONSTRUCT <g id=$g><lo>min($v)</lo><hi>max($v)</hi></g>",
    ))
    catalog.add_schema(schema)
    manager = MaterializationManager(clock)
    engine = NimbleEngine(
        catalog, materializer=manager, incremental=True, **engine_kw
    )
    return engine, source


def fresh_elements(engine, name):
    """Full re-execution of a view's query, bypassing materialization."""
    resolved = engine.catalog.resolve(name)
    result = engine._execute(
        resolved.query, PartialResultPolicy.FAIL, frozenset()
    )
    return [serialize(element) for element in result.elements]


def maintained_elements(engine, name):
    return [serialize(element) for element in engine.incremental.views[name].elements]


def _retrying() -> ResiliencePolicy:
    return ResiliencePolicy(retry=RetryPolicy(max_attempts=8), breaker=None)


# -- changelog ----------------------------------------------------------------


class TestChangeLog:
    def test_sequences_are_dense_from_one(self):
        log = ChangeLog("s", SimClock())
        log.emit("insert", "t", key=1)
        log.emit("delete", "t", key=1)
        assert [record.seq for record in log.since(0)] == [1, 2]
        assert log.latest_seq == 2

    def test_since_slices_by_sequence(self):
        log = ChangeLog("s", SimClock())
        for key in range(5):
            log.emit("insert", "t", key=key)
        assert [record.key for record in log.since(3)] == [3, 4]
        assert log.since(5) == []
        assert len(log.since(0)) == 5

    def test_declared_keys(self):
        log = ChangeLog("s", SimClock())
        log.declare_key("t", "id")
        assert log.key_field("t") == "id"
        assert log.key_field("u") is None

    def test_invalid_op_rejected(self):
        with pytest.raises(ValueError):
            ChangeRecord(1, "upsert", "s", "t")

    def test_reset_record(self):
        log = ChangeLog("s", SimClock())
        log.emit_reset("t")
        assert log.since(0)[0].op == "reset"

    def test_timestamps_from_clock(self):
        clock = SimClock()
        log = ChangeLog("s", clock)
        clock.advance(125.0)
        log.emit("insert", "t", key=1)
        assert log.since(0)[0].at_ms == 125.0


# -- subtree hashes -----------------------------------------------------------


class TestSubtreeHash:
    DOC = "<r><a id='1'><x>1</x></a><a id='2'><x>2</x></a></r>"

    def test_equal_documents_equal_hashes(self):
        one = parse_document(self.DOC).root
        two = parse_document(self.DOC).root
        assert one.subtree_hash() == two.subtree_hash()

    def test_hash_is_memoized(self):
        root = parse_document(self.DOC).root
        root.subtree_hash()
        assert root._subtree_hash is not None

    def test_append_invalidates_ancestors(self):
        root = parse_document(self.DOC).root
        before = root.subtree_hash()
        child = parse_document("<a id='3'><x>3</x></a>").root
        root.append(child)
        assert root._subtree_hash is None
        assert root.subtree_hash() != before

    def test_text_mutation_invalidates_up_the_chain(self):
        root = parse_document(self.DOC).root
        before = root.subtree_hash()
        text = list(root.child_elements())[0].first_child("x").children[0]
        text.set_value("9")
        assert root.subtree_hash() != before

    def test_attribute_mutation_changes_hash(self):
        root = parse_document(self.DOC).root
        before = root.subtree_hash()
        list(root.child_elements())[0].set_attribute("id", "7")
        assert root.subtree_hash() != before

    def test_noop_attribute_set_keeps_cache(self):
        root = parse_document(self.DOC).root
        root.subtree_hash()
        list(root.child_elements())[0].set_attribute("id", "1")  # unchanged
        assert root._subtree_hash is not None


# -- document differ ----------------------------------------------------------


def _rows_doc(rows):
    body = "".join(
        f"<row><id>{k}</id><v>{v}</v></row>" for k, v in rows
    )
    return parse_document(f"<t>{body}</t>").root


class TestDiffer:
    def test_identical_documents_no_changes(self):
        assert diff_documents(_rows_doc([(1, "a")]), _rows_doc([(1, "a")]),
                              "id") == []

    def test_update_detected(self):
        changes = diff_documents(
            _rows_doc([(1, "a"), (2, "b")]),
            _rows_doc([(1, "a"), (2, "B")]), "id",
        )
        assert [(c.op, c.key) for c in changes] == [("update", "2")]

    def test_append_is_insert(self):
        changes = diff_documents(
            _rows_doc([(1, "a")]), _rows_doc([(1, "a"), (2, "b")]), "id"
        )
        assert [(c.op, c.key) for c in changes] == [("insert", "2")]

    def test_delete_detected(self):
        changes = diff_documents(
            _rows_doc([(1, "a"), (2, "b")]), _rows_doc([(2, "b")]), "id"
        )
        assert [(c.op, c.key) for c in changes] == [("delete", "1")]

    def test_mid_document_insert_is_reset(self):
        changes = diff_documents(
            _rows_doc([(1, "a"), (3, "c")]),
            _rows_doc([(1, "a"), (2, "b"), (3, "c")]), "id",
        )
        assert [c.op for c in changes] == ["reset"]

    def test_reorder_is_reset(self):
        changes = diff_documents(
            _rows_doc([(1, "a"), (2, "b")]),
            _rows_doc([(2, "b"), (1, "a")]), "id",
        )
        assert [c.op for c in changes] == ["reset"]

    def test_duplicate_keys_reset(self):
        changes = diff_documents(
            _rows_doc([(1, "a")]), _rows_doc([(1, "a"), (1, "b")]), "id"
        )
        assert [c.op for c in changes] == ["reset"]

    def test_root_tag_change_reset(self):
        new = parse_document("<u><row><id>1</id></row></u>").root
        changes = diff_documents(_rows_doc([(1, "a")]), new, "id")
        assert [c.op for c in changes] == ["reset"]


# -- delta operators ----------------------------------------------------------


def _row(**kw):
    return BindingTuple(kw)


class TestDeltaOperators:
    def test_select_flips(self):
        predicate = compile_predicate(
            qast.BinOp(">", qast.Var("v"), qast.Literal(5))
        )
        select = DeltaSelect(predicate)
        flip_in = select.apply_delta(
            [RowDelta("update", row=_row(v=9), before=_row(v=1))]
        )
        assert [d.op for d in flip_in] == ["insert"]
        flip_out = select.apply_delta(
            [RowDelta("update", row=_row(v=1), before=_row(v=9))]
        )
        assert [d.op for d in flip_out] == ["delete"]
        dropped = select.apply_delta(
            [RowDelta("insert", row=_row(v=1))]
        )
        assert dropped == []

    def test_distinct_retraction_with_survivors_unsupported(self):
        distinct = DeltaDistinct()
        distinct.observe(_row(a=1))
        distinct.observe(_row(a=1))
        with pytest.raises(DeltaUnsupported):
            # one duplicate survives: emitting a delete would be wrong,
            # emitting nothing leaves the count wrong — punt to rebuild
            distinct.apply_delta([RowDelta("delete", before=_row(a=1))])

    def test_distinct_last_copy_deletes(self):
        distinct = DeltaDistinct()
        distinct.observe(_row(a=1))
        out = distinct.apply_delta([RowDelta("delete", before=_row(a=1))])
        assert [d.op for d in out] == ["delete"]

    def test_join_pairs_updates(self):
        join = DeltaJoin([_row(k=1, extra="x")], ("k",))
        out = join.apply_delta([RowDelta("insert", row=_row(k=1, v=2))])
        assert out[0].row.get("extra") == "x"

    def test_groups_count_sum_avg_exact(self):
        template = template_to_construct(parse_query(
            'WHERE <i><g>$g</g><v>$v</v></i> IN "x" '
            "CONSTRUCT <r id=$g><n>count($v)</n><s>sum($v)</s>"
            "<m>avg($v)</m></r>"
        ).construct)
        groups = DeltaGroups(template)
        base = [_row(g=1, v=10), _row(g=1, v=20), _row(g=2, v=5)]
        for row in base:
            groups.observe(row)
        groups.apply_delta([
            RowDelta("update", row=_row(g=1, v=30), before=_row(g=1, v=10)),
            RowDelta("delete", before=_row(g=2, v=5)),
            RowDelta("insert", row=_row(g=2, v=7)),
        ])
        maintained = [serialize(e) for e in groups.finalize(
            [_row(g=1, v=30), _row(g=1, v=20), _row(g=2, v=7)]
        )]
        recomputed = DeltaGroups(template)
        final = [_row(g=1, v=30), _row(g=1, v=20), _row(g=2, v=7)]
        for row in final:
            recomputed.observe(row)
        assert maintained == [serialize(e) for e in recomputed.finalize(final)]

    def test_min_retraction_of_extreme_unsupported(self):
        template = template_to_construct(parse_query(
            'WHERE <i><g>$g</g><v>$v</v></i> IN "x" '
            "CONSTRUCT <r id=$g><lo>min($v)</lo></r>"
        ).construct)
        groups = DeltaGroups(template)
        groups.observe(_row(g=1, v=3))
        groups.observe(_row(g=1, v=8))
        with pytest.raises(DeltaUnsupported):
            groups.apply_delta([RowDelta("delete", before=_row(g=1, v=3))])

    def test_min_retraction_of_non_extreme_fine(self):
        template = template_to_construct(parse_query(
            'WHERE <i><g>$g</g><v>$v</v></i> IN "x" '
            "CONSTRUCT <r id=$g><lo>min($v)</lo></r>"
        ).construct)
        groups = DeltaGroups(template)
        groups.observe(_row(g=1, v=3))
        groups.observe(_row(g=1, v=8))
        groups.apply_delta([RowDelta("delete", before=_row(g=1, v=8))])
        out = groups.finalize([_row(g=1, v=3)])
        assert serialize(out[0]) == '<r id="1"><lo>3</lo></r>'


# -- change scoping -----------------------------------------------------------


def _condition(op, var, value):
    return qast.BinOp(op, qast.Var(var), qast.Literal(value))


class TestScope:
    def test_key_affected_range_exclusion(self):
        conditions = [_condition("<", "k", 10)]
        assert not key_affected(conditions, "k", 15)
        assert key_affected(conditions, "k", 5)

    def test_key_affected_unordered_key_conservative(self):
        assert key_affected([_condition("<", "k", 10)], "k", True)

    def test_patch_records_insert_appends(self):
        from repro.cdc import FragmentPatch, KeyedRecords
        from repro.xmldm.values import Record

        records = KeyedRecords([Record({"k": 1, "v": 2})])
        patch = FragmentPatch("insert", "k", 5, rows=(Record({"k": 5, "v": 9}),))
        assert patch_records(records, patch) is not None
        assert records.records()[-1].get("k") == 5

    def test_patch_records_flip_in_unpatchable(self):
        from repro.cdc import FragmentPatch, KeyedRecords
        from repro.xmldm.values import Record

        records = KeyedRecords([Record({"k": 1, "v": 2})])
        patch = FragmentPatch("update", "k", 5, rows=(Record({"k": 5, "v": 9}),))
        assert patch_records(records, patch) is None

    def test_patch_records_flip_out_deletes_in_place(self):
        from repro.cdc import FragmentPatch, KeyedRecords
        from repro.xmldm.values import Record

        records = KeyedRecords([Record({"k": 1, "v": 2}), Record({"k": 5, "v": 3})])
        patch = FragmentPatch("update", "k", 5, rows=())
        assert patch_records(records, patch) is not None
        patched = records.records()
        assert [record.get("k") for record in patched] == [1]


# -- keyed patching against the list algorithm ---------------------------------


def reference_patch(records, patch):
    """The list-scanning patch the keyed store replaced, kept as oracle."""
    positions = [
        index
        for index, record in enumerate(records)
        if record.get(patch.key_var) == patch.key
    ]
    if patch.op == "insert":
        if positions:
            return None
        return records + list(patch.rows)
    if patch.op == "update" and not positions:
        return list(records) if not patch.rows else None
    if patch.op == "delete" or not patch.rows:
        keep = set(positions)
        return [r for i, r in enumerate(records) if i not in keep]
    if len(positions) != len(patch.rows):
        return None
    patched = list(records)
    for index, row in zip(positions, patch.rows):
        patched[index] = row
    return patched


def representable(records, key_var="k") -> bool:
    """Can the list be held as contiguous key runs?  (NaN equals nothing.)"""
    runs = []
    for record in records:
        key = record.get(key_var)
        try:
            hash(key)
        except TypeError:
            return False
        if key != key:
            runs.append(key)  # a run of its own, never extended
            continue
        if runs and runs[-1] == key:
            continue
        if any(prev == key for prev in runs):
            return False
        runs.append(key)
    return True


def _ids(records):
    return [id(record) for record in records]


def reference_key_affected(conditions, key_var, key):
    """key_affected as it was: two implies() calls per condition."""
    from repro.materialize.matching import implies

    if not isinstance(key, (int, float, str)) or isinstance(key, bool):
        return True
    var, literal = qast.Var(key_var), qast.Literal(key)
    return not any(
        implies(condition, qast.BinOp("<", var, literal))
        or implies(condition, qast.BinOp(">", var, literal))
        for condition in conditions
    )


if HAVE_HYPOTHESIS:
    from repro.cdc import FragmentPatch, KeyBounds, KeyedRecords
    from repro.cache.fragmentcache import estimate_result_bytes, record_bytes
    from repro.xmldm.values import NULL, Collection, Record

    NAN = float("nan")
    #: each key with the values equal to it (rows of a patch carry one)
    KEY_CLASSES = {
        "one": (1, 1.0, True),
        "text-one": ("1",),
        "two": (2, 2.0),
        "nan": (NAN, float("nan")),
        "null": (NULL,),
        "unhashable": (Collection([1]),),
    }
    KEY_VALUES = st.sampled_from(
        [value for values in KEY_CLASSES.values() for value in values]
        + [0, 3, "a"]
    )

    @st.composite
    def keyed_lists(draw):
        keys = draw(st.lists(KEY_VALUES, max_size=8))
        fanout = draw(st.lists(st.integers(1, 2), min_size=len(keys),
                               max_size=len(keys)))
        return [
            Record({"k": key, "v": f"{index}.{n}"})
            for index, (key, count) in enumerate(zip(keys, fanout))
            for n in range(count)
        ]

    @st.composite
    def patches(draw):
        key = draw(st.sampled_from(
            [values[0] for values in KEY_CLASSES.values()] + [0, 3, "a"]
        ))
        same = next((values for values in KEY_CLASSES.values()
                     if key in values or key is values[0]), (key,))
        n_rows = draw(st.integers(0, 2))
        rows = tuple(
            Record({"k": draw(st.sampled_from(same)), "v": f"p{n}"})
            for n in range(n_rows)
        )
        op = draw(st.sampled_from(["insert", "update", "delete"]))
        if op == "delete":
            return FragmentPatch(op, "k", key, before_rows=rows)
        return FragmentPatch(op, "k", key, rows=rows)

    CONDITION_VARS = st.sampled_from(["k", "v"])
    LITERALS = st.one_of(
        st.integers(-3, 3), st.sampled_from([0.5, 2.0, NAN, True]),
        st.sampled_from(["a", "b", ""]),
    )

    def _leaf_condition(draw):
        op = draw(st.sampled_from(["<", "<=", ">", ">=", "=", "!="]))
        var = qast.Var(draw(CONDITION_VARS))
        literal = qast.Literal(draw(LITERALS))
        if draw(st.booleans()):
            return qast.BinOp(op, literal, var)
        return qast.BinOp(op, var, literal)

    @st.composite
    def conditions(draw, depth=2):
        if depth and draw(st.integers(0, 2)) == 0:
            return qast.BinOp(
                draw(st.sampled_from(["AND", "OR"])),
                draw(conditions(depth - 1)), draw(conditions(depth - 1)),
            )
        return _leaf_condition(draw)


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
class TestKeyedPatchProperty:
    """The keyed store patches exactly like the list algorithm it replaced."""

    @given(records=keyed_lists() if HAVE_HYPOTHESIS else None,
           stream=st.lists(patches(), min_size=1, max_size=6)
           if HAVE_HYPOTHESIS else None)
    @settings(max_examples=400, deadline=None)
    def test_keyed_patch_matches_list_algorithm(self, records, stream):
        store = KeyedRecords(records)
        size = estimate_result_bytes(records)
        for patch in stream:
            before = list(store.records())
            want = reference_patch(before, patch)
            got = patch_records(store, patch)
            if got is None:
                # declines only where the list algorithm refuses too, or
                # where a list (before or after) has no keyed form
                assert want is None or not representable(before) or (
                    not representable(want)
                )
                assert _ids(store.records()) == _ids(before)  # untouched
                if want is not None:
                    return  # the owner evicts / rebuilds from here
                continue
            assert want is not None
            assert _ids(store.records()) == _ids(want)
            assert len(store) == len(want)
            removed, added = got
            assert sorted(_ids(before) + _ids(added)) == sorted(
                _ids(want) + _ids(removed)
            )
            size += sum(map(record_bytes, added)) - sum(
                map(record_bytes, removed)
            )
            assert size == estimate_result_bytes(store.records())

    @given(conds=st.lists(conditions(), max_size=3) if HAVE_HYPOTHESIS
           else None,
           key=st.one_of(st.integers(-4, 4), st.floats(-4, 4),
                         st.sampled_from([NAN, True, None, "a", "b", "ab"]))
           if HAVE_HYPOTHESIS else None,
           var=CONDITION_VARS if HAVE_HYPOTHESIS else None)
    @settings(max_examples=400, deadline=None)
    def test_key_bounds_decide_like_implies(self, conds, key, var):
        assert KeyBounds(conds).affected(var, key) == reference_key_affected(
            conds, var, key
        )


# -- scoped cache invalidation ------------------------------------------------


class TestScopedCacheInvalidation:
    LOW = ('WHERE <i><k>$k</k><v>$v</v></i> IN "items", $k < 8 '
           "CONSTRUCT <r>$k</r>")
    HIGH = ('WHERE <i><k>$k</k><v>$v</v></i> IN "items", $k > 12 '
            "CONSTRUCT <r>$k</r>")

    def test_disjoint_range_entry_retained(self):
        engine, source = build_deployment(
            seeded_rows(20), fragment_cache_bytes=1 << 20
        )
        engine.query(self.LOW)
        engine.query(self.HIGH)
        source.update_row("t", 2, {"v": 99})
        report = engine.sync_changes()
        # the $k > 12 entry provably excludes key 2: retained, not evicted
        assert report["cache_retained"] >= 1
        assert report["cache_evicted"] == 0
        # the retained entry still serves
        cached = engine.query(self.HIGH)
        assert cached.stats.cache_counters()["fragment_cache_hits"] == 1

    def test_epoch_is_not_bumped_by_data_changes(self):
        engine, source = build_deployment(seeded_rows(8))
        before = engine.catalog.version
        source.insert_row("t", {"k": 100, "grp": 0, "v": 1})
        engine.sync_changes()
        assert engine.catalog.version == before

    def test_patched_entry_serves_fresh_rows(self):
        engine, source = build_deployment(
            seeded_rows(10), fragment_cache_bytes=1 << 20
        )
        engine.query(self.LOW)
        source.update_row("t", 2, {"v": 77})
        report = engine.sync_changes()
        assert report["cache_patched"] >= 1
        result = engine.query(
            'WHERE <i><k>$k</k><v>$v</v></i> IN "items", $k < 8, $k = 2 '
            "CONSTRUCT <r>$v</r>"
        )
        assert [e.text_content() for e in result.elements] == ["77"]

    def test_reset_evicts(self):
        engine, source = build_deployment(
            seeded_rows(10), fragment_cache_bytes=1 << 20
        )
        engine.query(self.LOW)
        source.changelog.emit_reset("t")
        report = engine.sync_changes()
        assert report["cache_evicted"] >= 1


class TestScopedStoreInvalidation:
    BIG = ('WHERE <i><k>$k</k><grp>$g</grp><v>$v</v></i> IN "items", '
           "$v > 5 CONSTRUCT <r>$k</r>")

    def _materialized(self, rows):
        engine, source = build_deployment(rows)
        fragment = engine._compile(parse_query(self.BIG)).units[0].fragment
        view = engine.materializer.materialize(fragment, source.execute)
        return engine, source, view

    def test_patch_in_place(self):
        rows = seeded_rows(12)
        engine, source, view = self._materialized(rows)
        inside = next(k for (k, _, v) in rows if v > 5)
        source.update_row("t", inside, {"v": 50})
        report = engine.sync_changes()
        assert report["store_patched"] == 1
        assert not view.invalidated
        assert view.records == source.execute(view.fragment)

    def test_invalidated_view_stays_invalidated(self):
        rows = seeded_rows(12)
        engine, source, view = self._materialized(rows)
        outside = next(k for (k, _, v) in rows if v <= 5)
        inside = next(k for (k, _, v) in rows if v > 5)
        source.update_row("t", outside, {"v": 40})  # flips in: unpatchable
        assert engine.sync_changes()["store_invalidated"] == 1
        source.update_row("t", inside, {"v": 50})  # patchable on its own
        report = engine.sync_changes()
        assert report["store_patched"] == 0
        assert view.invalidated  # still missing the flipped-in row


# -- incremental maintenance (deterministic) ----------------------------------


class TestIncrementalMaintenance:
    def test_modes_classified(self):
        engine, _ = build_deployment(seeded_rows(10))
        assert engine.maintain_view("big_items").mode == "rows"
        assert engine.maintain_view("by_group").mode == "groups"

    def test_delta_refresh_bit_identical(self):
        engine, source = build_deployment(seeded_rows(12))
        for name in ("big_items", "by_group", "group_extremes"):
            engine.maintain_view(name)
        source.insert_row("t", {"k": 50, "grp": 1, "v": 9})
        source.delete_row("t", 3)
        source.update_row("t", 5, {"v": 21})
        engine.sync_changes()
        for name in ("big_items", "by_group", "group_extremes"):
            assert maintained_elements(engine, name) == fresh_elements(
                engine, name
            ), name

    def test_delta_path_actually_taken(self):
        engine, source = build_deployment(seeded_rows(12))
        engine.maintain_view("by_group")
        source.insert_row("t", {"k": 50, "grp": 1, "v": 9})
        report = engine.sync_changes()
        assert report["views"]["by_group"] == "delta"
        assert engine.cdc_stats.views_delta_refreshed == 1
        assert engine.cdc_stats.views_full_rebuilt == 0

    def test_flip_in_falls_back_to_rebuild(self):
        engine, source = build_deployment(seeded_rows(12))
        engine.maintain_view("big_items")
        low = next(  # a row currently outside the $v > 5 view
            k for (k, _, v) in seeded_rows(12) if v <= 5
        )
        source.update_row("t", low, {"v": 100})
        report = engine.sync_changes()
        assert report["views"]["big_items"] == "rebuild"
        assert maintained_elements(engine, "big_items") == fresh_elements(
            engine, "big_items"
        )

    def test_epoch_change_forces_rebuild(self):
        engine, source = build_deployment(seeded_rows(8))
        engine.maintain_view("big_items")
        engine.catalog.map_relation("extra", "s", "t")  # bumps the epoch
        source.insert_row("t", {"k": 60, "grp": 0, "v": 30})
        report = engine.sync_changes()
        assert report["views"]["big_items"] == "rebuild"
        assert maintained_elements(engine, "big_items") == fresh_elements(
            engine, "big_items"
        )

    def test_served_through_manager(self):
        engine, source = build_deployment(seeded_rows(10))
        engine.maintain_view("big_items")
        source.insert_row("t", {"k": 70, "grp": 2, "v": 8})
        engine.sync_changes()
        served = engine.materializer.serve_view("big_items")
        assert served is not None
        assert [serialize(e) for e in served] == fresh_elements(
            engine, "big_items"
        )

    def test_in_sync_refresh_is_noop(self):
        engine, _ = build_deployment(seeded_rows(8))
        engine.maintain_view("big_items")
        report = engine.sync_changes()
        assert report["views"] == {}
        assert report["changes"] == 0

    def test_xml_view_maintained_via_differ(self):
        clock = SimClock()
        registry = SourceRegistry(clock)
        xml = XMLSource(
            "x",
            {"rows": "<t><row><id>1</id><v>3</v></row>"
                     "<row><id>2</id><v>8</v></row></t>"},
            network=NetworkModel(latency_ms=10.0),
        )
        registry.register(xml)
        xml.enable_cdc({"rows": "id"})
        catalog = Catalog(registry)
        schema = MediatedSchema("m")
        schema.define(ViewDef.from_text(
            "all_rows",
            'WHERE <row><id>$i</id><v>$v</v></row> IN "x.rows" '
            "CONSTRUCT <o><i>$i</i><v>$v</v></o>",
        ))
        catalog.add_schema(schema)
        engine = NimbleEngine(
            catalog, materializer=MaterializationManager(clock),
            incremental=True,
        )
        view = engine.maintain_view("all_rows")
        assert view.mode == "rows"
        xml.replace_document(
            "rows",
            "<t><row><id>1</id><v>9</v></row>"
            "<row><id>2</id><v>8</v></row>"
            "<row><id>3</id><v>4</v></row></t>",
        )
        report = engine.sync_changes()
        assert report["views"]["all_rows"] == "delta"
        assert maintained_elements(engine, "all_rows") == fresh_elements(
            engine, "all_rows"
        )


# -- freshness monitoring -----------------------------------------------------


class TestFreshness:
    def test_lag_counts_pending_changes(self):
        engine, source = build_deployment(seeded_rows(8))
        engine.maintain_view("big_items")
        monitor = FreshnessMonitor(engine)
        assert monitor.snapshot()["views"]["big_items"]["seq_lag"] == 0
        engine.clock.advance(500.0)
        source.insert_row("t", {"k": 90, "grp": 0, "v": 9})
        engine.clock.advance(250.0)
        snapshot = monitor.snapshot()
        view = snapshot["views"]["big_items"]
        assert view["seq_lag"] == 1
        assert view["staleness_ms"] == 250.0
        engine.sync_changes()
        assert monitor.worst_staleness_ms() == 0.0

    def test_console_renders_freshness_section(self):
        engine, source = build_deployment(seeded_rows(8))
        engine.maintain_view("by_group")
        source.insert_row("t", {"k": 90, "grp": 0, "v": 9})
        engine.sync_changes()
        console = ManagementConsole(
            engine, freshness_monitor=FreshnessMonitor(engine)
        )
        text = console.render()
        assert "incremental maintenance: on" in text
        assert "by_group [groups]: in sync" in text
        report = console.system_report()
        assert report["freshness"]["counters"]["views_delta_refreshed"] == 1


# -- the bit-identity property ------------------------------------------------


def _apply_ops(source, ops):
    """Interpret an op stream against the relational source, via CDC DML."""
    live = {row[0] for rowid, row in source.database.table("t").scan()}
    next_key = (max(live) + 1) if live else 0
    for kind, pick, grp, v in ops:
        keys = sorted(live)
        if kind == "insert" or not keys:
            source.insert_row("t", {"k": next_key, "grp": grp, "v": v})
            live.add(next_key)
            next_key += 1
        elif kind == "update":
            key = keys[pick % len(keys)]
            source.update_row("t", key, {"grp": grp, "v": v})
        else:
            key = keys[pick % len(keys)]
            source.delete_row("t", key)
            live.discard(key)


VIEW_NAMES = ("big_items", "by_group", "group_extremes", "keyed_rows")

OPS = st.lists(
    st.tuples(
        st.sampled_from(["insert", "update", "delete"]),
        st.integers(0, 99),
        st.integers(0, 4),
        st.integers(0, 22),
    ),
    min_size=1,
    max_size=12,
)


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
class TestBitIdentityProperty:
    @given(
        n_rows=st.integers(2, 24),
        seed=st.integers(1, 50),
        batches=st.lists(OPS, min_size=1, max_size=3),
        cache=st.booleans(),
        faulty=st.booleans(),
        sharded=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_maintained_equals_full_rematerialization(
        self, n_rows, seed, batches, cache, faulty, sharded
    ):
        kwargs = dict(fragment_cache_bytes=300_000 if cache else 0)
        if faulty:
            kwargs["resilience"] = _retrying()
        faults = FaultModel(failure_rate=0.08, seed=seed) if faulty else None
        engine, source = build_deployment(seeded_rows(n_rows, seed), faults,
                                          **kwargs)
        for name in VIEW_NAMES:
            engine.maintain_view(name)
        for ops in batches:
            _apply_ops(source, ops)
            engine.sync_changes()
            for name in VIEW_NAMES:
                assert maintained_elements(engine, name) == fresh_elements(
                    engine, name
                ), name
            if cache:
                # patched entries moved their size by the patched
                # records' bytes only: still the full estimate
                from repro.cache.fragmentcache import estimate_result_bytes

                cache_ = engine.fragment_cache
                for entry in cache_._entries.values():
                    assert entry.size_bytes == estimate_result_bytes(
                        entry.rows.records()
                    )
                assert cache_.current_bytes == sum(
                    entry.size_bytes for entry in cache_._entries.values()
                )
        if sharded:
            # the maintained answer also matches a sharded scatter-gather
            # execution over a fresh partition of the mutated data
            deployment = partition_registry(
                engine.catalog.registry, {"s": "k"}, 2
            )
            router = ShardRouter(engine, deployment)
            for name in VIEW_NAMES:
                resolved = engine.catalog.resolve(name)
                routed = router.query(resolved.query)
                assert maintained_elements(engine, name) == [
                    serialize(e) for e in routed.elements
                ], name


# -- per-key view output --------------------------------------------------------


def xml_rows_document(rows) -> str:
    """<t><row><id>..</id><tag>..</tag>*</row>*</t> from (id, tags) pairs."""
    return "<t>" + "".join(
        f"<row><id>{key}</id>" + "".join(f"<tag>{tag}</tag>" for tag in tags)
        + "</row>"
        for key, tags in rows
    ) + "</t>"


def build_xml_deployment(rows):
    clock = SimClock()
    registry = SourceRegistry(clock)
    xml = XMLSource("x", {"rows": xml_rows_document(rows)},
                    network=NetworkModel(latency_ms=10.0))
    registry.register(xml)
    xml.enable_cdc({"rows": "id"})
    catalog = Catalog(registry)
    schema = MediatedSchema("m")
    schema.define(ViewDef.from_text(
        # one row fans out to a record per tag; the root groups by $i
        "tagged",
        'WHERE <row><id>$i</id><tag>$t</tag></row> IN "x.rows" '
        "CONSTRUCT <o id=$i><t>$t</t></o>",
    ))
    schema.define(ViewDef.from_text(
        "tags_only",
        'WHERE <row><id>$i</id><tag>$t</tag></row> IN "x.rows" '
        "CONSTRUCT <o>$t</o>",
    ))
    catalog.add_schema(schema)
    engine = NimbleEngine(catalog, materializer=MaterializationManager(clock),
                          incremental=True)
    return engine, xml


if HAVE_HYPOTHESIS:
    XML_ROWS = st.lists(
        st.tuples(st.integers(0, 9),
                  st.lists(st.sampled_from(["a", "b", "c"]), max_size=3)),
        max_size=6,
        unique_by=lambda row: row[0],
    )


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
class TestPerKeyOutputProperty:
    """Per-key element runs concatenate to exactly the whole plan's output."""

    @given(n_rows=st.integers(2, 20), seed=st.integers(1, 50),
           batches=st.lists(OPS, min_size=1, max_size=3)
           if HAVE_HYPOTHESIS else None)
    @settings(max_examples=30, deadline=None)
    def test_relational_per_key_equals_whole_plan(self, n_rows, seed, batches):
        engine, source = build_deployment(seeded_rows(n_rows, seed))
        names = ("keyed_rows", "big_items", "values_only")
        for name in names:
            engine.maintain_view(name)
        views = engine.incremental.views
        for ops in batches:
            _apply_ops(source, ops)
            engine.sync_changes()
            for name in names:
                assert maintained_elements(engine, name) == fresh_elements(
                    engine, name
                ), name
            assert views["keyed_rows"].runs is not None
            assert views["values_only"].runs is None

    @given(versions=st.lists(XML_ROWS, min_size=2, max_size=4)
           if HAVE_HYPOTHESIS else None)
    @settings(max_examples=30, deadline=None)
    def test_xml_fanout_per_key_equals_whole_plan(self, versions):
        engine, xml = build_xml_deployment(versions[0])
        for name in ("tagged", "tags_only"):
            engine.maintain_view(name)
        assert engine.incremental.views["tagged"].runs is not None
        assert engine.incremental.views["tags_only"].runs is None
        for rows in versions[1:]:
            xml.replace_document("rows", xml_rows_document(rows))
            engine.sync_changes()
            for name in ("tagged", "tags_only"):
                assert maintained_elements(engine, name) == fresh_elements(
                    engine, name
                ), name


# -- sum/avg over non-numeric text ----------------------------------------------


def build_text_deployment(rows):
    """A CDC table whose aggregated column is TEXT, mixed numeric/not."""
    db = Database()
    db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, grp INTEGER, v TEXT)")
    db.insert_rows("t", rows)
    clock = SimClock()
    registry = SourceRegistry(clock)
    source = RelationalSource("s", db, network=NetworkModel(latency_ms=5.0))
    registry.register(source)
    source.enable_cdc()
    catalog = Catalog(registry)
    catalog.map_relation("items", "s", "t")
    schema = MediatedSchema("m")
    schema.define(ViewDef.from_text(
        "text_totals",
        'WHERE <i><k>$k</k><grp>$g</grp><v>$v</v></i> IN "items" '
        "CONSTRUCT <g id=$g><n>count($v)</n><total>sum($v)</total>"
        "<mean>avg($v)</mean></g>",
    ))
    catalog.add_schema(schema)
    engine = NimbleEngine(catalog, materializer=MaterializationManager(clock),
                          incremental=True)
    return engine, source


class TestNonNumericAggregates:
    ROWS = [(1, 0, "5"), (2, 0, "abc"), (3, 0, "2.5"), (4, 1, "x"),
            (5, 1, None), (7, 2, "3"), (8, 2, "")]

    def test_query_skips_non_numeric_text(self):
        engine, _ = build_text_deployment(self.ROWS)
        result = engine.query('WHERE <i><grp>$g</grp><v>$v</v></i> IN "items" '
                              "CONSTRUCT <g id=$g><total>sum($v)</total>"
                              "<mean>avg($v)</mean><n>count($v)</n></g>")
        texts = [serialize(e) for e in result.elements][:2]
        # "abc" is skipped like NULL: avg divides by the two summed values
        assert texts[0] == ('<g id="0"><total>7.5</total><mean>3.75</mean>'
                            "<n>3</n></g>")
        # nothing summable: sum and avg are NULL (empty), count still counts
        assert texts[1] == '<g id="1"><total/><mean/><n>1</n></g>'

    def test_maintained_view_stays_bit_identical(self):
        engine, source = build_text_deployment(self.ROWS)
        engine.maintain_view("text_totals")
        assert maintained_elements(engine, "text_totals") == fresh_elements(
            engine, "text_totals"
        )
        # integer-valued text only where a value is retracted: float
        # retraction has its own last-ulp caveat (see repro.cdc.delta)
        source.update_row("t", 7, {"v": "abc"})
        source.update_row("t", 8, {"v": "4"})
        source.update_row("t", 4, {"v": "n/a"})
        source.insert_row("t", {"k": 6, "grp": 1, "v": "7"})
        source.insert_row("t", {"k": 9, "grp": 2, "v": "?"})
        source.delete_row("t", 2)
        report = engine.sync_changes()
        assert report["views"]["text_totals"] == "delta"
        assert maintained_elements(engine, "text_totals") == fresh_elements(
            engine, "text_totals"
        )
