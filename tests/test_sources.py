"""Unit tests for the source wrapper layer."""

import pytest

from repro.algebra import AttributePattern, TreePattern
from repro.errors import CapabilityError, SourceError, SourceUnavailableError
from repro.query import ast as qast
from repro.simtime import SimClock
from repro.sources import (
    Access,
    AvailabilityModel,
    DirectoryEntry,
    FlakySource,
    Fragment,
    HierarchicalSource,
    NetworkModel,
    SourceRegistry,
    XMLSource,
)
from repro.sources.base import CapabilityProfile
from repro.sources.relational import RelationalSource
from repro.sources.sqlgen import generate_sql
from repro.xmldm.values import NULL

from .conftest import BOOKS_XML, build_crm_database


def flat_pattern(relation, **vars_to_fields):
    children = tuple(
        TreePattern(field, text_var=var) for var, field in vars_to_fields.items()
    )
    return TreePattern(relation, children=children)


def condition(op, var, value):
    return qast.BinOp(op, qast.Var(var), qast.Literal(value))


class TestCapabilityProfile:
    def test_accepts_simple_comparison(self):
        profile = CapabilityProfile(selections=True)
        assert profile.accepts_condition(condition("=", "x", 1))

    def test_rejects_when_no_selections(self):
        profile = CapabilityProfile(selections=False)
        assert not profile.accepts_condition(condition("=", "x", 1))

    def test_rejects_unsupported_operator(self):
        profile = CapabilityProfile(
            selections=True, condition_ops=frozenset({"="})
        )
        assert not profile.accepts_condition(condition(">", "x", 1))

    def test_rejects_function_calls(self):
        profile = CapabilityProfile(selections=True)
        call = qast.BinOp("=", qast.Call("upper", (qast.Var("x"),)), qast.Literal("A"))
        assert not profile.accepts_condition(call)

    def test_nested_and(self):
        profile = CapabilityProfile(selections=True)
        expr = qast.BinOp("AND", condition("=", "x", 1), condition(">", "y", 2))
        assert profile.accepts_condition(expr)


class TestNetworkModel:
    def test_charges_clock(self):
        clock = SimClock()
        network = NetworkModel(latency_ms=10.0, per_row_ms=2.0)
        network.charge_call(clock)
        network.charge_rows(clock, 5)
        assert clock.now == 20.0
        assert network.calls == 1
        assert network.rows_transferred == 5

    def test_reset_counters(self):
        network = NetworkModel()
        network.calls = 3
        network.reset_counters()
        assert network.calls == 0


class TestSQLGeneration:
    def test_single_access_projection(self):
        fragment = Fragment("s", (Access("customers",
                                         flat_pattern("customers", n="name")),))
        generated = generate_sql(fragment)
        assert generated.text == "SELECT t0.name AS n FROM customers t0"

    def test_conditions_and_literals(self):
        pattern = TreePattern(
            "customers",
            children=(
                TreePattern("name", text_var="n"),
                TreePattern("city", text_literal="Seattle"),
            ),
        )
        fragment = Fragment(
            "s", (Access("customers", pattern),),
            conditions=(condition(">", "n", "M"),),
        )
        text = generate_sql(fragment).text
        assert "t0.city = 'Seattle'" in text
        assert "(t0.name > 'M')" in text

    def test_shared_variable_becomes_join(self):
        fragment = Fragment(
            "s",
            (
                Access("customers", flat_pattern("customers", k="id", n="name")),
                Access("orders", flat_pattern("orders", k="cust_id", t="total")),
            ),
        )
        text = generate_sql(fragment).text
        assert "t0.id = t1.cust_id" in text
        assert "FROM customers t0, orders t1" in text

    def test_input_vars_become_params(self):
        fragment = Fragment(
            "s",
            (Access("t", flat_pattern("t", a="x")),),
            conditions=(qast.BinOp("=", qast.Var("a"), qast.Var("p")),),
            input_vars=("p",),
        )
        generated = generate_sql(fragment)
        assert "?" in generated.text
        assert generated.param_order == ("p",)
        assert generated.bind({"p": 5}) == [5]

    def test_string_escaping(self):
        pattern = TreePattern(
            "t", children=(TreePattern("name", text_literal="O'Brien"),
                           TreePattern("id", text_var="i"))
        )
        fragment = Fragment("s", (Access("t", pattern),))
        assert "O''Brien" in generate_sql(fragment).text

    def test_nested_pattern_rejected(self):
        nested = TreePattern(
            "t", children=(TreePattern("a", children=(TreePattern("b"),)),)
        )
        with pytest.raises(CapabilityError):
            generate_sql(Fragment("s", (Access("t", nested),)))


class TestRelationalSource:
    def test_execute_returns_var_keyed_records(self, clock):
        source = RelationalSource("crm", build_crm_database(), clock)
        fragment = Fragment(
            "crm",
            (Access("customers", flat_pattern("customers", n="name", c="city")),),
            conditions=(condition("=", "c", "Seattle"),),
        )
        records = source.execute(fragment)
        assert {r["n"] for r in records} == {"Ann", "Cam"}
        assert "WHERE" in source.last_sql

    def test_nulls_become_model_null(self, clock):
        db = build_crm_database()
        db.execute("INSERT INTO customers VALUES (9, 'Zoe', NULL, 1)")
        source = RelationalSource("crm", db, clock)
        fragment = Fragment(
            "crm",
            (Access("customers", flat_pattern("customers", n="name", c="city")),),
            conditions=(condition("=", "n", "Zoe"),),
        )
        assert source.execute(fragment)[0]["c"] is NULL

    def test_relations_metadata(self, clock):
        source = RelationalSource("crm", build_crm_database(), clock)
        relations = source.relations()
        assert set(relations) == {"customers", "orders"}
        assert relations["customers"].field("name").type == "string"
        assert source.cardinality("customers") == 4

    def test_unknown_relation_rejected(self, clock):
        source = RelationalSource("crm", build_crm_database(), clock)
        fragment = Fragment("crm", (Access("nope", flat_pattern("nope", a="x")),))
        with pytest.raises(CapabilityError):
            source.execute(fragment)

    def test_network_accounting(self, clock):
        source = RelationalSource(
            "crm", build_crm_database(), clock,
            NetworkModel(latency_ms=100.0, per_row_ms=1.0),
        )
        fragment = Fragment(
            "crm", (Access("customers", flat_pattern("customers", n="name")),)
        )
        source.execute(fragment)
        assert clock.now == 104.0  # 100 latency + 4 rows

    def test_keyed_writes_use_the_primary_key_index(self, clock, monkeypatch):
        db = build_crm_database()
        source = RelationalSource("crm", db, clock)
        source.enable_cdc()
        table = db.table("customers")

        def no_scan():
            raise AssertionError("keyed write scanned the table")

        monkeypatch.setattr(table, "scan", no_scan)
        source.update_row("customers", 3, {"city": "Boise"})
        source.delete_row("customers", 1)
        with pytest.raises(KeyError):
            source.update_row("customers", 99, {"city": "Nowhere"})
        with pytest.raises(KeyError):
            source.delete_row("customers", float("nan"))
        monkeypatch.undo()
        assert [row for _, row in table.scan()] == [
            (2, "Bob", "Portland", 2), (3, "Cam", "Boise", 1),
            (4, "Dee", "Boise", 3),
        ]
        ops = [change.op for change in source.changelog.since(0)]
        assert ops == ["update", "delete"]

    def test_declared_key_without_an_index_falls_back_to_a_scan(self, clock):
        db = build_crm_database()
        source = RelationalSource("crm", db, clock)
        source.enable_cdc({"customers": "name"})
        source.update_row("customers", "Dee", {"tier": 1})
        assert db.table("customers").get(3)[3] == 1
        # a declared key over an indexed column reads that index
        source.enable_cdc({"customers": "city"})
        source.delete_row("customers", "Seattle")
        assert db.table("customers").get(0) is None


class TestXMLSource:
    def test_pattern_and_condition_at_source(self, clock):
        source = XMLSource("lib", {"books": BOOKS_XML}, clock,
                           NetworkModel(per_row_ms=1.0))
        pattern = TreePattern(
            "book",
            attributes=(AttributePattern("year", var="y"),),
            children=(TreePattern("title", text_var="t"),),
        )
        fragment = Fragment(
            "lib", (Access("books", pattern),),
            conditions=(condition(">", "y", 1995),),
        )
        records = source.execute(fragment)
        assert {r["t"] for r in records} == {"Data on the Web", "XML Handbook"}
        # only filtered rows were charged to the network
        assert source.network.rows_transferred == 2

    def test_join_fragment_rejected(self, clock):
        source = XMLSource("lib", {"books": BOOKS_XML}, clock)
        fragment = Fragment(
            "lib",
            (Access("books", flat_pattern("book", t="title")),
             Access("books", flat_pattern("book", y="year"))),
        )
        with pytest.raises(CapabilityError):
            source.execute(fragment)

    def test_add_document_parses_text(self, clock):
        source = XMLSource("lib", clock=clock)
        source.add_document("d", "<r><x>1</x></r>")
        assert source.cardinality("d") == 1


class TestHierarchicalSource:
    @pytest.fixture
    def directory(self, clock):
        source = HierarchicalSource("ldap", clock)
        root = DirectoryEntry("org")
        engineering = root.add_child("dept", label="eng")
        engineering.add_child("person", uid="u1", city="Seattle", title="swe")
        engineering.add_child("person", uid="u2", city="Boise", title="pm")
        sales = root.add_child("dept", label="sales")
        sales.add_child("person", uid="u3", city="Seattle", title="ae")
        source.add_tree("people", root, "person")
        return source

    def test_subtree_search(self, directory):
        fragment = Fragment(
            "ldap", (Access("people", flat_pattern("people", u="uid")),)
        )
        assert len(directory.execute(fragment)) == 3

    def test_equality_filter(self, directory):
        fragment = Fragment(
            "ldap",
            (Access("people", flat_pattern("people", u="uid", c="city")),),
            conditions=(condition("=", "c", "Seattle"),),
        )
        assert {r["u"] for r in directory.execute(fragment)} == {"u1", "u3"}

    def test_range_condition_rejected_by_profile(self, directory):
        fragment = Fragment(
            "ldap",
            (Access("people", flat_pattern("people", u="uid")),),
            conditions=(condition(">", "u", "u1"),),
        )
        with pytest.raises(CapabilityError):
            directory.execute(fragment)

    def test_path_pseudo_field(self, directory):
        fragment = Fragment(
            "ldap", (Access("people", flat_pattern("people", p="path", u="uid")),),
            conditions=(condition("=", "u", "u3"),),
        )
        records = directory.execute(fragment)
        assert records[0]["p"] == "org/dept/person"

    def test_cardinality(self, directory):
        assert directory.cardinality("people") == 3


class TestFlakySource:
    def test_offline_raises_unavailable(self, clock):
        inner = XMLSource("x", {"d": "<r/>"}, clock)
        flaky = FlakySource(inner, AvailabilityModel(availability=0.99))
        flaky.force_offline()
        fragment = Fragment("x", (Access("d", TreePattern("r", text_var="v")),))
        with pytest.raises(SourceUnavailableError):
            flaky.execute(fragment)

    def test_availability_model_long_run_fraction(self):
        model = AvailabilityModel(availability=0.8, mean_outage_ms=50.0, seed=3)
        samples = 20_000
        ups = sum(model.is_up(t * 10.0) for t in range(samples))
        assert 0.7 < ups / samples < 0.9

    def test_always_up_when_availability_one(self):
        model = AvailabilityModel(availability=1.0)
        assert all(model.is_up(t * 1000.0) for t in range(100))

    def test_availability_one_survives_extreme_times(self):
        # infinite uptime: the state boundary is +inf, so no amount of
        # virtual time ever flips the process or loops on boundaries
        model = AvailabilityModel(availability=1.0)
        assert model.is_up(0.0)
        assert model.is_up(1e15)
        assert model.is_up(float("inf"))

    def test_very_low_availability_is_mostly_down(self):
        model = AvailabilityModel(availability=0.01, mean_outage_ms=100.0,
                                  seed=11)
        samples = 20_000
        ups = sum(model.is_up(t * 10.0) for t in range(samples))
        assert ups / samples < 0.05

    def test_state_advance_across_many_boundaries(self):
        # one giant leap must land in the same state as many small steps
        stepping = AvailabilityModel(availability=0.5, mean_outage_ms=20.0,
                                     seed=13)
        leaping = AvailabilityModel(availability=0.5, mean_outage_ms=20.0,
                                    seed=13)
        final_ms = 500_000.0  # ~12 500 expected up/down periods
        for t in range(0, int(final_ms), 50):
            stepping.is_up(float(t))
        assert stepping.is_up(final_ms) == leaping.is_up(final_ms)
        assert leaping._boundary_ms > final_ms

    def test_invalid_availability(self):
        with pytest.raises(ValueError):
            AvailabilityModel(availability=0.0)
        with pytest.raises(ValueError):
            AvailabilityModel(availability=1.5)
        with pytest.raises(ValueError):
            AvailabilityModel(availability=-0.2)

    def test_delegates_capabilities(self, clock):
        inner = XMLSource("x", {"d": "<r/>"}, clock)
        flaky = FlakySource(inner)
        assert flaky.capabilities is inner.capabilities
        assert flaky.relations() == inner.relations()


class TestRegistry:
    def test_register_and_get(self, clock):
        registry = SourceRegistry(clock)
        source = XMLSource("a", {"d": "<r/>"})
        registry.register(source)
        assert registry.get("a") is source
        assert source.clock is clock  # re-pointed at the registry clock

    def test_duplicate_name_rejected(self, clock):
        registry = SourceRegistry(clock)
        registry.register(XMLSource("a", {}))
        with pytest.raises(SourceError):
            registry.register(XMLSource("a", {}))

    def test_unknown_source(self, clock):
        with pytest.raises(SourceError):
            SourceRegistry(clock).get("nope")

    def test_network_totals(self, registry, clock):
        source = registry.get("library")
        fragment = Fragment(
            "library",
            (Access("books", TreePattern("book", children=(
                TreePattern("title", text_var="t"),))),),
        )
        source.execute(fragment)
        totals = registry.network_totals()
        assert totals["calls"] == 1
        assert totals["rows_transferred"] == 3
