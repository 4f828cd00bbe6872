"""Unit tests for mediation (catalog, mappings, views) and the optimizer."""

import pytest

from repro.errors import MediationError, PlanningError
from repro.mediator.catalog import Catalog, DocumentTarget
from repro.mediator.mapping import RelationMapping
from repro.mediator.schema import MediatedSchema, ViewDef
from repro.optimizer import CostModel, decompose
from repro.optimizer.costs import condition_selectivity
from repro.optimizer.decomposer import FragmentUnit, UnfoldedViewUnit, ViewUnit
from repro.query import ast as qast
from repro.query.binder import bind_query
from repro.query.parser import parse_query


def bound(text):
    return bind_query(parse_query(text))


class TestMapping:
    def test_field_renaming(self):
        mapping = RelationMapping("orders", "crm", "orders", {"customer": "cust_id"})
        assert mapping.source_field("customer") == "cust_id"
        assert mapping.source_field("total") == "total"

    def test_rewrite_pattern(self):
        mapping = RelationMapping("orders", "crm", "orders", {"customer": "cust_id"})
        pattern = parse_query(
            'WHERE <o><customer>$c</customer><total>$t</total></o> IN "orders" '
            "CONSTRUCT <r>$c</r>"
        ).pattern_clauses[0].pattern
        tree = mapping.rewrite_pattern(pattern)
        assert tree.tag == "orders"
        assert [child.tag for child in tree.children] == ["cust_id", "total"]
        assert [child.text_var for child in tree.children] == ["c", "t"]

    def test_nested_pattern_rejected(self):
        mapping = RelationMapping("m", "s", "t")
        pattern = parse_query(
            'WHERE <o><a><b>$x</b></a></o> IN "m" CONSTRUCT <r>$x</r>'
        ).pattern_clauses[0].pattern
        with pytest.raises(MediationError):
            mapping.rewrite_pattern(pattern)


class TestCatalog:
    def test_resolution_order(self, catalog):
        assert isinstance(catalog.resolve("customers"), RelationMapping)
        assert isinstance(catalog.resolve("library.books"), DocumentTarget)
        with pytest.raises(MediationError):
            catalog.resolve("nope")

    def test_views_shadow_mappings(self, catalog):
        schema = MediatedSchema("layer")
        schema.define_view(
            "customers",
            'WHERE <c><name>$n</name></c> IN "crm.customers" CONSTRUCT <x>$n</x>',
        )
        catalog.add_schema(schema)
        assert isinstance(catalog.resolve("customers"), ViewDef)

    def test_mapping_to_unknown_source_rejected(self, catalog):
        with pytest.raises(MediationError):
            catalog.map_relation("m", "ghost", "t")

    def test_duplicate_mapping_rejected(self, catalog):
        with pytest.raises(MediationError):
            catalog.map_relation("customers", "crm", "customers")

    def test_cycle_detection(self, catalog):
        schema = MediatedSchema("cyclic")
        schema.define_view(
            "v1", 'WHERE <a>$x</a> IN "v2" CONSTRUCT <r>$x</r>'
        )
        schema.define_view(
            "v2", 'WHERE <a>$x</a> IN "v1" CONSTRUCT <r>$x</r>'
        )
        with pytest.raises(MediationError):
            catalog.add_schema(schema)

    def test_cardinality_of_mapping(self, catalog):
        assert catalog.cardinality("customers") == 4

    def test_known_names(self, catalog):
        assert "customers" in catalog.known_names()

    def test_schema_duplicate_view(self):
        schema = MediatedSchema("s")
        schema.define_view("v", 'WHERE <a>$x</a> IN "s" CONSTRUCT <r>$x</r>')
        with pytest.raises(MediationError):
            schema.define_view("v", 'WHERE <a>$x</a> IN "s" CONSTRUCT <r>$x</r>')


class TestDecomposer:
    def test_same_source_clauses_merge(self, catalog):
        decomposed = decompose(
            bound(
                'WHERE <c><id>$i</id><name>$n</name></c> IN "customers", '
                '<o><cust_id>$i</cust_id><total>$t</total></o> IN "orders" '
                "CONSTRUCT <r>$n</r>"
            ),
            catalog,
        )
        fragments = [u for u in decomposed.units if isinstance(u, FragmentUnit)]
        assert len(fragments) == 1
        assert len(fragments[0].fragment.accesses) == 2

    def test_disconnected_same_source_not_merged(self, catalog):
        decomposed = decompose(
            bound(
                'WHERE <c><name>$n</name></c> IN "customers", '
                '<o><total>$t</total></o> IN "orders" '
                "CONSTRUCT <r><n>$n</n><t>$t</t></r>"
            ),
            catalog,
        )
        assert len(decomposed.units) == 2

    def test_condition_pushed_to_capable_source(self, catalog):
        decomposed = decompose(
            bound(
                'WHERE <c><name>$n</name><tier>$t</tier></c> IN "customers", '
                "$t > 1 CONSTRUCT <r>$n</r>"
            ),
            catalog,
        )
        assert not decomposed.residual_conditions
        unit = decomposed.units[0]
        assert len(unit.fragment.conditions) == 1

    def test_cross_source_condition_stays_residual(self, catalog):
        decomposed = decompose(
            bound(
                'WHERE <c><name>$n</name></c> IN "customers", '
                '<b><author>$a</author></b> IN "library.books", '
                "$n != $a CONSTRUCT <r>$n</r>"
            ),
            catalog,
        )
        assert len(decomposed.residual_conditions) == 1

    def test_pushdown_disabled(self, catalog):
        decomposed = decompose(
            bound(
                'WHERE <c><id>$i</id></c> IN "customers", '
                '<o><cust_id>$i</cust_id></o> IN "orders", $i > 1 '
                "CONSTRUCT <r>$i</r>"
            ),
            catalog,
            pushdown=False,
        )
        assert len(decomposed.units) == 2
        assert len(decomposed.residual_conditions) == 1

    def test_webservice_becomes_dependent(self, catalog):
        decomposed = decompose(
            bound(
                'WHERE <c><name>$n</name></c> IN "customers", '
                '<s><name>$n</name><score>$sc</score></s> IN "credit_scores" '
                "CONSTRUCT <r><n>$n</n><s>$sc</s></r>"
            ),
            catalog,
        )
        dependent = [
            u for u in decomposed.units
            if isinstance(u, FragmentUnit) and u.dependent
        ]
        assert len(dependent) == 1
        assert dependent[0].fragment.input_vars == ("n",)

    def test_dependent_without_provider_rejected(self, catalog):
        with pytest.raises(PlanningError):
            decompose(
                bound(
                    'WHERE <s><name>$n</name><score>$sc</score></s> '
                    'IN "credit_scores" CONSTRUCT <r>$sc</r>'
                ),
                catalog,
            )

    def test_view_clause_becomes_view_unit(self, catalog):
        schema = MediatedSchema("layer")
        schema.define_view(
            "top_customers",
            'WHERE <c><name>$n</name><tier>$t</tier></c> IN "customers", '
            "$t = 1 CONSTRUCT <tc><name>$n</name></tc>",
        )
        catalog.add_schema(schema)
        decomposed = decompose(
            bound(
                'WHERE <tc><name>$n</name></tc> IN "top_customers" '
                "CONSTRUCT <r>$n</r>"
            ),
            catalog,
        )
        # the view unfolds: its body becomes the unit's own fragments
        unit = decomposed.units[0]
        assert isinstance(unit, UnfoldedViewUnit)
        assert unit.view.name == "top_customers"
        (body,) = unit.body.units
        assert isinstance(body, FragmentUnit)
        assert body.fragment.accesses[0].relation == "customers"
        # a materialized view keeps the sub-query path
        resident = decompose(
            bound(
                'WHERE <tc><name>$n</name></tc> IN "top_customers" '
                "CONSTRUCT <r>$n</r>"
            ),
            catalog,
            resident_views=frozenset({"top_customers"}),
        )
        assert isinstance(resident.units[0], ViewUnit)
        assert "not unfolded: view is materialized" in resident.describe()


class TestCostModel:
    def test_selectivity_guesses(self):
        eq = qast.BinOp("=", qast.Var("x"), qast.Literal(1))
        rng = qast.BinOp(">", qast.Var("x"), qast.Literal(1))
        assert condition_selectivity(eq) == 0.1
        assert condition_selectivity(rng) == 0.3
        both = qast.BinOp("AND", eq, rng)
        assert condition_selectivity(both) == pytest.approx(0.03)

    def test_or_selectivity_bounded(self):
        eq = qast.BinOp("=", qast.Var("x"), qast.Literal(1))
        either = qast.BinOp("OR", eq, eq)
        assert condition_selectivity(either) <= 1.0

    def test_estimate_rows_applies_selectivity(self, catalog):
        decomposed = decompose(
            bound(
                'WHERE <c><name>$n</name><tier>$t</tier></c> IN "customers", '
                "$t = 1 CONSTRUCT <r>$n</r>"
            ),
            catalog,
        )
        unit = decomposed.units[0]
        model = CostModel()
        rows = model.estimate_rows(unit.fragment, unit.source)
        assert rows == pytest.approx(0.4)  # 4 rows * 0.1

    def test_noise_is_deterministic(self, catalog):
        decomposed = decompose(
            bound('WHERE <c><name>$n</name></c> IN "customers" CONSTRUCT <r>$n</r>'),
            catalog,
        )
        unit = decomposed.units[0]
        noisy = CostModel(noise=0.5, seed=1)
        first = noisy.estimate(unit.fragment, unit.source)
        second = noisy.estimate(unit.fragment, unit.source)
        assert first.cost_ms == second.cost_ms
        clean = CostModel().estimate(unit.fragment, unit.source)
        assert first.cost_ms != clean.cost_ms
