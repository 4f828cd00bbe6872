"""GAV view unfolding: answers identical to construct-then-rematch.

A query over an unfolded mediated view must return exactly what the
sub-query path returns — the view's elements built, then matched again
— element for element, in the same order, with the same completeness.
The reference runs the same deployment with every view marked resident,
which routes each view read through ``_ExecutionContext.fetch_view``.
"""

import pytest

from repro import (
    Catalog,
    Database,
    MaterializationManager,
    MediatedSchema,
    NetworkModel,
    NimbleEngine,
    RelationalSource,
    SimClock,
    SourceRegistry,
    WebServiceSource,
    XMLSource,
)
from repro.optimizer.decomposer import UnfoldedViewUnit, ViewUnit
from repro.workloads import make_website_workload
from repro.xmldm.schema import RecordType
from repro.xmldm.serializer import serialize

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# -- the adversarial deployment ---------------------------------------------

KEYS = ["k1", "k2", "5", "05", " k1"]
#: text the XML side carries: padding, numeric-looking, nan/Infinity
TEXTS = ["a", "b", " a", "a ", "", "5", "5.0", "-0", "1e3", "nan",
         "Infinity", "true", "x y"]
PRICES = [None, 0.0, 1.5, 5.0, -2.0, float("nan"), float("inf")]
QTYS = [None, 0, 3, 5]
NOTES = [None, "a", " a", "5", "nan", ""]
ALT_IDS = [0, 3, 5, -2]

PAGE = (
    "CONSTRUCT <page k=$k><name>$n</name><cat>$c</cat><price>$pr</price>"
    "<qty>$q</qty><note>$nt</note></page>"
)
PRODUCTS = '<p k=$k c=$c><n>$n</n></p> IN "x.products"'
STOCK = '<s><k>$k</k><price>$pr</price><qty>$q</qty><note>$nt</note></s> IN "stock"'

VIEWS = {
    # one page per key: XML joined with the keyed stock table
    "page": f"WHERE {PRODUCTS}, {STOCK} {PAGE}",
    # the view filters on its own
    "page_cond": f'WHERE {PRODUCTS}, {STOCK}, $q > 0, $nt != "a" {PAGE}',
    # grouped by a non-key attribute: nested values repeat per group
    "by_cat": (
        f"WHERE {PRODUCTS}, {STOCK} CONSTRUCT <page k=$c><name>$n</name>"
        "<cat>$k</cat><price>$pr</price><qty>$q</qty><note>$nt</note></page>"
    ),
    # no direct variables: one element per distinct binding
    "flat": (
        f"WHERE {PRODUCTS}, {STOCK} CONSTRUCT <page><name>$n</name>"
        "<cat>$c</cat><price>$pr</price><qty>$q</qty><note>$nt</note></page>"
    ),
    # REAL price joined with an INTEGER key (5.0 meets 5)
    "mixed": (
        f'WHERE {STOCK}, <a><id>$pr</id><w>$c</w></a> IN "alt", '
        f'<p k=$k><n>$n</n></p> IN "x.products" {PAGE}'
    ),
    # XML text joined with an INTEGER column: never equal
    "text_int": (
        'WHERE <p k=$k c=$c><n>$n</n></p> IN "x.products", '
        '<a><id>$k</id><w>$nt</w></a> IN "alt" CONSTRUCT <page k=$k>'
        "<name>$n</name><cat>$c</cat><price>$k</price><note>$nt</note></page>"
    ),
    # literal text around values, literal attributes
    "literal": (
        f"WHERE {PRODUCTS}, {STOCK} CONSTRUCT <page k=$k tag=\"fixed\">"
        "<name>$n</name><cat>c $c</cat><price>$pr</price><qty>$q</qty>"
        "<note>n</note></page>"
    ),
    # grouped by XML text: stock values repeat per group
    "by_name": (
        f"WHERE {PRODUCTS}, {STOCK} CONSTRUCT <page k=$n><name>$k</name>"
        "<cat>$c</cat><price>$pr</price><qty>$q</qty><note>$nt</note></page>"
    ),
    # a view over a view: both unfold
    "nested": (
        'WHERE <page k=$k><name>$n</name><price>$pr</price><qty>$q</qty>'
        '</page> IN "page", $q >= 0 CONSTRUCT <page k=$k><name>$n</name>'
        "<cat>$q</cat><price>$pr</price><qty>$q</qty><note>$k</note></page>"
    ),
}

CHILDREN = [("name", "n"), ("cat", "c"), ("price", "p"), ("qty", "q"),
            ("note", "t")]
#: literals per outer variable: the values it meets, their padded or
#: numeric-text twins, and a few of the other kind
LITERALS = {
    "s": ["k1", "5", " k1", "05", 5],
    "n": ["a", " a", "5", "nan", "", 5],
    "c": ["a", " a", "5", "Infinity", "", 5],
    "p": [0, 1.5, 5, 2, "5", "nan"],
    "q": [0, 3, 5, "3"],
    "t": ["a", " a", "5", "nan", "", 5],
    "st": [1, 2, 3],
}


def deploy(data) -> NimbleEngine:
    registry = SourceRegistry(SimClock())
    xml = "<catalog>" + "".join(
        f'<p k="{k}" c="{c}"><n>{n}</n></p>' for k, c, n in data["products"]
    ) + "</catalog>"
    registry.register(XMLSource(
        "x", {"products": xml}, network=NetworkModel(5.0, 0.1)
    ))
    db = Database("erp")
    db.execute(
        "CREATE TABLE stock (k TEXT PRIMARY KEY, price REAL, qty INTEGER,"
        " note TEXT)"
    )
    db.execute("CREATE TABLE alt (id INTEGER PRIMARY KEY, w TEXT)")
    if data["price_index"]:
        db.table("stock").create_index("ix_price", "price")
    db.insert_rows("stock", data["stock"])
    db.insert_rows("alt", data["alt"])
    registry.register(RelationalSource("erp", db, network=NetworkModel(8.0, 0.2)))
    ratings = WebServiceSource("ws", network=NetworkModel(20.0, 0.1))
    ratings.add_endpoint(
        "rating", ["k"],
        RecordType.of("rating", k="string", stars="number"),
        lambda inputs: [{"stars": len(str(inputs["k"]))}],
        estimated_rows=1,
    )
    registry.register(ratings)
    catalog = Catalog(registry)
    catalog.map_relation("stock", "erp", "stock")
    catalog.map_relation("alt", "erp", "alt")
    catalog.map_relation("rating", "ws", "rating")
    schema = MediatedSchema("m")
    for name, text in VIEWS.items():
        schema.define_view(name, text)
    catalog.add_schema(schema)
    return NimbleEngine(catalog)


def reference_engine(data) -> NimbleEngine:
    """The construct-then-rematch path: every view is answered by
    running it as a sub-query and matching its elements."""
    engine = deploy(data)
    engine._resident_views = lambda: frozenset(VIEWS)
    return engine


def literal_text(value) -> str:
    return f'"{value}"' if isinstance(value, str) else repr(value)


@st.composite
def deployments(draw):
    stock = draw(st.dictionaries(
        st.sampled_from(KEYS),
        st.tuples(st.sampled_from(PRICES), st.sampled_from(QTYS),
                  st.sampled_from(NOTES)),
        min_size=2, max_size=len(KEYS),
    ))
    products = draw(st.lists(
        st.tuples(st.sampled_from(KEYS), st.sampled_from(TEXTS),
                  st.sampled_from(TEXTS)),
        min_size=2, max_size=8,
    ))
    alt = draw(st.dictionaries(st.sampled_from(ALT_IDS),
                               st.sampled_from(TEXTS), max_size=4))
    return {
        "stock": [[k, *rest] for k, rest in stock.items()],
        "products": products,
        "alt": [[k, w] for k, w in alt.items()],
        "price_index": draw(st.booleans()),
    }


def data_literals(data) -> dict[str, list]:
    """Per outer variable, the values the deployment holds — as written
    and stripped — so conditions hit rows often."""
    texts = {"s": [k for k, _, _ in data["products"]] + [r[0] for r in data["stock"]],
             "n": [n for _, _, n in data["products"]],
             "c": [c for _, c, _ in data["products"]],
             "t": [r[3] for r in data["stock"] if r[3] is not None]}
    found = {var: values + [v.strip() for v in values]
             for var, values in texts.items()}
    # the query language has no negative or non-finite number literals
    found["p"] = [r[1] for r in data["stock"]
                  if r[1] is not None and 0 <= r[1] < float("inf")]
    found["q"] = [r[2] for r in data["stock"] if r[2] is not None]
    return found


OPS = ["=", "=", "=", "!=", "<", "<=", ">", ">=", "LIKE", "LIKE"]


@st.composite
def queries(draw, data):
    """A query over a random view: the variable the first condition
    tests is drawn first, and literals mostly come from the data."""
    found = data_literals(data)
    view = draw(st.sampled_from(sorted(VIEWS)))
    tested = draw(st.sampled_from(CHILDREN + [("@k", "s")]))
    children = draw(st.lists(st.sampled_from(CHILDREN), unique=True,
                             max_size=2))
    if tested[0] != "@k" and tested not in children:
        children.insert(draw(st.integers(0, len(children))), tested)
    root = "var" if tested[0] == "@k" else draw(
        st.sampled_from(["var", "literal", "none"])
    )
    attrs = ""
    variables = []
    if root == "var":
        attrs = " k=$s"
        variables.append("s")
    elif root == "literal":
        attrs = f' k="{draw(st.sampled_from(KEYS))}"'
    parts = []
    for tag, var in children:
        if (tag, var) != tested and draw(st.integers(0, 5)) == 0:
            parts.append(f"<{tag}>{draw(st.sampled_from(['a', '5', '']))}</{tag}>")
        else:
            parts.append(f"<{tag}>${var}</{tag}>")
            variables.append(var)
    clauses = [f'<page{attrs}>{"".join(parts)}</page> IN "{view}"']
    conditioned = [tested[1]] + [
        draw(st.sampled_from(variables)) for _ in range(draw(st.integers(0, 2)))
    ]
    for var in conditioned:
        op = draw(st.sampled_from(OPS))
        pool = found.get(var) if draw(st.integers(0, 3)) else None
        literal = draw(st.sampled_from(pool or LITERALS[var]))
        if op == "LIKE":
            wildcards = st.sampled_from(["", "%"])
            literal = draw(wildcards) + str(literal) + draw(wildcards)
        if draw(st.booleans()) or op == "LIKE":
            clauses.append(f"${var} {op} {literal_text(literal)}")
        else:
            clauses.append(f"{literal_text(literal)} {op} ${var}")
    if "s" in variables and draw(st.integers(0, 3)) == 0:
        clauses.append('<g><k>$s</k><stars>$st</stars></g> IN "rating"')
        variables.append("st")
    shape = draw(st.sampled_from(["rows", "rows", "grouped", "aggregate"]))
    if shape == "aggregate":
        var = draw(st.sampled_from(variables))
        kind = draw(st.sampled_from(["count", "sum", "min", "max"]))
        construct = f"<r><agg>{kind}(${var})</agg></r>"
    elif shape == "grouped":
        key, *rest = variables
        inner = "".join(f"<v>${v}</v>" for v in rest)
        construct = f"<r key=${key}>{inner}</r>"
    else:
        construct = "<r>" + "".join(f"<v{i}>${v}</v{i}>"
                                    for i, v in enumerate(variables)) + "</r>"
    text = f"WHERE {', '.join(clauses)} CONSTRUCT {construct}"
    if shape != "aggregate" and draw(st.integers(0, 3)) == 0:
        key = draw(st.sampled_from(variables))
        direction = draw(st.sampled_from(["", " DESC"]))
        text += f" ORDER BY ${key}{direction}"
        if draw(st.booleans()):
            text += f" LIMIT {draw(st.integers(1, 4))}"
    return text


def answer(engine: NimbleEngine, text: str):
    try:
        result = engine.query(text)
    except Exception as error:  # both paths must fail the same way
        return type(error).__name__
    return (
        [serialize(element) for element in result.elements],
        result.completeness.describe(),
    )


@st.composite
def cases(draw):
    data = draw(deployments())
    return data, [draw(queries(data)) for _ in range(6)]


@settings(max_examples=200, deadline=None,
          suppress_health_check=(HealthCheck.too_slow,))
@given(cases())
def test_unfolded_answers_equal_construct_then_rematch(case):
    """Six queries per deployment on one engine pair, the first two
    again at the end so compiled-plan cache hits are compared too."""
    data, texts = case
    unfolded, reference = deploy(data), reference_engine(data)
    for text in texts + texts[:2]:
        assert answer(unfolded, text) == answer(reference, text), text


@settings(max_examples=100, deadline=None,
          suppress_health_check=(HealthCheck.too_slow,))
@given(deployments(), st.sampled_from(["page", "flat", "literal"]),
       st.sampled_from(["<", "<=", ">", ">="]), st.sampled_from([0, 1.5, 2, 5]))
def test_ranges_over_a_sorted_index_keep_the_view_row_order(data, view, op,
                                                            bound):
    """A sorted index answers ranges in key order; the unfolded rows
    must still arrive in the view's own order."""
    data = dict(data, price_index=True)
    text = (f'WHERE <page k=$s><price>$p</price></page> IN "{view}", '
            f"$p {op} {bound}, $p < 100 CONSTRUCT <r k=$s>$p</r>")
    assert answer(deploy(data), text) == answer(reference_engine(data), text)


# -- decisions the optimizer makes -----------------------------------------

PAGE_SKU = (
    'WHERE <page sku=$s><name>$n</name><price>$p</price></page> '
    'IN "product_page", $s = "SKU-1003" '
    "CONSTRUCT <row sku=$s><name>$n</name><price>$p</price></row>"
)
PAGE_PRICE = (
    'WHERE <page sku=$s><name>$n</name><price>$p</price></page> '
    'IN "product_page", $p >= 100, $p < 200 '
    "CONSTRUCT <row sku=$s><price>$p</price></row> ORDER BY $p"
)
PAGE_CATEGORY = (
    'WHERE <page sku=$s><category>$c</category></page> IN "product_page", '
    '$c = "imaging" CONSTRUCT <row sku=$s/>'
)


def unfolded_unit(engine, text) -> UnfoldedViewUnit:
    unit = engine._compile(text).units[0]
    assert isinstance(unit, UnfoldedViewUnit)
    return unit


class TestPushdown:
    def test_sku_literal_reaches_both_sources(self):
        engine = NimbleEngine(make_website_workload(60, seed=7).catalog)
        result = engine.query(PAGE_SKU)
        assert len(result.elements) == 1
        # the root grouping literal went to the XML side and was copied
        # across the $sku equi-join into the stock table
        assert result.stats.rows_transferred == 2
        body = unfolded_unit(engine, PAGE_SKU).body
        assert [len(u.fragment.conditions) for u in body.units] == [1, 1]

    def test_nested_key_column_condition_is_pushed(self):
        engine = NimbleEngine(make_website_workload(60, seed=7).catalog)
        unit = unfolded_unit(engine, PAGE_PRICE)
        # $p reads stock.price; stock's key is bound by the grouping $sku
        assert [str(c) for c in unit.derived] == [
            "($price >= 100)", "($price < 200)"
        ]
        stock = unit.body.units[1]
        assert stock.fragment.source == "erp"
        assert len(stock.fragment.conditions) == 2
        assert stock.declared is not None and not stock.declared.conditions

    def test_nested_non_key_condition_stays_engine_side(self):
        engine = NimbleEngine(make_website_workload(60, seed=7).catalog)
        unit = unfolded_unit(engine, PAGE_CATEGORY)
        # $c reads an attribute of the unkeyed XML catalog: each page may
        # carry several categories, so filtering rows is not filtering pages
        assert unit.derived == ()
        assert "Residual(($c = 'imaging'))" in engine._compile(
            PAGE_CATEGORY
        ).describe()

    def test_nullable_column_needs_a_condition_rejecting_empty_text(self):
        engine = NimbleEngine(make_website_workload(60, seed=7).catalog)
        # NULL prices read as "", and "" > 5 holds: not pushable alone
        alone = unfolded_unit(
            engine,
            'WHERE <page sku=$s><price>$p</price></page> IN "product_page", '
            "$p > 5 CONSTRUCT <r>$s</r>",
        )
        assert alone.derived == ()
        guarded = unfolded_unit(
            engine,
            'WHERE <page sku=$s><price>$p</price></page> IN "product_page", '
            "$p > 5, $p < 9 CONSTRUCT <r>$s</r>",
        )
        assert len(guarded.derived) == 2

    def test_range_over_a_sorted_index_stays_engine_side(self):
        workload = make_website_workload(60, seed=7)
        inventory = workload.catalog.registry.get("erp")
        inventory.database.table("stock").create_index("ix_price", "price")
        engine = NimbleEngine(workload.catalog)
        assert unfolded_unit(engine, PAGE_PRICE).derived == ()

    def test_equality_is_copied_across_a_plain_join(self):
        engine = NimbleEngine(make_website_workload(60, seed=7).catalog)
        text = ('WHERE <product sku=$s><name>$n</name></product> '
                'IN "content.products", <t><sku>$s</sku><price>$p</price></t> '
                'IN "stock", $s = "SKU-1010" CONSTRUCT <r>$p</r>')
        decomposed = engine._compile(text)
        assert [len(u.fragment.conditions) for u in decomposed.units] == [1, 1]
        # the copy filters; the planner still orders by the stated fragments
        assert [len(u.declared.conditions) for u in decomposed.units] == [1, 0]
        assert engine.query(text).stats.rows_transferred == 2

    def test_view_over_a_view_pushes_to_the_base_relation(self):
        engine = deploy({"stock": [["k1", 1.5, 3, "a"], ["k2", 5.0, 4, "b"]],
                         "products": [("k1", "a", "x"), ("k2", "b", "y")],
                         "alt": [], "price_index": False})
        text = ('WHERE <page k=$s><price>$p</price></page> IN "nested", '
                '$s = "k2" CONSTRUCT <r>$p</r>')
        outer = unfolded_unit(engine, text)
        (inner,) = [u for u in outer.body.units
                    if isinstance(u, UnfoldedViewUnit)]
        assert [str(c) for c in inner.derived] == ["($k = 'k2')"]
        assert [len(u.fragment.conditions) for u in inner.body.units] == [1, 1]
        assert answer(engine, text) == (["<r>5.0</r>"], "complete")

    def test_numeric_text_literal_is_not_copied_into_an_integer_column(self):
        engine = deploy({"stock": [], "products": [], "price_index": False,
                         "alt": [[5, "w"]]})
        text = ('WHERE <p k=$k><n>$n</n></p> IN "x.products", '
                '<a><id>$k</id><w>$w</w></a> IN "alt", $k = "5" '
                "CONSTRUCT <r>$w</r>")
        decomposed = engine._compile(text)
        assert [len(u.fragment.conditions) for u in decomposed.units] == [1, 0]
        assert engine.query(text).elements == []


class TestFallback:
    @pytest.mark.parametrize("view, pattern, reason", [
        ("WHERE <c><name>$n</name></c> IN \"customers\" "
         "CONSTRUCT <x>$n</x> ORDER BY $n",
         "<x>$n</x>", "view has ORDER BY"),
        ("WHERE <c><name>$n</name></c> IN \"customers\" "
         "CONSTRUCT <x>$n</x> LIMIT 2",
         "<x>$n</x>", "view has LIMIT"),
        ("WHERE <c><name>$n</name><tier>$t</tier></c> IN \"customers\" "
         "CONSTRUCT <x t=$t><n>count($n)</n></x>",
         "<x t=$t/>", "view has aggregates"),
        ("WHERE <c><name>$n</name></c> IN \"customers\" "
         "CONSTRUCT <x><y>$n</y></x>",
         "<y>$n</y>", "pattern root <y> is not the view root <x>"),
        ("WHERE <c><name>$n</name></c> IN \"customers\" "
         "CONSTRUCT <x><y>$n</y></x>",
         "<x><//y>$n</y></x>", "pattern uses descendant steps"),
        ("WHERE <c><name>$n</name></c> IN \"customers\" "
         "CONSTRUCT <x><y><z>$n</z></y></x>",
         "<x><y>$n</y></x>", "template nests below <y>"),
    ])
    def test_reason_is_explained(self, catalog, view, pattern, reason):
        schema = MediatedSchema("f")
        schema.define_view("v", view)
        catalog.add_schema(schema)
        engine = NimbleEngine(catalog)
        text = f'WHERE {pattern} IN "v" CONSTRUCT <r>hit</r>'
        unit = engine._compile(text).units[0]
        assert isinstance(unit, ViewUnit)
        assert unit.describe() == f"View(v; not unfolded: {reason})"
        assert f"View(v; not unfolded: {reason})" in engine.explain(text)

    def test_plan_cache_notices_a_materialized_view(self):
        workload = make_website_workload(60, seed=7)
        engine = NimbleEngine(
            workload.catalog,
            materializer=MaterializationManager(workload.clock),
        )
        before = engine.query(PAGE_SKU)
        assert "Unfolded(product_page" in before.stats.plan_text
        engine.materialize_view("product_page")
        after = engine.query(PAGE_SKU)
        assert "not unfolded: view is materialized" in after.stats.plan_text
        assert after.stats.remote_calls == 0  # stored elements answered
        assert [serialize(e) for e in after.elements] == [
            serialize(e) for e in before.elements
        ]

    def test_view_over_a_fallback_view_does_not_unfold(self, catalog):
        schema = MediatedSchema("f")
        schema.define_view(
            "sorted_names",
            'WHERE <c><name>$n</name></c> IN "customers" '
            "CONSTRUCT <x>$n</x> ORDER BY $n",
        )
        schema.define_view(
            "names", 'WHERE <x>$n</x> IN "sorted_names" CONSTRUCT <y>$n</y>'
        )
        catalog.add_schema(schema)
        unit = NimbleEngine(catalog)._compile(
            'WHERE <y>$n</y> IN "names" CONSTRUCT <r>$n</r>'
        ).units[0]
        assert unit.reason == "reads view sorted_names, which does not unfold"
