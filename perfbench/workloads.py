"""The three benchmark workloads, their inputs and their answer oracles.

Each workload turns a seed into plain-Python inputs (``__init__``), builds
a fresh system from them through the library's public constructors
(``build``, the untimed set-up), and yields an endless, seed-determined
operation schedule (``Instance.schedule``; each ``variant`` is another
draw from the same distributions).  ``Instance.execute`` is the
one timed call per operation; ``Instance.check`` compares its output with
an answer computed in plain Python from the same inputs and returns the
operation's entry for the exact-repeat fingerprint.

Engines run with their defaults plus only the knobs a workload names, so
a later change to a default shows up in the numbers.
"""

from __future__ import annotations

import bisect
import math
import random
from collections import Counter

from repro import (
    Catalog,
    Database,
    MaterializationManager,
    MediatedSchema,
    NetworkModel,
    NimbleEngine,
    RelationalSource,
    ShardRouter,
    SimClock,
    SourceRegistry,
    WebServiceSource,
    XMLSource,
    partition_registry,
)
from repro.core import formatting
from repro.xmldm.schema import RecordType

READ, CHANGE, SYNC = "read", "change", "sync"


class Zipf:
    """Seeded Zipf(s) draws over a list, most popular item first."""

    def __init__(self, rng: random.Random, items: list, s: float = 1.1):
        self.rng = rng
        self.items = items
        total = 0.0
        self.cumulative = []
        for rank in range(1, len(items) + 1):
            total += 1.0 / rank ** s
            self.cumulative.append(total)

    def rank(self) -> int:
        point = self.rng.random() * self.cumulative[-1]
        return min(bisect.bisect_left(self.cumulative, point),
                   len(self.items) - 1)

    def draw(self):
        return self.items[self.rank()]


def shuffled(rng: random.Random, items) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def norm(value) -> float | str:
    """Compare numbers by value and everything else as text."""
    try:
        return float(value)
    except (TypeError, ValueError):
        return str(value)


def child_text(element, tag: str) -> str:
    child = element.first_child(tag)
    return child.text_content() if child is not None else ""


def fingerprint_read(template: str, result) -> tuple:
    return (template, tuple(result.stats.as_dict().values()))


class TemplateReads:
    """Read traffic: query templates filled with seed-drawn literals.

    Subclasses set ``workload`` and ``templates`` and define
    ``literals(rng)`` (one :class:`Zipf` per template) and
    ``params(template, literal)``.  Template order comes in shuffled
    blocks, so every template gets an equal share of any run.
    """

    def op(self, template: str, literal) -> tuple:
        params = self.params(template, literal)
        return (READ, template, self.templates[template].format(**params),
                params)

    def warmup_ops(self) -> list[tuple]:
        """The first query of every template, most popular literal."""
        literals = self.literals(random.Random(self.workload.seed))
        return [self.op(t, z.items[0]) for t, z in literals.items()]

    def schedule(self, variant: int = 0):
        seed = self.workload.seed
        rng = random.Random(f"{seed}:{variant}:order")
        literals = self.literals(random.Random(f"{seed}:{variant}"))
        while True:
            for template in shuffled(rng, list(self.templates)):
                yield self.op(template, literals[template].draw())


class Failure(Exception):
    """An answer that disagrees with the oracle."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Failure(message)


def keyed_rows(rng: random.Random, n: int) -> list[tuple[int, int, int]]:
    return [(k, rng.randrange(24), rng.randrange(1000)) for k in range(n)]


def items_source(name: str, rows) -> RelationalSource:
    db = Database(name)
    db.execute(
        "CREATE TABLE t (k INTEGER PRIMARY KEY, grp INTEGER, v INTEGER)"
    )
    db.insert_rows("t", rows)
    return RelationalSource(
        name, db, network=NetworkModel(latency_ms=5.0, per_row_ms=0.05)
    )


# -- web_view -------------------------------------------------------------------

_ADJECTIVES = ("compact", "rugged", "wireless", "ergonomic", "modular",
               "solar", "portable", "industrial")
_NOUNS = ("router", "sensor", "keyboard", "camera", "scanner", "charger",
          "drone", "speaker")
_CATEGORIES = ("networking", "peripherals", "imaging", "power")

PRODUCT_PAGE = """
    WHERE <product sku=$sku category=$cat>
            <name>$name</name><description>$desc</description>
          </product> IN "content.products",
          <s><sku>$sku</sku><price>$price</price>
             <quantity>$qty</quantity></s> IN "stock"
    CONSTRUCT <page sku=$sku>
                <name>$name</name><category>$cat</category>
                <description>$desc</description>
                <price>$price</price><in_stock>$qty</in_stock>
              </page>
"""

WEB_TEMPLATES = {
    "price_range": (
        'WHERE <page sku=$s><name>$n</name><price>$p</price></page> '
        'IN "product_page", $p >= {lo}, $p < {hi} '
        "CONSTRUCT <row sku=$s><name>$n</name><price>$p</price></row> "
        "ORDER BY $p"
    ),
    "category": (
        'WHERE <page sku=$s><category>$c</category><price>$p</price></page> '
        'IN "product_page", $c = "{cat}" '
        "CONSTRUCT <row sku=$s><price>$p</price></row>"
    ),
    "sku": (
        'WHERE <page sku=$s><name>$n</name><price>$p</price>'
        '<in_stock>$q</in_stock></page> IN "product_page", $s = "{sku}" '
        "CONSTRUCT <row sku=$s><name>$n</name><price>$p</price>"
        "<qty>$q</qty></row>"
    ),
    "sku_reviews": (
        'WHERE <page sku=$s><name>$n</name></page> IN "product_page", '
        '$s = "{sku}", <r><sku>$s</sku><rating>$rt</rating>'
        '<review_count>$rc</review_count></r> IN "review_summary" '
        "CONSTRUCT <row sku=$s><name>$n</name><rating>$rt</rating>"
        "<reviews>$rc</reviews></row>"
    ),
}


class WebView:
    """Lens traffic over the ``product_page`` mediated view."""

    name = "web_view"
    n_products = 1_000
    price_width = 40

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(seed)
        self.products = []
        for i in range(self.n_products):
            name = f"{rng.choice(_ADJECTIVES)} {rng.choice(_NOUNS)}"
            self.products.append({
                "sku": f"SKU-{1000 + i}",
                "name": name,
                "category": _CATEGORIES[i % len(_CATEGORIES)],
                "price": round(rng.uniform(9, 499), 2),
                "qty": rng.randrange(0, 500),
                "warehouse": rng.choice(("SEA", "PDX", "BOI")),
                "rating": round(rng.uniform(2.0, 5.0), 1),
                "reviews": rng.randrange(0, 900),
            })
        self.by_sku = {p["sku"]: p for p in self.products}
        self.sizes = {"products": self.n_products,
                      "templates": len(WEB_TEMPLATES)}

    def build(self) -> "WebViewInstance":
        return WebViewInstance(self)


class WebViewInstance(TemplateReads):
    templates = WEB_TEMPLATES

    def __init__(self, workload: WebView):
        self.workload = workload
        products = workload.products
        registry = SourceRegistry(SimClock())
        self.clock = registry.clock
        xml = "<catalog>" + "".join(
            f'<product sku="{p["sku"]}" category="{p["category"]}">'
            f"<name>{p['name']}</name>"
            f"<description>The {p['name']} for {p['category']} workloads."
            "</description></product>"
            for p in products
        ) + "</catalog>"
        registry.register(XMLSource(
            "content", {"products": xml},
            network=NetworkModel(latency_ms=25.0, per_row_ms=0.2),
        ))
        db = Database("erp")
        db.execute(
            "CREATE TABLE stock (sku TEXT PRIMARY KEY, price REAL,"
            " quantity INTEGER, warehouse TEXT)"
        )
        db.insert_rows("stock", [
            [p["sku"], p["price"], p["qty"], p["warehouse"]] for p in products
        ])
        registry.register(RelationalSource(
            "erp", db, network=NetworkModel(latency_ms=40.0, per_row_ms=0.5),
        ))
        reviews = WebServiceSource(
            "reviews", network=NetworkModel(latency_ms=80.0, per_row_ms=0.1),
        )
        by_sku = workload.by_sku

        def review_handler(inputs):
            p = by_sku.get(inputs["sku"])
            if p is None:
                return []
            return [{"rating": p["rating"], "review_count": p["reviews"]}]

        reviews.add_endpoint(
            "summary", ["sku"],
            RecordType.of("summary", sku="string", rating="number",
                          review_count="number"),
            review_handler, estimated_rows=1,
        )
        registry.register(reviews)
        catalog = Catalog(registry)
        catalog.map_relation("stock", "erp", "stock")
        catalog.map_relation("review_summary", "reviews", "summary")
        site = MediatedSchema("site")
        site.define_view("product_page", PRODUCT_PAGE)
        catalog.add_schema(site)
        self.engine = NimbleEngine(catalog)
        # warm-up: the first query of every template
        for op in self.warmup_ops():
            self.execute(op)

    def literals(self, rng: random.Random) -> dict[str, Zipf]:
        lows = [10 + 10 * j for j in range(46)]
        skus = [p["sku"] for p in self.workload.products]
        return {
            "price_range": Zipf(rng, shuffled(rng, lows)),
            "category": Zipf(rng, shuffled(rng, _CATEGORIES)),
            "sku": Zipf(rng, shuffled(rng, skus)),
            "sku_reviews": Zipf(rng, shuffled(rng, skus)),
        }

    def params(self, template: str, literal) -> dict:
        if template == "price_range":
            return {"lo": literal, "hi": literal + self.workload.price_width}
        if template == "category":
            return {"cat": literal}
        return {"sku": literal}

    def execute(self, op):
        result = self.engine.query(op[2])
        # the lens renders every answer for its device
        page = formatting.format_result(result.elements, "web")
        return result, page

    def check(self, op, output) -> tuple:
        result, page = output
        _, template, _, params = op
        expect(result.completeness.complete, "partial answer")
        expect(page.startswith('<div class="results">'), "lens render")
        w = self.workload
        got = [
            tuple(norm(x) for x in (
                e.attributes.get("sku"),
                *(c.text_content() for c in e.child_elements()),
            ))
            for e in result.elements
        ]
        if template == "price_range":
            lo, hi = params["lo"], params["hi"]
            want = [(p["sku"], p["name"], p["price"]) for p in w.products
                    if lo <= p["price"] < hi]
            prices = [row[2] for row in got]
            expect(prices == sorted(prices), "ORDER BY price")
        elif template == "category":
            want = [(p["sku"], p["price"]) for p in w.products
                    if p["category"] == params["cat"]]
        elif template == "sku":
            p = w.by_sku[params["sku"]]
            want = [(p["sku"], p["name"], p["price"], p["qty"])]
        else:
            p = w.by_sku[params["sku"]]
            want = [(p["sku"], p["name"], p["rating"], p["reviews"])]
        want = [tuple(norm(x) for x in row) for row in want]
        expect(Counter(got) == Counter(want), f"{template} answer")
        return fingerprint_read(template, result)

    def result_of(self, output):
        return output[0]


# -- shard_storm ----------------------------------------------------------------

SHARD_TEMPLATES = {
    "grouped_aggregate": (
        'WHERE <i><k>$k</k><grp>$g</grp><v>$v</v></i> IN "items", $v > {t} '
        "CONSTRUCT <g k=$g><total>sum($v)</total><n>count($v)</n></g>"
    ),
    "top_k": (
        'WHERE <i><k>$k</k><v>$v</v></i> IN "items", $v > {t} '
        "CONSTRUCT <r k=$k>$v</r> ORDER BY $v DESC LIMIT {limit}"
    ),
    "distinct": (
        'WHERE <i><k>$k</k><grp>$g</grp><v>$v</v></i> IN "items", $v < {t} '
        "CONSTRUCT <d>$g</d>"
    ),
    "selective_sorted": (
        'WHERE <i><k>$k</k><v>$v</v></i> IN "items", $v > {t} '
        "CONSTRUCT <r k=$k>$v</r> ORDER BY $k"
    ),
    "key_range": (
        'WHERE <i><k>$k</k><v>$v</v></i> IN "items", $k >= {lo}, $k < {hi} '
        "CONSTRUCT <r k=$k>$v</r> ORDER BY $k"
    ),
}


class ShardStorm:
    """Scatter-gather reads over a 16-shard key-range partitioned table."""

    name = "shard_storm"
    n_rows = 10_000
    n_shards = 16
    key_width = 300

    def __init__(self, seed: int):
        self.seed = seed
        self.rows = keyed_rows(random.Random(seed), self.n_rows)
        self.sizes = {"rows": self.n_rows, "shards": self.n_shards,
                      "templates": len(SHARD_TEMPLATES)}

    def build(self) -> "ShardStormInstance":
        return ShardStormInstance(self)


class ShardStormInstance(TemplateReads):
    templates = SHARD_TEMPLATES

    def __init__(self, workload: ShardStorm):
        self.workload = workload
        registry = SourceRegistry(SimClock())
        self.clock = registry.clock
        registry.register(items_source("s", workload.rows))
        catalog = Catalog(registry)
        catalog.map_relation("items", "s", "t")
        engine = NimbleEngine(catalog)
        deployment = partition_registry(registry, {"s": "k"},
                                        workload.n_shards)
        self.router = ShardRouter(engine, deployment)
        for op in self.warmup_ops():
            self.execute(op)

    def literals(self, rng: random.Random) -> dict[str, Zipf]:
        n = self.workload.n_rows
        # thresholds vary the query text (and so the plan cache) while
        # keeping each template's cost within a few percent, so a run's
        # latency percentiles do not hinge on which literal the seed
        # makes popular
        mid = range(450, 555, 5)
        return {
            "grouped_aggregate": Zipf(rng, shuffled(rng, mid)),
            "top_k": Zipf(rng, shuffled(rng, [(t, 10) for t in mid])),
            "distinct": Zipf(rng, shuffled(rng, mid)),
            "selective_sorted": Zipf(rng, shuffled(rng, range(985, 995))),
            "key_range": Zipf(rng, shuffled(
                rng, range(0, n - self.workload.key_width + 1, 100)
            )),
        }

    def params(self, template: str, literal) -> dict:
        if template == "top_k":
            return {"t": literal[0], "limit": literal[1]}
        if template == "key_range":
            return {"lo": literal, "hi": literal + self.workload.key_width}
        return {"t": literal}

    def execute(self, op):
        return self.router.query(op[2])

    def check(self, op, result) -> tuple:
        _, template, _, params = op
        expect(result.completeness.complete, "partial answer")
        rows = self.workload.rows
        elements = result.elements
        if template == "grouped_aggregate":
            want: dict = {}
            for _, g, v in rows:
                if v > params["t"]:
                    total, n = want.get(g, (0, 0))
                    want[g] = (total + v, n + 1)
            got = {
                int(e.attributes["k"]): (norm(child_text(e, "total")),
                                         norm(child_text(e, "n")))
                for e in elements
            }
            expect(len(got) == len(elements), "duplicate groups")
            expect(got == {g: (float(t), float(n))
                           for g, (t, n) in want.items()}, "aggregate")
        elif template == "top_k":
            values = sorted((v for _, _, v in rows if v > params["t"]),
                            reverse=True)[:params["limit"]]
            got = [(int(e.attributes["k"]), int(e.text_content()))
                   for e in elements]
            expect([v for _, v in got] == values, "top-k values")
            expect(len({k for k, _ in got}) == len(got), "top-k keys")
            expect(all(rows[k][2] == v for k, v in got), "top-k rows")
        elif template == "distinct":
            want_groups = sorted({g for _, g, v in rows if v < params["t"]})
            got_groups = sorted(int(e.text_content()) for e in elements)
            expect(got_groups == want_groups, "distinct groups")
        else:
            if template == "selective_sorted":
                want_rows = [(k, v) for k, _, v in rows if v > params["t"]]
            else:
                want_rows = [(k, v) for k, _, v in rows
                             if params["lo"] <= k < params["hi"]]
            got = [(int(e.attributes["k"]), int(e.text_content()))
                   for e in elements]
            expect(got == want_rows, f"{template} rows")
        return fingerprint_read(template, result)

    def result_of(self, output):
        return output


# -- cdc_churn ------------------------------------------------------------------

class CdcChurn:
    """Source writes, CDC sync and view maintenance beside cached reads."""

    name = "cdc_churn"
    n_rows = 10_000
    n_buckets = 20
    changes_per_round = 20
    reads_per_round = 5
    beat_ms = 50.0
    #: holds all 20 bucket reads (about 2.4 MB) but not the full-scan
    #: loads of the two views, which are evicted during set-up
    cache_bytes = 4_000_000

    def __init__(self, seed: int):
        self.seed = seed
        self.rows = keyed_rows(random.Random(seed), self.n_rows)
        self.sizes = {"rows": self.n_rows, "buckets": self.n_buckets,
                      "changes_per_round": self.changes_per_round,
                      "reads_per_round": self.reads_per_round,
                      "cache_bytes": self.cache_bytes}

    @property
    def views(self) -> dict[str, str]:
        return {
            # rows mode: a key predicate, so value churn never flips
            # membership and the delta path stays on
            "lower_half": (
                'WHERE <i><k>$k</k><grp>$g</grp><v>$v</v></i> IN "items", '
                f"$k < {self.n_rows // 2} CONSTRUCT <r><k>$k</k><v>$v</v></r>"
            ),
            # groups mode: count/sum/avg retract exactly
            "by_group": (
                'WHERE <i><k>$k</k><grp>$g</grp><v>$v</v></i> IN "items" '
                "CONSTRUCT <g id=$g><n>count($v)</n><total>sum($v)</total>"
                "<mean>avg($v)</mean></g>"
            ),
        }

    def bucket_query(self, bucket: int) -> str:
        width = self.n_rows // self.n_buckets
        return (
            'WHERE <i><k>$k</k><v>$v</v></i> IN "items", '
            f"$k >= {bucket * width}, $k < {(bucket + 1) * width} "
            "CONSTRUCT <r k=$k>$v</r>"
        )

    def build(self) -> "CdcChurnInstance":
        return CdcChurnInstance(self)


class CdcChurnInstance:
    def __init__(self, workload: CdcChurn):
        self.workload = workload
        #: the oracle's copy of the table: key -> (grp, v)
        self.table = {k: (g, v) for k, g, v in workload.rows}
        registry = SourceRegistry(SimClock())
        self.clock = registry.clock
        self.source = items_source("s", workload.rows)
        registry.register(self.source)
        self.source.enable_cdc()
        catalog = Catalog(registry)
        catalog.map_relation("items", "s", "t")
        schema = MediatedSchema("m")
        for name, text in workload.views.items():
            schema.define_view(name, text)
        catalog.add_schema(schema)
        self.engine = NimbleEngine(
            catalog, materializer=MaterializationManager(self.clock),
            incremental=True, fragment_cache_bytes=workload.cache_bytes,
        )
        for name in workload.views:
            self.engine.maintain_view(name)
        for bucket in range(workload.n_buckets):
            self.execute(self._read(bucket))

    def _read(self, bucket: int) -> tuple:
        return (READ, "bucket", self.workload.bucket_query(bucket),
                {"bucket": bucket})

    def schedule(self, variant: int = 0):
        w = self.workload
        rng = random.Random(f"{w.seed}:{variant}")
        keys = Zipf(rng, shuffled(rng, range(w.n_rows)))
        buckets = Zipf(rng, shuffled(rng, range(w.n_buckets)))
        live = set(range(w.n_rows))
        dead: list[int] = []
        next_key = w.n_rows
        n_insert = n_delete = w.changes_per_round // 10
        kinds = (["update"] * (w.changes_per_round - n_insert - n_delete)
                 + ["insert"] * n_insert + ["delete"] * n_delete)

        def live_key() -> int:
            rank = keys.rank()
            while keys.items[rank] not in live:
                rank = (rank + 1) % len(keys.items)
            return keys.items[rank]

        while True:
            for kind in shuffled(rng, kinds):
                values = {"grp": rng.randrange(24), "v": rng.randrange(1000)}
                if kind == "insert":
                    if dead:
                        key = dead.pop(0)
                    else:
                        key, next_key = next_key, next_key + 1
                    live.add(key)
                else:
                    key = live_key()
                    if kind == "delete":
                        live.discard(key)
                        dead.append(key)
                yield (CHANGE, kind, key, values)
            yield (SYNC, "sync", None, None)
            for _ in range(w.reads_per_round):
                yield self._read(buckets.draw())

    def execute(self, op):
        kind = op[0]
        if kind == READ:
            return self.engine.query(op[2])
        if kind == SYNC:
            self.clock.advance(self.workload.beat_ms)
            return self.engine.sync_changes()
        _, change, key, values = op
        if change == "insert":
            return self.source.insert_row("t", {"k": key, **values})
        if change == "update":
            return self.source.update_row("t", key, values)
        return self.source.delete_row("t", key)

    def check(self, op, output) -> tuple:
        kind = op[0]
        if kind == CHANGE:
            _, change, key, values = op
            if change == "delete":
                del self.table[key]
            else:
                self.table[key] = (values["grp"], values["v"])
            return (change,)
        if kind == SYNC:
            self.check_views()
            return (kind, repr(sorted(output.items())))
        result = output
        expect(result.completeness.complete, "partial answer")
        width = self.workload.n_rows // self.workload.n_buckets
        lo = op[3]["bucket"] * width
        want = Counter((k, v) for k, (_, v) in self.table.items()
                       if lo <= k < lo + width)
        got = Counter((int(e.attributes["k"]), int(e.text_content()))
                      for e in result.elements)
        expect(got == want, "bucket read")
        return fingerprint_read("bucket", result)

    def check_views(self) -> None:
        views = self.engine.incremental.views
        half = self.workload.n_rows // 2
        want_rows = Counter((k, v) for k, (_, v) in self.table.items()
                            if k < half)
        got_rows = Counter(
            (int(child_text(e, "k")), int(child_text(e, "v")))
            for e in views["lower_half"].elements
        )
        expect(got_rows == want_rows, "lower_half view")
        groups: dict[int, list[int]] = {}
        for g, v in self.table.values():
            groups.setdefault(g, []).append(v)
        got = {int(e.attributes["id"]): e for e in views["by_group"].elements}
        expect(sorted(got) == sorted(groups), "by_group view groups")
        for g, values in groups.items():
            e = got[g]
            expect(int(child_text(e, "n")) == len(values), "by_group count")
            expect(float(child_text(e, "total")) == sum(values),
                   "by_group sum")
            expect(math.isclose(float(child_text(e, "mean")),
                                sum(values) / len(values), rel_tol=1e-9),
                   "by_group avg")

    def result_of(self, output):
        return output


WORKLOADS = {w.name: w for w in (WebView, ShardStorm, CdcChurn)}
