"""E8 — the Figure 1 pipeline end to end, swept over n = 50 → 2000.

The paper's only figure is the architecture diagram: front end (lenses)
-> integration engine (parse, compile against the metadata server,
execute over wrappers) -> data sources.  This bench runs one lens query
of the web-site workload — a price filter over the ``product_page``
mediated view — at four catalog sizes and reports, per size, the rows
the sources transfer, the modelled remote latency (virtual ms) and the
mediator's own wall time, beside the figures recorded for the same
sweep before view unfolding (the sub-query path that built every page
element and matched it again).  The wall time of ``vectorized=True`` on
the same plan is reported next to the row path's.

A second table splits one invocation at n = 2000 by stage: parse, bind,
compile, execute, lens formatting.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from common import BenchStats, print_table, write_bench_json

from repro import NimbleEngine, format_result
from repro.optimizer.decomposer import decompose
from repro.query.binder import bind_query
from repro.query.parser import parse_query
from repro.workloads import make_website_workload

QUERY = (
    'WHERE <page sku=$s><name>$n</name><price>$p</price></page> '
    'IN "product_page", $p < 250 '
    "CONSTRUCT <row sku=$s><name>$n</name><price>$p</price></row> "
    "ORDER BY $p"
)

SIZES = (50, 250, 1000, 2000)
REPEATS = 7

#: the same sweep measured at commit d3795f5, before view unfolding, on
#: a 2-vCPU shared VM (Python 3.11): n -> (rows transferred, virtual ms,
#: row-path wall ms, vectorized wall ms); walls are medians of 7 warm runs
BEFORE_UNFOLDING = {
    50: (100, 65.0, 8.2, 7.7),
    250: (500, 165.0, 38.1, 36.0),
    1000: (2000, 540.0, 174.0, 147.5),
    2000: (4000, 1040.0, 288.8, 355.2),
}

HEADERS = [
    "n", "answer rows",
    "rows moved (before)", "rows moved",
    "virtual ms (before)", "virtual ms",
    "wall ms (before)", "wall ms",
    "vectorized wall ms (before)", "vectorized wall ms",
]

BENCH_STATS = BenchStats()


def warm_wall_ms(engine: NimbleEngine):
    """Median wall time of repeated warm runs, plus the last result."""
    result = engine.query(QUERY)  # compile once; later runs hit the plan cache
    walls = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        result = engine.query(QUERY)
        walls.append((time.perf_counter() - started) * 1000)
    return statistics.median(walls), result


def run_experiment() -> list[list]:
    BENCH_STATS.reset()
    rows = []
    for n in SIZES:
        catalog = make_website_workload(n, seed=23).catalog
        wall, result = warm_wall_ms(NimbleEngine(catalog))
        BENCH_STATS.absorb(result)
        vector_catalog = make_website_workload(n, seed=23).catalog
        vector_wall, _ = warm_wall_ms(
            NimbleEngine(vector_catalog, vectorized=True)
        )
        moved, virtual, wall_before, vector_before = BEFORE_UNFOLDING[n]
        rows.append([
            n, len(result.elements),
            moved, result.stats.rows_transferred,
            virtual, result.stats.elapsed_virtual_ms,
            wall_before, round(wall, 1),
            vector_before, round(vector_wall, 1),
        ])
    return rows


def run_stages(n: int = SIZES[-1]) -> list[list]:
    """One cold lens invocation at ``n``, split by pipeline stage."""
    engine = NimbleEngine(make_website_workload(n, seed=23).catalog)

    def wall(fn):
        started = time.perf_counter()
        value = fn()
        return value, (time.perf_counter() - started) * 1000

    query, parse_ms = wall(lambda: parse_query(QUERY))
    bound, bind_ms = wall(lambda: bind_query(query))
    _, decompose_ms = wall(
        lambda: decompose(bound, engine.catalog, engine.pushdown)
    )
    before_virtual = engine.clock.now
    result, execute_ms = wall(lambda: engine.query(query))
    execute_virtual = engine.clock.now - before_virtual
    _, format_ms = wall(lambda: format_result(result.elements, "web"))
    stages = [
        ["parse (query language)", parse_ms, 0.0],
        ["bind (semantic analysis)", bind_ms, 0.0],
        ["compile (metadata server + decompose)", decompose_ms, 0.0],
        ["execute (wrappers + algebra)", execute_ms, execute_virtual],
        ["format (lens device rendering)", format_ms, 0.0],
    ]
    stages.append([
        "TOTAL", sum(row[1] for row in stages), execute_virtual,
    ])
    return [[name, round(ms, 2), virtual] for name, ms, virtual in stages]


def report():
    rows = run_experiment()
    print_table(
        "E8: product_page lens query, n = 50 -> 2000, before / after view "
        "unfolding",
        HEADERS, rows,
    )
    stages = run_stages()
    print_table(
        f"E8: one cold invocation at n = {SIZES[-1]}, per stage",
        ["stage", "wall ms", "virtual ms (remote)"], stages,
    )
    largest = rows[-1]
    write_bench_json(
        "e8_end_to_end", HEADERS, rows,
        headline={
            "rows_moved_n2000": largest[3],
            "virtual_ms_n2000": largest[5],
            "wall_ms_n2000": largest[7],
            "vectorized_wall_ms_n2000": largest[9],
        },
        stats=BENCH_STATS,
    )
    return rows


def test_e8_end_to_end(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    for row in rows:
        n, answers, moved_before, moved, virtual_before, virtual = row[:6]
        assert answers > 0
        # outer price predicate now reaches the stock table
        assert moved < moved_before
        assert virtual < virtual_before
    report()


if __name__ == "__main__":
    report()
