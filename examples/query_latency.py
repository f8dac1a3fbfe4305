#!/usr/bin/env python3
"""Query-latency experiment on compressed relations (paper Figs. 5-7 style).

Builds three relations over the TPC-H date pair — uncompressed, best
single-column baseline, and Corra's non-hierarchical encoding — and measures
the materialisation latency across selectivities for (i) the diff-encoded
column alone and (ii) both columns.  The printed ratios mirror the y-axis of
the paper's Fig. 5: a modest slowdown when only the diff-encoded column is
fetched, and roughly parity when the reference column is needed anyway.

The second half demonstrates the structured scan pipeline: predicates are IR
nodes (``Eq``/``Between``/``In`` composable with ``&``/``|``) that the scan
planner tests against each block's zone map, so selective scans over the
sorted date column decode only the overlapping blocks and ``ScanMetrics``
reports exactly how much decoding was skipped.

Run with::

    python examples/query_latency.py [n_rows]
"""

from __future__ import annotations

import sys

import numpy as np

from repro import (
    Between,
    CompressionPlan,
    Eq,
    SingleColumnBaseline,
    Table,
    TableCompressor,
    TpchLineitemGenerator,
    UncompressedBaseline,
)
from repro.query import latency_ratio, sweep_query_latency

SELECTIVITIES = (0.005, 0.01, 0.05, 0.1, 0.5, 1.0)


def demo_scan_pruning(n_rows: int) -> None:
    """Predicate IR + zone maps: selective scans skip non-overlapping blocks."""
    table = TpchLineitemGenerator().generate(n_rows).select(
        ["l_shipdate", "l_receiptdate"]
    )
    ship = np.asarray(table.column("l_shipdate"))
    order = np.argsort(ship, kind="stable")
    sorted_table = Table(
        table.schema,
        {name: np.asarray(table.column(name))[order] for name in table.column_names},
    )
    plan = (
        CompressionPlan.builder(sorted_table.schema)
        .diff_encode("l_receiptdate", reference="l_shipdate")
        .build()
    )
    relation = TableCompressor(plan, block_size=max(n_rows // 16, 1)).compress(
        sorted_table
    )
    lo = int(np.quantile(ship, 0.40))
    hi = int(np.quantile(ship, 0.45))
    predicate = Between("l_shipdate", lo, hi) & Eq(
        "l_receiptdate", int(np.quantile(ship, 0.42)) + 7
    )
    query = relation.query().where(predicate)
    count = query.count()
    metrics = query.last_metrics
    print(f"\nscan pruning on the sorted relation ({relation.n_blocks} blocks):")
    print(f"  predicate: {predicate.describe()}")
    print(f"  count:     {count:,} rows")
    print(f"  metrics:   {metrics.describe()}")


def main(n_rows: int = 200_000) -> None:
    table = TpchLineitemGenerator().generate(n_rows).select(
        ["l_shipdate", "l_receiptdate"]
    )
    baseline_relation = SingleColumnBaseline().compress(table)
    uncompressed_relation = UncompressedBaseline().compress(table)
    plan = (
        CompressionPlan.builder(table.schema)
        .diff_encode("l_receiptdate", reference="l_shipdate")
        .build()
    )
    corra_relation = TableCompressor(plan).compress(table)

    sizes = {
        "uncompressed": uncompressed_relation.size_bytes,
        "single-column baseline": baseline_relation.size_bytes,
        "Corra (non-hierarchical)": corra_relation.size_bytes,
    }
    print("relation sizes:")
    for label, size in sizes.items():
        print(f"  {label:<26} {size:>12,} bytes")

    for query_label, columns in (
        ("diff-encoded column only", ["l_receiptdate"]),
        ("both columns", ["l_shipdate", "l_receiptdate"]),
    ):
        corra_sweep = sweep_query_latency(corra_relation, columns, SELECTIVITIES, n_vectors=5)
        baseline_sweep = sweep_query_latency(baseline_relation, columns, SELECTIVITIES, n_vectors=5)
        ratios = latency_ratio(corra_sweep, baseline_sweep)
        print(f"\nquery on {query_label}:")
        print(f"  {'selectivity':>12} {'baseline ms':>12} {'Corra ms':>10} {'ratio':>7}")
        for selectivity in SELECTIVITIES:
            base_ms = baseline_sweep.measurement(selectivity).mean_milliseconds()
            corra_ms = corra_sweep.measurement(selectivity).mean_milliseconds()
            ratio = ratios[selectivity]
            print(f"  {selectivity:>12} {base_ms:>12.2f} {corra_ms:>10.2f} {ratio:>6.2f}x")

    demo_scan_pruning(n_rows)


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 200_000)
