"""``scan``: the paper's encodings queried in memory through one ``Engine``.

Four in-memory relations (the paper tables under ``fixtures.paper_plan``)
and a seeded mix of named query shapes.  Decode, predicate kernels and
aggregation do all the work; no storage, cache or server code runs.

The mix is a shuffled cycle with exact per-shape counts, chosen so that no
shape takes most of the time and so that the median and the 95th
percentile each fall inside one shape's latency band rather than on the
edge between two (an edge makes a percentile jump from run to run).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

import fixtures as F
import harness as H
import spans as S
from repro import TableCompressor
from repro.query import Engine, materialize_columns

#: Ops of each shape in one cycle of 100.  Measured p50 on a 2-core box:
#: materialize and RLE 1-3 ms (30%), diff filter and top-k 7-8 ms (40%,
#: holds the median), Taxi multi-reference ~30 ms (20%), group-by ~60 ms
#: (7%, holds p95), hierarchical filter ~170 ms (3%).
SHAPE_COUNTS = {
    "fig5_materialize_receiptdate": 8,
    "rle_between_for_sum": 8,
    "fig8_materialize_total": 7,
    "fig5_materialize_ip": 7,
    "diff_between_sum": 20,
    "topk_receiptdate": 20,
    "taxi_multiref_between_sum": 20,
    "groupby_state": 7,
    "hier_between_count": 3,
}
CYCLE = sum(SHAPE_COUNTS.values())
CYCLES = 4

#: ScanMetrics counters reported per op (exact counts over the first cycle).
SCAN_COUNTERS = {
    "query.scan.rows_decoded_per_op": "rows_decoded",
    "query.scan.kernel_declines_per_op": "kernel_declines",
    "query.scan.rows_kernel_evaluated_per_op": None,  # RLE + FOR/delta word space
    "query.scan.rows_gathered_per_op": "rows_gathered",
}


def build_ops(seed: int, sorted_columns) -> list:
    rng = np.random.default_rng([seed, 2])
    ops = []
    for _ in range(CYCLES):
        cycle = [F.make_op(shape, rng, sorted_columns)
                 for shape, count in SHAPE_COUNTS.items() for _ in range(count)]
        ops.extend(cycle[i] for i in rng.permutation(len(cycle)))
    return ops


@dataclass
class Oracle:
    """The op list and every op's expected answer, built once per run.

    It comes from its own generation of the tables, outside the timed
    set-up.  The decoded arrays are kept only when the traced run needs
    them for the floor timings; otherwise they are dropped before the
    first set-up, so ``peak_rss_mb`` holds the library's relations and
    the answers, not a second copy of the data.
    """

    ops: list
    expected: list  # canonical numpy answer of each op
    arrays: dict | None


def build_oracle(seed: int, keep_arrays: bool) -> Oracle:
    arrays = F.decoded_arrays(F.generate_tables(seed))
    ops = build_ops(seed, F.sorted_column_cache(arrays))
    expected = [F.canonical(F.floor(op, arrays)) for op in ops]
    return Oracle(ops, expected, arrays if keep_arrays else None)


@dataclass
class State:
    relations: dict
    engine: Engine
    stored_ratio: float


def setup(seed: int) -> State:
    """Generate the tables, compress them in memory, open an engine."""
    tables = F.generate_tables(seed)
    relations = {
        name: TableCompressor(F.paper_plan(name, table.schema), block_size=F.BLOCK_ROWS)
        .compress(table)
        for name, table in tables.items()
    }
    stored = sum(relation.size_bytes for relation in relations.values())
    raw = sum(table.uncompressed_size() for table in tables.values())
    return State(relations, Engine(), stored / raw)


def teardown(state: State) -> None:
    state.engine.close()


def execute(state: State, op):
    """Run one op; returns (output columns, ScanMetrics or None)."""
    relation = state.relations[op.table]
    if op.rows is not None:
        return materialize_columns(relation, op.select, op.rows), None
    result = F.to_lazy(op, state.engine.query(relation)).execute()
    return result.columns, result.metrics


def check(oracle: Oracle, loop: H.Loop) -> int:
    """Compare every op's output with the numpy floor; returns mismatches."""
    return sum(F.canonical(columns) != oracle.expected[index % len(oracle.ops)]
               for index, (columns, _) in loop.results)


def run(seed: int, seconds: float, trace: bool, workdir) -> dict:
    oracle = build_oracle(seed, keep_arrays=trace)
    ops = oracle.ops
    if not trace:
        setups, state = H.timed_setups(lambda: setup(seed), teardown)
        try:
            op = lambda index: execute(state, ops[index % len(ops)])
            H.warm_up(op)
            loop = H.closed_loop(op, seconds)
            rss = H.peak_rss_mb()
        finally:
            teardown(state)
        failed = check(oracle, loop) + loop.errors
        metrics = H.end_to_end(loop, setups, rss, state.stored_ratio)
        return {"attempted": loop.attempted, "failed": failed, "metrics": metrics,
                "record": {**record(ops), **H.loop_record(loop, setups)}}

    state = setup(seed)
    try:
        op = lambda index: execute(state, ops[index % len(ops)])
        H.warm_up(op)
        plain = H.closed_loop(op, seconds)
        recorder = S.Recorder()
        instrumentation = S.Instrumentation(recorder).install()
        try:
            traced = H.closed_loop(op, seconds, around=recorder.op)
        finally:
            instrumentation.restore()
        recorder.dump(workdir.trace_path("scan"))
    finally:
        teardown(state)
    failed = check(oracle, plain) + check(oracle, traced) + plain.errors + traced.errors
    metrics = layer_metrics(oracle, plain, traced, S.attribute(recorder))
    return {"attempted": plain.attempted + traced.attempted, "failed": failed,
            "metrics": metrics, "record": record(ops),
            "spans_well_formed": S.span_faults(recorder) == 0}


def layer_metrics(oracle: Oracle, plain: H.Loop, traced: H.Loop, attribution) -> dict:
    metrics = S.layer_self_metrics(attribution)
    metrics["bench.tracing_overhead_frac"] = 1.0 - traced.throughput / plain.throughput

    first_cycle = [(index, scan) for index, (_, scan) in traced.results if index < CYCLE]
    for name, field in SCAN_COUNTERS.items():
        total = 0
        for _, scan in first_cycle:
            if scan is None:
                continue
            total += (scan.rows_rle_evaluated + scan.rows_for_evaluated) if field is None \
                else getattr(scan, field)
        metrics[name] = total / len(first_cycle)

    latencies: dict = {}
    for (index, _), latency in zip(plain.results, plain.latencies):
        latencies.setdefault(oracle.ops[index % len(oracle.ops)].shape, []).append(latency)
    floors: dict = {}
    for op in oracle.ops[:CYCLE]:
        began = time.perf_counter()
        F.floor(op, oracle.arrays)
        floors.setdefault(op.shape, []).append(time.perf_counter() - began)
    declines: dict = {}
    for index, scan in first_cycle:
        if scan is not None:
            counts = declines.setdefault(oracle.ops[index].shape, [0, 0])
            counts[0] += scan.kernel_declines
            counts[1] += scan.blocks_scanned
    for shape in SHAPE_COUNTS:
        p50 = float(np.median(latencies[shape])) if shape in latencies else 0.0
        metrics[f"query.shape.{shape}.p50_ms"] = p50 * 1e3
        metrics[f"query.shape.{shape}.floor_ratio"] = p50 / float(np.median(floors[shape]))
        declined, scanned = declines.get(shape, (0, 0))
        metrics[f"query.shape.{shape}.decline_frac"] = declined / scanned if scanned else 0.0
    return metrics


def record(ops: list) -> dict:
    return {
        "rows_per_table": F.N_ROWS,
        "block_rows": F.BLOCK_ROWS,
        "ops_in_list": len(ops),
        "shape_counts_per_cycle": SHAPE_COUNTS,
        "engine_workers": 1,
    }
