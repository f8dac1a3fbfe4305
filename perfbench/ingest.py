"""``ingest``: plan each paper table once, then compress and append chunks.

Set-up generates the four tables and picks each one's plan from a fixed
sample (``fixtures.detected_plan``): users pay detection once per table,
so it lands in ``setup_s``.  Each op compresses one fixed-size chunk with
``TableCompressor`` and appends the block to that table's ``.corra`` file
through ``TableWriter``.  Encoding, scheme selection, bit packing and
serialisation do all the work; no query, cache or server code runs.

Tables take equal turns.  Each table's chunk size is fixed, and chosen so
that the tables' op costs step up by about a quarter from one to the next
(2-vCPU shared VM: lineitem ~12 ms, taxi ~15, message ~19, dmv ~23).  On
that VM the CPU speed alternates between two modes 1.4-1.5x apart, in
phases of a second or more.  Equal 25,000-row chunks put the op costs on
a ladder with about that same step, so the median jumps a whole step
whenever a run's share of slow phases crosses one half (IQR/median up to
0.27 over ten seeds, against 0.11-0.18 for throughput); finer steps keep
those jumps small.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import fixtures as F
import harness as H
import spans as S
from repro import SingleColumnBaseline, TableCompressor, TableReader, TableWriter

#: Rows per chunk (and per written block) of each table; see the module doc.
CHUNK_ROWS = {"lineitem": 22_000, "taxi": 20_000, "message": 23_000, "dmv": 21_000}
CHUNKS = {name: F.N_ROWS // rows for name, rows in CHUNK_ROWS.items()}


def build_ops() -> list:
    """(table, chunk index) per op; tables take turns, each cycling its chunks."""
    return [(name, turn % CHUNKS[name])
            for turn in range(max(CHUNKS.values())) for name in CHUNK_ROWS]


@dataclass
class State:
    tables: dict
    chunks: dict
    plans: dict
    writers: dict
    paths: dict
    ops: list
    compressor: TableCompressor
    appended: dict = field(default_factory=dict)  # table -> [(chunk index, bytes)]
    column_sizes: dict = field(default_factory=dict)  # (table, chunk) -> {column: bytes}
    warm_blocks: dict = field(default_factory=dict)  # table -> blocks appended in warm-up


def plan_tables(tables: dict) -> dict:
    return {name: F.detected_plan(name, table) for name, table in tables.items()}


def setup(seed: int, workdir) -> State:
    tables = F.generate_tables(seed)
    plans = plan_tables(tables)
    chunks = {
        name: [table.slice(i * CHUNK_ROWS[name], (i + 1) * CHUNK_ROWS[name])
               for i in range(CHUNKS[name])]
        for name, table in tables.items()
    }
    paths = {name: workdir.path / f"ingest-{name}.corra" for name in tables}
    writers = {name: TableWriter(paths[name], tables[name].schema, CHUNK_ROWS[name])
               for name in tables}
    return State(tables, chunks, plans, writers, paths, build_ops(), TableCompressor(),
                 appended={name: [] for name in tables})


def close(state: State) -> None:
    for writer in state.writers.values():
        writer.close()


def teardown(state: State) -> None:
    close(state)
    for path in state.paths.values():
        path.unlink(missing_ok=True)


def execute(state: State, index: int) -> int:
    """Compress and append one chunk; returns the bytes written."""
    name, chunk = state.ops[index % len(state.ops)]
    block = state.compressor.compress_block(state.chunks[name][chunk], state.plans[name])
    entry = state.writers[name].write_block(block)
    state.appended[name].append((chunk, entry.length))
    if (name, chunk) not in state.column_sizes:
        state.column_sizes[(name, chunk)] = {c: block.column_size(c) for c in block.column_names}
    return entry.length


def check(state: State) -> int:
    """Re-open every written file and round-trip its blocks; returns mismatches.

    The first block written from each chunk is decoded and compared with
    the chunk; every later block from the same chunk must be byte-identical
    to it (compression is deterministic), which proves the same round trip
    without decoding it again.  Warm-up blocks are checked but not counted.
    """
    failed = 0
    for name, appended in state.appended.items():
        verified: dict = {}
        with TableReader(state.paths[name]) as reader:
            failed += abs(reader.n_blocks - len(appended))
            for position, (chunk, _) in enumerate(appended[: reader.n_blocks]):
                payload = reader.read_block_bytes(position)
                if chunk in verified:
                    ok = payload == verified[chunk]
                else:
                    ok = _round_trips(reader.read_block(position), state.chunks[name][chunk])
                    if ok:
                        verified[chunk] = payload
                failed += not ok and position >= state.warm_blocks[name]
    return failed


def _round_trips(block, source) -> bool:
    for column in source.column_names:
        decoded, expected = block.decode_column(column), source.column(column)
        if isinstance(expected, list):
            if list(decoded) != expected:
                return False
        elif not np.array_equal(decoded, expected):
            return False
    return True


def warm_up(state: State) -> None:
    H.warm_up(lambda index: execute(state, index))
    state.warm_blocks = {name: len(appended) for name, appended in state.appended.items()}


def stored_ratio(state: State) -> float:
    """Block bytes over raw bytes for one pass of the op list (fixed per seed)."""
    written = {}
    for name, appended in state.appended.items():
        for chunk, length in appended:
            written[(name, chunk)] = length
    stored = raw = 0
    for name, chunk in state.ops:
        stored += written[(name, chunk)]
        raw += state.chunks[name][chunk].uncompressed_size()
    return stored / raw


def run(seed: int, seconds: float, trace: bool, workdir) -> dict:
    if not trace:
        setups, state = H.timed_setups(lambda: setup(seed, workdir), teardown)
        try:
            warm_up(state)
            loop = H.closed_loop(lambda index: execute(state, index), seconds)
            close(state)
            rss = H.peak_rss_mb()  # before the check decodes anything
            failed = check(state) + loop.errors
            metrics = H.end_to_end(loop, setups, rss, stored_ratio(state))
        finally:
            teardown(state)
        return {"attempted": loop.attempted, "failed": failed, "metrics": metrics,
                "record": {**record(state), **H.loop_record(loop, setups)}}

    state = setup(seed, workdir)
    try:
        op = lambda index: execute(state, index)
        warm_up(state)
        plain = H.closed_loop(op, seconds)
        recorder = S.Recorder()
        instrumentation = S.Instrumentation(recorder).install()
        try:
            with recorder.op("setup"):
                plan_tables(state.tables)
            traced = H.closed_loop(op, seconds, around=recorder.op)
        finally:
            instrumentation.restore()
        recorder.dump(workdir.trace_path("ingest"))
        close(state)
        failed = check(state) + plain.errors + traced.errors
        setup_attribution = S.attribute(recorder, ops={"setup"})
        op_attribution = S.attribute(recorder, ops=set(range(traced.attempted)))
        metrics = S.layer_self_metrics(op_attribution)
        for layer in ("core.detect", "core.rule_mining", "core.optimizer"):
            metrics[f"{layer}.self_ms"] = setup_attribution.per_op_ms(layer)
        metrics["bench.tracing_overhead_frac"] = 1.0 - traced.throughput / plain.throughput
        metrics["storage.bytes_written_per_op"] = (
            sum(length for _, length in traced.results) / len(traced.results)
        )
        metrics.update(savings(state))
    finally:
        teardown(state)
    return {"attempted": plain.attempted + traced.attempted, "failed": failed,
            "metrics": metrics, "record": record(state),
            "spans_well_formed": S.span_faults(recorder) == 0}


def savings(state: State) -> dict:
    """Saving over the single-column baseline for each paper column."""
    baseline = SingleColumnBaseline()
    out = {}
    for name, column in F.PAPER_COLUMNS:
        corra = base = 0
        for chunk in range(CHUNKS[name]):
            sizes = state.column_sizes.get((name, chunk))
            if sizes is None:
                continue
            corra += sizes[column]
            base += baseline.select_column(state.chunks[name][chunk], column).size_bytes
        out[f"core.saving.{name}.{column}"] = 1.0 - corra / base if base else 0.0
    return out


def record(state: State) -> dict:
    return {
        "rows_per_table": F.N_ROWS,
        "chunk_rows": CHUNK_ROWS,
        "detect_sample_rows": F.DETECT_SAMPLE_ROWS,
        "plans": {name: plan.describe().splitlines() for name, plan in state.plans.items()},
    }
