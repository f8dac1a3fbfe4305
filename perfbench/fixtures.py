"""Seeded inputs shared by the workloads.

Everything here is a pure function of the ``--seed`` argument: the four
paper tables, the compression plans, and the named query shapes with
their parameters.  Each query op can be rendered three ways — as a
``LazyQuery`` chain (``scan``), as a ``/query`` JSON body (``serve``) and
as plain numpy over the generated arrays (the floor, which is also the
correctness oracle).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import (
    CompressionPlan,
    CorrelationDetector,
    DiffEncodingOptimizer,
    DmvGenerator,
    LdbcMessageGenerator,
    TaxiGenerator,
    TpchLineitemGenerator,
    taxi_multi_reference_config,
)
from repro.core import mine_multi_reference_config
from repro.errors import ConfigurationError
from repro.query import Between, Count, Sum

#: Rows per generated table, and rows per block (8 blocks per table).
N_ROWS = 200_000
BLOCK_ROWS = 25_000
#: Rows the ingest planner inspects.  The detector extrapolates sizes
#: linearly, so a sample near one block is what a block would save.
DETECT_SAMPLE_ROWS = 10_000

GENERATORS = {
    "lineitem": TpchLineitemGenerator,
    "dmv": DmvGenerator,
    "taxi": TaxiGenerator,
    "message": LdbcMessageGenerator,
}

#: The paper's columns (Table 2) whose saving the ingest trace reports.
PAPER_COLUMNS = (
    ("lineitem", "l_receiptdate"),
    ("lineitem", "l_commitdate"),
    ("taxi", "dropoff"),
    ("taxi", "total_amount"),
    ("dmv", "zip_code"),
    ("message", "ip"),
)


def generate_tables(seed: int) -> dict:
    return {name: cls().generate(N_ROWS, seed) for name, cls in GENERATORS.items()}


def paper_plan(name: str, schema) -> CompressionPlan:
    """The paper's encodings plus explicit vertical FOR/RLE/dictionary columns."""
    builder = CompressionPlan.builder(schema)
    if name == "lineitem":
        builder.diff_encode("l_receiptdate", "l_shipdate").diff_encode("l_commitdate", "l_shipdate")
        builder.vertical("l_quantity", "for_bitpack")
    elif name == "dmv":
        builder.hierarchical_encode("zip_code", "city")
        builder.vertical("record_type", "rle").vertical("state", "dictionary")
        builder.vertical("model_year", "for_bitpack")
    elif name == "taxi":
        builder.multi_reference_encode("total_amount", taxi_multi_reference_config())
        builder.diff_encode("dropoff", "pickup")
    elif name == "message":
        builder.hierarchical_encode("ip", "countryid").vertical("countryid", "for_bitpack")
    return builder.build()


def detected_plan(name: str, table) -> CompressionPlan:
    """Pick a plan the way the paper does, from a fixed sample.

    Taxi ``total_amount`` gets mined multi-reference rules; the diff
    optimizer assigns non-hierarchical pairs; the detector's hierarchical
    suggestions fill in the rest.  A suggestion that would re-plan a column
    or create a reference chain is skipped.
    """
    sample = table.slice(0, DETECT_SAMPLE_ROWS)
    builder = CompressionPlan.builder(table.schema)
    planned: set = set()

    def apply(target: str, add) -> None:
        if target in planned:
            return
        try:
            add()
        except ConfigurationError:
            return
        planned.add(target)

    if name == "taxi":
        config, _ = mine_multi_reference_config(sample, "total_amount")
        apply("total_amount", lambda: builder.multi_reference_encode("total_amount", config))
    _, configuration = DiffEncodingOptimizer().optimize(sample)
    for target, reference in configuration.assignments.items():
        apply(target, lambda: builder.diff_encode(target, reference))
    for suggestion in CorrelationDetector(sample_rows=None).suggest(sample):
        if suggestion.kind == "hierarchical":
            apply(
                suggestion.target,
                lambda: builder.hierarchical_encode(suggestion.target, suggestion.references[0]),
            )
    return builder.build()


def decoded_arrays(tables: dict) -> dict:
    """``{table: {column: numpy array}}`` of the generated (raw) values."""
    return {
        name: {column: np.asarray(table.column(column)) for column in table.column_names}
        for name, table in tables.items()
    }


# -- query ops -------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class QueryOp:
    """One query: a named shape with concrete, seeded parameters."""

    shape: str
    table: str
    where: tuple = ()  # conjunction of (column, lo, hi) ranges
    aggregates: tuple = ()  # ((output, fn, column or None), ...)
    group_by: tuple = ()
    select: tuple = ()
    order_by: str | None = None
    desc: bool = False
    k: int | None = None
    rows: np.ndarray | None = None  # materialize_columns selection (row ids)


def _range(rng, sorted_values: np.ndarray, width: float) -> tuple[int, int]:
    """A value range covering about ``width`` of the rows."""
    n = sorted_values.size
    start = rng.uniform(0.0, 1.0 - width)
    lo = int(sorted_values[int(start * n)])
    hi = int(sorted_values[min(n - 1, int((start + width) * n))])
    return lo, hi


def _selection(rng, fraction: float) -> np.ndarray:
    return np.sort(rng.choice(N_ROWS, size=int(N_ROWS * fraction), replace=False)).astype(np.int64)


def make_op(shape: str, rng, sorted_columns) -> QueryOp:
    """Draw one op of ``shape``; ``sorted_columns(table, column)`` gives sorted values."""
    if shape == "rle_between_for_sum":
        lo = int(rng.choice([2, 3]))
        return QueryOp(shape, "dmv", (("record_type", lo, 3),),
                       (("n", "count", None), ("years", "sum", "model_year")))
    if shape == "rle_and_for_between_sum":
        lo = int(rng.choice([2, 3]))
        year_lo, year_hi = _range(rng, sorted_columns("dmv", "model_year"), 0.5)
        return QueryOp(shape, "dmv", (("record_type", lo, 3), ("model_year", year_lo, year_hi)),
                       (("n", "count", None), ("years", "sum", "model_year")))
    if shape == "taxi_multiref_between_sum":
        lo, hi = _range(rng, sorted_columns("taxi", "total_amount"), 0.2)
        return QueryOp(shape, "taxi", (("total_amount", lo, hi),),
                       (("n", "count", None), ("total", "sum", "total_amount")))
    if shape == "diff_between_sum":
        lo, hi = _range(rng, sorted_columns("lineitem", "l_receiptdate"), 0.1)
        return QueryOp(shape, "lineitem", (("l_receiptdate", lo, hi),),
                       (("n", "count", None), ("qty", "sum", "l_quantity")))
    if shape == "hier_between_count":
        lo, hi = _range(rng, sorted_columns("dmv", "zip_code"), 0.1)
        return QueryOp(shape, "dmv", (("zip_code", lo, hi),), (("n", "count", None),))
    if shape == "groupby_state":
        lo, hi = _range(rng, sorted_columns("dmv", "model_year"), 0.3)
        return QueryOp(shape, "dmv", (("model_year", lo, hi),),
                       (("n", "count", None), ("zips", "sum", "zip_code")), group_by=("state",))
    if shape == "topk_receiptdate":
        lo, hi = _range(rng, sorted_columns("lineitem", "l_shipdate"), 0.2)
        return QueryOp(shape, "lineitem", (("l_shipdate", lo, hi),),
                       select=("l_orderkey", "l_receiptdate"), order_by="l_receiptdate",
                       desc=True, k=10)
    if shape == "fig5_materialize_receiptdate":
        return QueryOp(shape, "lineitem", select=("l_shipdate", "l_receiptdate"),
                       rows=_selection(rng, 0.01))
    if shape == "fig5_materialize_ip":
        return QueryOp(shape, "message", select=("countryid", "ip"), rows=_selection(rng, 0.01))
    if shape == "fig8_materialize_total":
        return QueryOp(shape, "taxi", select=("total_amount",), rows=_selection(rng, 0.01))
    raise ValueError(f"unknown shape {shape!r}")


def sorted_column_cache(arrays: dict):
    cache: dict = {}

    def sorted_columns(table: str, column: str) -> np.ndarray:
        key = (table, column)
        if key not in cache:
            cache[key] = np.sort(arrays[table][column])
        return cache[key]

    return sorted_columns


_AGGREGATES = {"count": Count, "sum": Sum}


def to_lazy(op: QueryOp, lazy):
    """Apply ``op`` to a fresh ``LazyQuery`` chain."""
    if op.where:
        lazy = lazy.where(*(Between(column, lo, hi) for column, lo, hi in op.where))
    if op.select:
        lazy = lazy.select(*op.select)
    if op.group_by:
        lazy = lazy.group_by(*op.group_by)
    if op.aggregates:
        lazy = lazy.agg(**{
            out: (_AGGREGATES[fn]() if column is None else _AGGREGATES[fn](column))
            for out, fn, column in op.aggregates
        })
    if op.order_by is not None:
        lazy = lazy.order_by(op.order_by, desc=op.desc).limit(op.k)
    return lazy


def to_request(op: QueryOp) -> dict:
    """``op`` as a ``/query`` JSON body."""
    body: dict = {"table": op.table}
    if op.where:
        leaves = [{"op": "between", "column": column, "lo": lo, "hi": hi}
                  for column, lo, hi in op.where]
        body["where"] = leaves[0] if len(leaves) == 1 else {"op": "and", "children": leaves}
    if op.select:
        body["select"] = list(op.select)
    if op.group_by:
        body["group_by"] = list(op.group_by)
    if op.aggregates:
        body["aggregates"] = {
            out: ({"fn": fn} if column is None else {"fn": fn, "column": column})
            for out, fn, column in op.aggregates
        }
    if op.order_by is not None:
        body["order_by"] = {"column": op.order_by, "desc": op.desc}
        body["k"] = op.k
    return body


def floor(op: QueryOp, arrays: dict) -> dict:
    """The same answer from plain numpy over already-decoded arrays."""
    data = arrays[op.table]
    if op.rows is not None:
        return {name: data[name][op.rows] for name in op.select}
    mask = np.ones(N_ROWS, dtype=bool)
    for column, lo, hi in op.where:
        mask &= (data[column] >= lo) & (data[column] <= hi)
    rows = np.flatnonzero(mask)
    if op.order_by is not None:
        keys = data[op.order_by][rows]
        order = np.argsort(-keys if op.desc else keys, kind="stable")[: op.k]
        return {name: data[name][rows[order]] for name in op.select}
    if op.group_by:
        groups, inverse = np.unique(data[op.group_by[0]][rows], return_inverse=True)
        order = np.argsort(inverse, kind="stable")
        starts = np.flatnonzero(np.r_[True, np.diff(inverse[order]) != 0])
        out = {op.group_by[0]: groups}
        for name, fn, column in op.aggregates:
            out[name] = (
                np.diff(np.r_[starts, rows.size]) if fn == "count"
                else np.add.reduceat(data[column][rows][order], starts)
            )
        return out
    return {
        name: [rows.size if fn == "count" else int(data[column][rows].sum())]
        for name, fn, column in op.aggregates
    }


def canonical(columns: dict) -> dict:
    """Output columns as plain Python lists, comparable with ``==``."""
    return {
        name: values.tolist() if isinstance(values, np.ndarray) else [
            v.item() if isinstance(v, np.generic) else v for v in values
        ]
        for name, values in columns.items()
    }
