"""Lazy logical query plans: builder, compiler, and aggregate pushdown.

This is the front door of the query engine.  A query is *described*
first — as a small tree of logical nodes (:class:`Scan`, :class:`Filter`,
:class:`Project`, :class:`Aggregate`, :class:`Sort`, :class:`TopK`,
:class:`Limit`) built with the fluent :class:`LazyQuery` API::

    result = (
        relation.query()
        .where(Between("ship", 8_100, 8_200))
        .agg(n=Count(), total=Sum("fare"))
        .execute()
    )

— and only executed when a terminal (:meth:`LazyQuery.execute`,
:meth:`LazyQuery.count`) runs.  Nothing is decoded while the query is being
composed, which is what lets the :class:`QueryCompiler` push work *down*
before any value is materialised:

* **predicate pushdown** — the :class:`~repro.query.scan.ScanPlanner`
  prunes blocks against their zone maps, and every surviving block runs
  one per-block pipeline on the work-stealing
  :class:`~repro.query.parallel.ParallelEngine` scheduler, where
  dictionary leaves run in code space and kernels in run or word space;
* **projection pushdown** — only the columns a node actually references
  are ever decoded; a plan without a projection materialises nothing but
  row ids;
* **aggregation pushdown** — ``count``/``min``/``max``/``sum`` over blocks
  the planner proves *fully covered* are answered from the per-block
  :class:`~repro.storage.statistics.ColumnStatistics` without decoding a
  single row, and a group-by on a dictionary-encoded column aggregates in
  code space, deferring the string-heap materialisation to one decode per
  distinct group;
* **limit pushdown** — ``limit(k)`` truncates the row-id stream *before*
  the projection is materialised;
* **top-k pushdown** — ``order_by(col).limit(k)`` compiles to a fused
  :class:`TopK` that keeps a bounded set of ``k`` candidates per block
  (RLE columns answer in run space) and visits blocks in zone-map bound
  order, stopping as soon as no remaining block's bound can beat the
  current ``k``-th candidate — on a clustered column most blocks are
  never touched, and on a :class:`~repro.storage.disk.DiskRelation`
  never even fetched.

:meth:`LazyQuery.explain` renders the logical tree together with the
planner's per-block prune/full/scan decisions, so the effect of every
pushdown is visible before (or without) running the query.
"""

from __future__ import annotations

import heapq
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Sequence, TypeVar

import numpy as np

from ..encodings.dictionary import DictEncodedIntColumn, DictEncodedStringColumn
from ..errors import UnknownColumnError, ValidationError
from ..storage.block import CompressedBlock
from ..storage.relation import Relation
from .kernels import DEFAULT_KERNELS, KernelRegistry
from .parallel import BlockTask, ParallelEngine
from .predicates import And, Predicate
from .scan import (
    BlockDecision,
    ScanMetrics,
    ScanPlanner,
    evaluate_block_predicate,
    materialize_block_columns,
    materialize_columns,
    resolve_block,
)
from .tracing import NullTracer, QueryTrace, Tracer, activate, current_tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from .engine import Engine, EngineConfig

__all__ = [
    "AggregateFunction",
    "Count",
    "Sum",
    "Min",
    "Max",
    "Avg",
    "Var",
    "Std",
    "LogicalNode",
    "Scan",
    "Filter",
    "Project",
    "Aggregate",
    "Sort",
    "TopK",
    "Limit",
    "render_plan",
    "CompiledQuery",
    "PlanResult",
    "QueryCompiler",
    "LazyQuery",
]

R = TypeVar("R")


# ---------------------------------------------------------------------------
# aggregate functions
# ---------------------------------------------------------------------------


class AggregateFunction:
    """Base of the aggregate function descriptors.

    ``kind`` names the reduction (``count``/``sum``/``min``/``max``/``avg``)
    and ``column`` the input column (``None`` for ``count``, which reduces
    the qualifying rows themselves).  Instances are immutable descriptors;
    the compiler decides per block whether the reduction is answered from
    statistics, in dictionary code space, or by gather-and-reduce.
    """

    kind: str = ""
    column: str | None = None

    def describe(self) -> str:
        return f"{self.kind}({self.column if self.column is not None else '*'})"

    def __repr__(self) -> str:
        return self.describe()


@dataclass(frozen=True, repr=False)
class Count(AggregateFunction):
    """``count(*)`` — the number of qualifying rows."""

    kind = "count"


class _ColumnAggregate(AggregateFunction):
    def __post_init__(self) -> None:
        if not self.column:
            raise ValidationError(f"{self.kind} needs a non-empty input column name")


@dataclass(frozen=True, repr=False)
class Sum(_ColumnAggregate):
    """``sum(column)`` over the qualifying rows (integer columns only)."""

    column: str
    kind = "sum"


@dataclass(frozen=True, repr=False)
class Min(_ColumnAggregate):
    """``min(column)`` over the qualifying rows."""

    column: str
    kind = "min"


@dataclass(frozen=True, repr=False)
class Max(_ColumnAggregate):
    """``max(column)`` over the qualifying rows."""

    column: str
    kind = "max"


@dataclass(frozen=True, repr=False)
class Avg(_ColumnAggregate):
    """``avg(column)`` over the qualifying rows (float result).

    Internally carried as an exact ``(sum, count)`` integer pair and divided
    only at output time, so parallel merges lose no precision and a
    fully-covered block is answered from its ``sum_value``/row-count
    statistics exactly like ``sum`` — including diff-encoded columns, whose
    sums are derived from the reference and the stored deltas.  An empty
    selection yields ``None``.
    """

    column: str
    kind = "avg"


@dataclass(frozen=True, repr=False)
class Var(_ColumnAggregate):
    """``var(column)`` — population variance over the qualifying rows.

    Carried as an exact ``(count, sum, sum of squares)`` integer triple
    that merges across blocks and workers by plain addition, and finalised
    as ``(n·Σx² − (Σx)²) / n²`` only at output time — the inputs are
    integers, so every partial is exact and parallel merge order cannot
    change the result.  An empty selection yields ``None``.
    """

    column: str
    kind = "var"


@dataclass(frozen=True, repr=False)
class Std(_ColumnAggregate):
    """``std(column)`` — population standard deviation (√ of :class:`Var`).

    Shares :class:`Var`'s exact ``(count, sum, sum of squares)`` partials;
    only the final square root is floating point.
    """

    column: str
    kind = "std"


#: (output name, function) pairs, in output order.
AggregateSpec = tuple[tuple[str, AggregateFunction], ...]


# ---------------------------------------------------------------------------
# logical plan nodes
# ---------------------------------------------------------------------------


class LogicalNode:
    """A node of the logical plan tree (a linear chain ending in a Scan)."""

    def describe(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.describe()


@dataclass(frozen=True, repr=False)
class Scan(LogicalNode):
    """Leaf: read a compressed relation."""

    relation: Relation

    def describe(self) -> str:
        relation = self.relation
        return (
            f"Scan [{len(relation.schema.names)} columns x {relation.n_rows:,} rows "
            f"in {relation.n_blocks} block(s)]"
        )


@dataclass(frozen=True, repr=False)
class Filter(LogicalNode):
    """Keep the child's rows satisfying a predicate."""

    child: LogicalNode
    predicate: Predicate

    def describe(self) -> str:
        return f"Filter [{self.predicate.describe()}]"


@dataclass(frozen=True, repr=False)
class Project(LogicalNode):
    """Materialise only the named columns of the child's rows."""

    child: LogicalNode
    columns: tuple[str, ...]

    def describe(self) -> str:
        return f"Project [{', '.join(self.columns)}]"


@dataclass(frozen=True, repr=False)
class Aggregate(LogicalNode):
    """Reduce the child's rows to named aggregates, optionally per group."""

    child: LogicalNode
    aggregates: AggregateSpec
    group_by: tuple[str, ...] = ()

    def describe(self) -> str:
        parts = ", ".join(f"{name}={fn.describe()}" for name, fn in self.aggregates)
        if self.group_by:
            return f"Aggregate [{parts} group by {', '.join(self.group_by)}]"
        return f"Aggregate [{parts}]"


@dataclass(frozen=True, repr=False)
class Sort(LogicalNode):
    """Order the child's output rows by one column.

    Ordering is total and deterministic: equal keys keep ascending global
    row id, so every execution strategy (serial, work-stealing parallel,
    out-of-core) produces bit-identical output.
    """

    child: LogicalNode
    column: str
    descending: bool = False

    def describe(self) -> str:
        return f"Sort [{self.column} {'desc' if self.descending else 'asc'}]"


@dataclass(frozen=True, repr=False)
class TopK(LogicalNode):
    """:class:`Sort` fused with :class:`Limit`: the ``k`` best rows by one column.

    Semantically identical to ``Limit(Sort(...), k)`` but executed as a
    bounded per-block candidate set merged across blocks, with zone-map
    bounds ordering the block visits and terminating the scan early.
    """

    child: LogicalNode
    column: str
    k: int
    descending: bool = False

    def describe(self) -> str:
        direction = "desc" if self.descending else "asc"
        return f"TopK [{self.column} {direction}, k={self.k}]"


@dataclass(frozen=True, repr=False)
class Limit(LogicalNode):
    """Keep at most ``n`` of the child's output rows."""

    child: LogicalNode
    n: int

    def describe(self) -> str:
        return f"Limit [{self.n}]"


def render_plan(node: LogicalNode) -> str:
    """The logical tree as an indented multi-line string (root first)."""
    lines: list[str] = []
    depth = 0
    current: LogicalNode | None = node
    while current is not None:
        lines.append("  " * depth + current.describe())
        current = getattr(current, "child", None)
        depth += 1
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# compiled form and results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompiledQuery:
    """A validated, flattened logical plan ready for physical execution.

    ``projection=None`` means no :class:`Project` node was present: the
    query materialises nothing but row ids (the lazy default for
    ``filter``-style calls).
    """

    relation: Relation
    predicate: Predicate | None
    projection: tuple[str, ...] | None
    group_by: tuple[str, ...]
    aggregates: AggregateSpec
    limit: int | None
    #: HAVING predicate, evaluated over the *aggregated* output rows — its
    #: column names are aggregation output names, not physical columns.
    having: Predicate | None = None
    #: Sort column (physical), ``None`` for unordered plans.  With a
    #: ``limit`` the pair executes as a fused zone-map-driven top-k.
    order_by: str | None = None
    descending: bool = False

    def referenced_columns(self) -> tuple[str, ...]:
        """Every column the physical query will read, in first-use order.

        The HAVING predicate is deliberately absent: it references
        aggregation *output* names, which are validated separately.
        """
        seen: list[str] = []
        sources: list[str] = []
        if self.predicate is not None:
            sources.extend(self.predicate.columns())
        sources.extend(self.group_by)
        for _, fn in self.aggregates:
            if fn.column is not None:
                sources.append(fn.column)
        if self.order_by is not None:
            sources.append(self.order_by)
        sources.extend(self.projection or ())
        for name in sources:
            if name not in seen:
                seen.append(name)
        return tuple(seen)

    def gather_columns(self) -> tuple[str, ...]:
        """The group-by and aggregate input columns, in first-use order.

        This is the per-block required-column set of the *gather* side of an
        aggregation — what a block must materialise beyond the predicate
        columns.  A column-granular table fetches only these columns'
        sub-segments for blocks whose aggregates statistics cannot answer.
        """
        seen: list[str] = []
        for name in self.group_by:
            if name not in seen:
                seen.append(name)
        for _, fn in self.aggregates:
            if fn.column is not None and fn.column not in seen:
                seen.append(fn.column)
        return tuple(seen)

    def fingerprint(self) -> str | None:
        """A stable cache key for the whole plan, or ``None``.

        Combines the (canonical) predicate fingerprint with the projection,
        grouping, aggregate and limit shape of the plan.  Two plans with
        equal fingerprints over the same relation state (same
        ``cache_token``) produce bit-identical results, which is what lets
        the query service key its result cache on
        ``(table, plan fingerprint)``.  ``None`` when the predicate has no
        stable fingerprint (opaque :class:`ColumnPredicate`) — such plans
        must never be cached.
        """
        if self.predicate is None:
            pred = ""
        else:
            pred = self.predicate.fingerprint()
            if pred is None:
                return None
        if self.having is None:
            having = ""
        else:
            having = self.having.fingerprint()
            if having is None:
                return None
        projection = "*none*" if self.projection is None else ",".join(self.projection)
        aggregates = ";".join(
            f"{name}:{fn.kind}:{fn.column or ''}" for name, fn in self.aggregates
        )
        order = (
            ""
            if self.order_by is None
            else f"{self.order_by}:{'desc' if self.descending else 'asc'}"
        )
        return (
            f"Plan[pred={pred}|proj={projection}|group={','.join(self.group_by)}"
            f"|aggs={aggregates}|having={having}|order={order}"
            f"|limit={'' if self.limit is None else self.limit}]"
        )


@dataclass
class PlanResult:
    """The output of one executed plan.

    ``columns`` maps output names to value sequences: materialised column
    arrays/lists for projections, per-group key and aggregate value lists
    for aggregations (one entry per group, sorted by group key; exactly one
    entry when there is no group-by).  ``row_ids`` carries the qualifying
    global row ids for non-aggregate plans (``None`` after an aggregation —
    rows were reduced away); they are ascending except under a
    :class:`Sort`/:class:`TopK`, where they follow the requested order.
    """

    columns: dict[str, "np.ndarray | list"]
    row_ids: np.ndarray | None = None
    metrics: ScanMetrics | None = None

    @property
    def n_rows(self) -> int:
        if self.row_ids is not None:
            return int(self.row_ids.size)
        if self.columns:
            return len(next(iter(self.columns.values())))
        return 0

    def column(self, name: str) -> "np.ndarray | list":
        if name not in self.columns:
            raise UnknownColumnError(name, tuple(self.columns))
        return self.columns[name]

    def scalar(self, name: str) -> Any:
        """The single value of an ungrouped aggregate output."""
        values = self.column(name)
        if len(values) != 1:
            raise ValidationError(
                f"column {name!r} holds {len(values)} values, not a scalar; "
                "scalar() is for ungrouped aggregates"
            )
        return values[0]


# ---------------------------------------------------------------------------
# physical execution
# ---------------------------------------------------------------------------

#: Sentinel marking "no rows seen" in min/max partials.
_NO_VALUE = None


def _combine_filters(predicates: list[Predicate]) -> Predicate | None:
    """Stacked Filter nodes (root -> leaf order) as one conjunction.

    Bottom-up order is kept, matching how the filters would have applied.
    """
    if not predicates:
        return None
    if len(predicates) == 1:
        return predicates[0]
    return And(*reversed(predicates))


def _merge_partial(kind: str, a: Any, b: Any) -> Any:
    """Fold two per-block partial aggregate values (either may be None).

    ``avg`` partials are exact ``(sum, count)`` pairs and ``var``/``std``
    partials exact ``(count, sum, sum of squares)`` triples; the division
    (and square root) happens once, at output time.
    """
    if b is None:
        return a
    if a is None:
        return b
    if kind in ("count", "sum"):
        return a + b
    if kind == "avg":
        return (a[0] + b[0], a[1] + b[1])
    if kind in ("var", "std"):
        return (a[0] + b[0], a[1] + b[1], a[2] + b[2])
    if kind == "min":
        return a if a <= b else b
    return a if a >= b else b


def _reduce_values(kind: str, values: "np.ndarray | list") -> "int | str | tuple | None":
    """Reduce gathered values (an int64 array or a string list) directly."""
    if len(values) == 0:
        return 0 if kind in ("count", "sum") else _NO_VALUE
    if isinstance(values, np.ndarray):
        if kind == "sum":
            return int(np.sum(values, dtype=np.int64))
        if kind == "avg":
            return (int(np.sum(values, dtype=np.int64)), int(values.size))
        if kind in ("var", "std"):
            as_int64 = values.astype(np.int64, copy=False)
            return (
                int(values.size),
                int(np.sum(as_int64, dtype=np.int64)),
                int(np.sum(as_int64 * as_int64, dtype=np.int64)),
            )
        if kind == "min":
            return int(values.min())
        return int(values.max())
    if kind == "min":
        return min(values)
    if kind == "max":
        return max(values)
    raise ValidationError(f"cannot {kind} a string column")


def _finalize_partial(kind: str, value: Any) -> Any:
    """Turn a merged partial into its output value (divides avg pairs,
    resolves var/std triples)."""
    if kind == "avg":
        return None if value is None or value[1] == 0 else value[0] / value[1]
    if kind in ("var", "std"):
        if value is None or value[0] == 0:
            return None
        n, total, total_sq = value
        # All-integer numerator keeps the computation exact until the one
        # final division; the max() guards the float rounding of that
        # division from producing a tiny negative variance.
        variance = max((n * total_sq - total * total) / (n * n), 0.0)
        return variance if kind == "var" else math.sqrt(variance)
    if value is None and kind in ("count", "sum"):
        return 0
    return value


class QueryCompiler:
    """Lower logical plans onto one per-block pipeline.

    The compiler owns (or shares) the memoizing planner and the
    work-stealing scheduler, so repeated queries reuse zone-map decisions
    and the worker pool.  Every operator — select, sort, top-k, ungrouped
    and grouped aggregation — runs the same per-block loop
    (:meth:`_run_blocks`) and differs only in its partial body and its
    ordered merge.  ``use_statistics=False`` disables both pruning and
    stat-answered aggregates (the decode-and-reduce baseline);
    ``use_dictionary=False`` disables every code-space path;
    ``use_kernels=False`` disables the compressed-domain kernel registry
    (RLE run space, FOR/delta word space, run-weighted aggregates and
    run-space group-by).  ``engine`` supplies an explicit scheduler (for
    instance one with ``stealing=False``); its planner and worker count
    then replace ``use_statistics`` pruning and ``workers``.
    """

    def __init__(
        self,
        relation: Relation,
        use_statistics: bool = True,
        workers: int | None = 1,
        use_dictionary: bool = True,
        engine: ParallelEngine | None = None,
        use_kernels: bool = True,
        kernels: KernelRegistry | None = None,
        pool: ThreadPoolExecutor | None = None,
    ) -> None:
        self._relation = relation
        self._use_statistics = use_statistics
        self._use_dictionary = use_dictionary
        self._use_kernels = use_kernels
        self._kernels = kernels if kernels is not None else DEFAULT_KERNELS
        if engine is None:
            engine = ParallelEngine(
                relation,
                workers=workers,
                planner=ScanPlanner(relation, use_statistics=use_statistics),
                pool=pool,
            )
        self._engine = engine
        self._planner = engine.planner
        self._workers = engine.workers

    @property
    def relation(self) -> Relation:
        return self._relation

    @property
    def planner(self) -> ScanPlanner:
        return self._planner

    @property
    def engine(self) -> ParallelEngine:
        return self._engine

    @property
    def workers(self) -> int:
        return self._workers

    def close(self) -> None:
        """Release the engine's worker threads (no-op when serial)."""
        self._engine.close()

    def __enter__(self) -> "QueryCompiler":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- compilation -----------------------------------------------------------

    def compile(self, plan: LogicalNode) -> CompiledQuery:
        """Flatten and validate a logical plan against this relation."""
        schema = self._relation.schema
        where: list[Predicate] = []
        having_parts: list[Predicate] = []
        projection: tuple[str, ...] | None = None
        group_by: tuple[str, ...] = ()
        aggregates: AggregateSpec = ()
        limit: int | None = None
        order_by: str | None = None
        descending = False
        order_limit: int | None = None

        # Flatten the chain root -> leaf first: a Filter's meaning depends
        # on whether it sits above or below the Aggregate (HAVING over the
        # aggregated rows vs WHERE over the stored rows), which a single
        # forward walk cannot know yet.
        nodes: list[LogicalNode] = []
        node: LogicalNode = plan
        while not isinstance(node, Scan):
            nodes.append(node)
            child = getattr(node, "child", None)
            if child is None:
                raise ValidationError(f"unsupported logical node {type(node).__name__}")
            node = child
        aggregate_position = next(
            (i for i, n in enumerate(nodes) if isinstance(n, Aggregate)), None
        )

        # Walking root -> leaf, node kinds must come in canonical order —
        # Limit(Sort|TopK(Filter*(Aggregate|Project(Filter*(Scan))))) — so
        # the flattened form executes exactly the semantics the tree
        # expresses.  Out-of-order chains (a Limit below an Aggregate, a
        # Sort below a Project) would silently mean something else, so
        # they are rejected.
        ranks = {Limit: 5, Sort: 4, TopK: 4, Aggregate: 2, Project: 2}
        previous_rank = 6
        for position, current in enumerate(nodes):
            if isinstance(current, Filter):
                is_having = aggregate_position is not None and position < aggregate_position
                rank = 3 if is_having else 1
            else:
                is_having = False
                maybe_rank = ranks.get(type(current))
                if maybe_rank is None:
                    raise ValidationError(
                        f"unsupported logical node {type(current).__name__}"
                    )
                rank = maybe_rank
            if rank > previous_rank:
                raise ValidationError(
                    "logical nodes must nest as "
                    "Limit(Sort|TopK(Filter*(Aggregate|Project(Filter*(Scan))))); "
                    f"found {type(current).__name__} below a node it must enclose"
                )
            previous_rank = rank
            if isinstance(current, Limit):
                if limit is not None:
                    raise ValidationError("a plan may contain at most one Limit node")
                if current.n < 0:
                    raise ValidationError("limit must be non-negative")
                limit = current.n
            elif isinstance(current, (Sort, TopK)):
                if order_by is not None:
                    raise ValidationError("a plan may contain at most one Sort or TopK node")
                order_by = current.column
                descending = current.descending
                if isinstance(current, TopK):
                    if current.k < 0:
                        raise ValidationError("top-k needs a non-negative k")
                    order_limit = current.k
            elif isinstance(current, Aggregate):
                if aggregates:
                    raise ValidationError("a plan may contain at most one Aggregate node")
                if not current.aggregates:
                    raise ValidationError("Aggregate needs at least one aggregate function")
                aggregates = current.aggregates
                group_by = current.group_by
            elif isinstance(current, Project):
                if projection is not None:
                    raise ValidationError("a plan may contain at most one Project node")
                projection = current.columns
            else:
                assert isinstance(current, Filter)
                (having_parts if is_having else where).append(current.predicate)
        if node.relation is not self._relation:
            raise ValidationError("plan scans a different relation than the compiler was built for")
        if aggregates and projection is not None:
            raise ValidationError("Project and Aggregate cannot appear in the same plan")
        if group_by and not aggregates:
            raise ValidationError("group_by needs at least one aggregate")
        if order_by is not None and aggregates:
            raise ValidationError(
                "Sort/TopK cannot be combined with aggregation; order the grouped "
                "output in the caller"
            )
        if order_limit is not None:
            # A TopK is a fused Sort+Limit; an additional enclosing Limit
            # keeps whichever bound is tighter.
            limit = order_limit if limit is None else min(limit, order_limit)

        predicate = _combine_filters(where)
        having = _combine_filters(having_parts)

        compiled = CompiledQuery(
            relation=self._relation,
            predicate=predicate,
            projection=projection,
            group_by=group_by,
            aggregates=aggregates,
            limit=limit,
            having=having,
            order_by=order_by,
            descending=descending,
        )
        for name in compiled.referenced_columns():
            if name not in schema:
                raise UnknownColumnError(name, schema.names)
        output_names = list(group_by)
        for name, fn in aggregates:
            if name in output_names:
                raise ValidationError(f"duplicate output column {name!r} in aggregation")
            output_names.append(name)
            if fn.kind in ("sum", "avg", "var", "std") and schema.dtype(fn.column).is_string:
                raise ValidationError(
                    f"{fn.kind}() needs an integer column, {fn.column!r} is a string"
                )
        if having is not None:
            for name in having.columns():
                if name not in output_names:
                    raise ValidationError(
                        f"having references {name!r}, which is not an output column "
                        "of the aggregation"
                    )
        return compiled

    # -- execution -------------------------------------------------------------

    def execute(
        self, plan: "LogicalNode | CompiledQuery", tracer: "Tracer | None" = None
    ) -> PlanResult:
        """Run a (logical or already compiled) plan and materialise its output.

        ``tracer``, when given, becomes the ambient tracer for the whole
        execution (planner, workers, storage fetches included) and records
        the root ``execute`` span; otherwise the caller's ambient tracer —
        usually :data:`~repro.query.tracing.TRACE_DISABLED` — is kept.
        """
        compiled = plan if isinstance(plan, CompiledQuery) else self.compile(plan)
        active: "Tracer | NullTracer" = tracer if tracer is not None else current_tracer()
        with activate(active):
            with active.span("execute") as root:
                if compiled.aggregates:
                    result = self._execute_aggregate(compiled)
                else:
                    result = self._execute_select(compiled)
                if active.enabled:
                    root.annotate(rows=result.n_rows)
                return result

    def explain(self, plan: LogicalNode, analyze: bool = False) -> str:
        """Render ``plan`` plus the planner's per-block decisions.

        The physical section lists the columns the query could decode at
        most (projection pushdown), the combined predicate, and one line
        per block with its prune/full/scan verdict and global row range.
        ``analyze=True`` additionally *runs* the query under a fresh
        :class:`~repro.query.tracing.Tracer` and appends per-stage wall
        time, rows and bytes plus the recorded span tree — the classic
        ``EXPLAIN ANALYZE``.
        """
        compiled = self.compile(plan)
        lines = ["== logical plan ==", render_plan(plan), "", "== physical scan =="]
        referenced = compiled.referenced_columns()
        lines.append(
            f"columns decoded at most: {', '.join(referenced) if referenced else '(none)'}"
        )
        if compiled.predicate is None:
            lines.append("predicate: (none — every block fully covered)")
        else:
            lines.append(f"predicate: {compiled.predicate.describe()}")
        scan_plan = self._planner.plan(compiled.predicate)
        pruned = scan_plan.count_of(BlockDecision.PRUNE)
        full = scan_plan.count_of(BlockDecision.FULL)
        scanned = scan_plan.count_of(BlockDecision.SCAN)
        lines.append(
            f"blocks: {scan_plan.n_blocks} total — {pruned} pruned, "
            f"{full} fully covered, {scanned} scanned"
        )
        offset = 0
        for index, decision in enumerate(scan_plan.decisions):
            n_rows = self._relation.block(index).n_rows
            end = offset + max(n_rows - 1, 0)
            lines.append(f"  block {index:>4} rows {offset:>10,}..{end:<10,} {decision}")
            offset += n_rows
        if analyze:
            lines.extend(self._explain_analyze(compiled))
        return "\n".join(lines)

    #: Stage display order for ``EXPLAIN ANALYZE``; unknown stages follow
    #: alphabetically, so custom span names still show up.
    _STAGE_ORDER = (
        "execute",
        "plan",
        "scan",
        "steal",
        "predicate",
        "fetch",
        "io",
        "gather",
        "aggregate",
        "sort",
        "topk",
    )

    def _explain_analyze(self, compiled: CompiledQuery) -> list[str]:
        """Run ``compiled`` traced and render the per-stage analysis section."""
        tracer = Tracer()
        result = self.execute(compiled, tracer=tracer)
        trace = QueryTrace.from_tracer(tracer)
        summary = trace.stage_summary()
        lines = ["", "== execution (analyze) =="]
        lines.append(f"wall time: {trace.duration_seconds * 1e3:.3f} ms")
        lines.append(f"rows out: {result.n_rows:,}")
        if result.metrics is not None:
            lines.append(f"scan: {result.metrics.describe()}")
        lines.append(f"{'stage':<12} {'calls':>7} {'time (ms)':>12} {'rows':>14} {'bytes':>14}")
        ordered = [name for name in self._STAGE_ORDER if name in summary]
        ordered += sorted(set(summary) - set(self._STAGE_ORDER))
        for name in ordered:
            stage = summary[name]
            lines.append(
                f"{name:<12} {stage['calls']:>7} {stage['seconds'] * 1e3:>12.3f} "
                f"{stage['rows']:>14,} {stage['bytes']:>14,}"
            )
        lines.extend(["", "== span tree =="])
        lines.append(trace.render_tree())
        return lines

    # -- the per-block pipeline --------------------------------------------------

    def _run_blocks(
        self,
        compiled: CompiledQuery,
        tasks: Sequence[BlockTask],
        metrics: ScanMetrics,
        partial: Callable[
            [CompiledQuery, CompressedBlock, BlockTask, "np.ndarray | None", int, ScanMetrics], R
        ],
        span: str | None = None,
        read_ahead: bool = True,
    ) -> list[R]:
        """Run one operator's partial body over ``tasks``; partials in task order.

        The single per-block loop every operator shares.  On the
        scheduler's workers each task gets: one read-ahead hint (the next
        scanned block's columns), the block fetch, its qualifying-row
        selection (:meth:`_block_selection`), then ``partial`` — which sees
        the block, the task, the mask (``None`` = every row), the selected
        count and the task's private metrics.  Those metrics and the
        scheduler's steal counters are merged into ``metrics``.  ``span``
        names a per-block trace span (aggregation); select and top-k trace
        at operator level only.  ``read_ahead=False`` skips the hint: top-k
        must not fetch a block its early exit may never visit.
        """
        hint = self._make_prefetcher(compiled, tasks) if read_ahead else None

        def pipeline(task: BlockTask, counters: ScanMetrics) -> R:
            if hint is not None:
                hint(task.index)
            block = self._relation.block(task.index)
            mask, n_selected = self._block_selection(block, compiled.predicate, task.full, counters)
            return partial(compiled, block, task, mask, n_selected, counters)

        def run(task: BlockTask) -> tuple[R, ScanMetrics]:
            counters = ScanMetrics()
            if span is None:
                return pipeline(task, counters), counters
            tracer = current_tracer()
            with tracer.span(span, block=task.index) as opened:
                value = pipeline(task, counters)
                if tracer.enabled:
                    opened.annotate(rows=counters.rows_matched)
            return value, counters

        results, scheduler = self._engine.run(tasks, run)
        metrics.merge(scheduler)
        values: list[R] = []
        for value, counters in results:
            metrics.merge(counters)
            values.append(value)
        return values

    def _block_selection(
        self, block: CompressedBlock, predicate: Predicate | None, full: bool, partial: ScanMetrics
    ) -> tuple[np.ndarray | None, int]:
        """The block's qualifying-row mask (``None`` = all rows) and count."""
        if full or predicate is None:
            partial.rows_matched += block.n_rows
            return None, block.n_rows
        mask = evaluate_block_predicate(
            block,
            predicate,
            metrics=partial,
            use_dictionary=self._use_dictionary,
            use_kernels=self._use_kernels,
            kernels=self._kernels,
        )
        n_selected = int(np.count_nonzero(mask))
        partial.rows_matched += n_selected
        return mask, n_selected

    def _make_prefetcher(
        self, compiled: CompiledQuery, tasks: Sequence[BlockTask]
    ) -> "Callable[[int], None] | None":
        """A per-block read-ahead hint, or ``None``.

        Each task's pipeline calls the hint with its block index; the hint
        prefetches the *next scan-classified* block's required columns
        (predicate + gather inputs) while the current block's kernel runs.
        Fully-covered blocks are skipped as targets — statistics usually
        answer them without any data, so prefetching them would waste reads.
        """
        prefetch = getattr(self._relation, "prefetch_block_columns", None)
        if prefetch is None or len(tasks) < 2:
            return None
        columns: list[str] = []
        if compiled.predicate is not None:
            columns.extend(compiled.predicate.columns())
        for name in compiled.gather_columns():
            if name not in columns:
                columns.append(name)
        required = tuple(columns)
        next_scan: dict[int, int | None] = {}
        following: int | None = None
        for task in reversed(tasks):
            next_scan[task.index] = following
            if not task.full:
                following = task.index

        def hint(index: int) -> None:
            target = next_scan.get(index)
            if target is not None:
                prefetch(target, required)

        return hint

    def _gather_inputs(
        self,
        block: CompressedBlock,
        names: Sequence[str],
        positions: np.ndarray,
        partial: ScanMetrics,
    ) -> "dict[str, np.ndarray | list]":
        """Materialise aggregate/group inputs at the selected positions.

        Charged to ``rows_gathered`` (``rows_decoded`` stays a pure
        predicate-decode counter) plus ``string_heap_decodes`` per
        dictionary-encoded string column actually materialised.  An
        out-of-core proxy materialises only ``names`` (plus dependency
        closure) — column-granular on format-v3 tables.
        """
        with current_tracer().span("gather", rows=int(positions.size), columns=len(names)):
            block = resolve_block(block, columns=names)
            partial.rows_gathered += int(positions.size)
            for name in names:
                if isinstance(block.columns.get(name), DictEncodedStringColumn):
                    partial.string_heap_decodes += int(positions.size)
            return materialize_block_columns(block, names, positions)

    # -- select, sort and top-k --------------------------------------------------

    def _execute_select(self, compiled: CompiledQuery) -> PlanResult:
        metrics: ScanMetrics | None
        if compiled.order_by is not None and compiled.limit is not None:
            # Fused top-k: bounded per-block candidate sets, block visits in
            # zone-map bound order, early exit — the full sort never runs.
            row_ids, metrics = self._topk_row_ids(compiled)
        else:
            if compiled.predicate is None:
                row_ids = np.arange(self._relation.n_rows, dtype=np.int64)
                metrics = None
            else:
                row_ids, metrics = self._scan_row_ids(compiled)
            if compiled.order_by is not None:
                row_ids = self._sorted_row_ids(compiled, row_ids)
            if compiled.limit is not None:
                # Limit pushdown: truncate the row-id stream before any value
                # of the projection is materialised.
                row_ids = row_ids[: compiled.limit]
        if compiled.projection is None:
            columns: dict[str, "np.ndarray | list"] = {}
        else:
            columns = materialize_columns(
                self._relation, compiled.projection, row_ids, workers=self._workers
            )
        return PlanResult(columns=columns, row_ids=row_ids, metrics=metrics)

    def _scan_row_ids(self, compiled: CompiledQuery) -> tuple[np.ndarray, ScanMetrics]:
        """Global row ids satisfying the predicate, ascending, plus metrics."""
        tracer = current_tracer()
        with tracer.span("scan") as span:
            tasks, metrics = self._engine.classify(compiled.predicate)
            parts = self._run_blocks(compiled, tasks, metrics, _row_ids_partial)
            if tracer.enabled:
                span.annotate(
                    rows=metrics.rows_matched,
                    blocks=metrics.blocks_scanned,
                    stolen=metrics.morsels_stolen,
                )
            if not parts:
                return np.zeros(0, dtype=np.int64), metrics
            return np.concatenate(parts), metrics

    def _sorted_row_ids(self, compiled: CompiledQuery, row_ids: np.ndarray) -> np.ndarray:
        """``row_ids`` reordered by the sort column (full materialise-and-sort).

        The order criterion is total: equal keys keep ascending global row
        id, which every stable sort below preserves because the gathered
        keys arrive in ascending row-id order.
        """
        if row_ids.size <= 1:
            return row_ids
        with current_tracer().span("sort", rows=int(row_ids.size)):
            assert compiled.order_by is not None
            keys = materialize_columns(
                self._relation, (compiled.order_by,), row_ids, workers=self._workers
            )[compiled.order_by]
            if isinstance(keys, np.ndarray):
                sort_keys = -keys if compiled.descending else keys
                return row_ids[np.argsort(sort_keys, kind="stable")]
            # String keys: Python's sort is stable and ``reverse=True`` does
            # not reorder equal elements, so ties stay in row-id order.
            order = sorted(
                range(len(keys)), key=lambda i: keys[i], reverse=compiled.descending
            )
            return row_ids[np.asarray(order, dtype=np.int64)]

    def _topk_row_ids(self, compiled: CompiledQuery) -> tuple[np.ndarray, ScanMetrics]:
        """The ``k`` best row ids by the sort column, zone-map-driven.

        Blocks are visited in order of the sort column's min (ascending) or
        max (descending) zone-map bound, one worker-sized wave at a time;
        each visited block contributes at most ``k`` ``(key, row id)``
        candidates (RLE columns in run space, everything else gathered).
        The scan stops as soon as no remaining block's bound can *strictly*
        beat the current ``k``-th candidate — a tie could still displace it
        on the ascending-row-id tie-break, so ties keep scanning.  Blocks
        never visited are re-classified as pruned: on an out-of-core
        relation their data was never fetched.
        """
        column = compiled.order_by
        assert column is not None
        k = compiled.limit if compiled.limit is not None else 0
        tracer = current_tracer()
        with tracer.span("topk", column=column, k=k) as span:
            tasks, metrics = self._engine.classify(compiled.predicate)
            if k == 0 or not tasks:
                for task in tasks:
                    self._reclassify_pruned(metrics, task.full)
                return np.zeros(0, dtype=np.int64), metrics

            def bound(index: int) -> "int | str | None":
                """The block's best-possible key, or ``None`` (always visit)."""
                if not self._use_statistics:
                    return None
                stats = self._relation.block(index).column_statistics(column)
                if stats is None:
                    return None
                # Derived (non-exact) bounds still *contain* the true range,
                # so ordering/stopping on them is safe — merely less tight.
                return stats.max_value if compiled.descending else stats.min_value

            bounds = [bound(task.index) for task in tasks]
            # Unknown bounds first (they must always be visited), then most
            # promising first.  The sign flip makes "promising" uniform.
            sign = -1 if compiled.descending else 1

            def visit_key(position: int) -> "tuple[int, Any]":
                b = bounds[position]
                if b is None:
                    return (0, 0)
                return (1, sign * b) if not isinstance(b, str) else (1, b)

            if compiled.descending and any(isinstance(b, str) for b in bounds):
                # String bounds cannot be sign-flipped; sort descending ones
                # separately (None-first is preserved by the stable sort).
                order = sorted(
                    range(len(tasks)),
                    key=lambda p: (bounds[p] is not None, bounds[p] or ""),
                )
                known = [p for p in order if bounds[p] is not None]
                order = [p for p in order if bounds[p] is None] + known[::-1]
            else:
                order = sorted(range(len(tasks)), key=visit_key)

            wave = max(1, min(self._workers, len(tasks)))
            candidates: list[tuple[Any, int]] = []
            position = 0
            while position < len(order):
                if len(candidates) == k:
                    next_bound = bounds[order[position]]
                    kth_key = candidates[-1][0]
                    if next_bound is not None and (
                        next_bound < kth_key if compiled.descending else next_bound > kth_key
                    ):
                        break
                batch = order[position : position + wave]
                position += len(batch)
                for pairs in self._run_blocks(
                    compiled,
                    [tasks[p] for p in batch],
                    metrics,
                    self._topk_partial,
                    read_ahead=False,
                ):
                    candidates.extend(pairs)
                candidates = _topk_pairs(candidates, k, compiled.descending)
            for p in order[position:]:
                self._reclassify_pruned(metrics, tasks[p].full)
            if tracer.enabled:
                span.annotate(
                    rows=len(candidates),
                    blocks=position,
                    skipped=len(order) - position,
                )
            return (
                np.asarray([row_id for _, row_id in candidates], dtype=np.int64),
                metrics,
            )

    @staticmethod
    def _reclassify_pruned(metrics: ScanMetrics, full: bool) -> None:
        """Account a block the top-k early exit never visited as pruned."""
        if full:
            metrics.blocks_full -= 1
        else:
            metrics.blocks_scanned -= 1
        metrics.blocks_pruned += 1

    def _topk_partial(
        self,
        compiled: CompiledQuery,
        block: CompressedBlock,
        task: BlockTask,
        mask: np.ndarray | None,
        n_selected: int,
        partial: ScanMetrics,
    ) -> list[tuple[Any, int]]:
        """One block's ``k`` best ``(key, global row id)`` pairs.

        The pairs come back already in final rank order.  An RLE sort
        column answers in run space — each run contributes its value once
        and only the winning runs' positions are expanded; otherwise the
        key column is gathered at the selected positions and ranked with a
        stable bounded sort.
        """
        if n_selected == 0:
            return []
        column = compiled.order_by
        assert column is not None and compiled.limit is not None
        k = compiled.limit
        offset = task.offset
        if self._use_kernels:
            resolved = resolve_block(block, columns=(column,))
            kernel_mask = mask if mask is not None else np.ones(resolved.n_rows, dtype=bool)
            run_space = self._kernels.topk(
                resolved, column, kernel_mask, k, compiled.descending
            )
            if run_space is not None:
                values, positions = run_space
                partial.rows_kernel_aggregated += n_selected
                return [(int(v), int(offset + p)) for v, p in zip(values, positions)]
            block = resolved
        positions = np.arange(block.n_rows) if mask is None else np.flatnonzero(mask)
        gathered = self._gather_inputs(block, (column,), positions, partial)
        keys = gathered[column]
        if isinstance(keys, np.ndarray):
            sort_keys = -keys if compiled.descending else keys
            best = np.argsort(sort_keys, kind="stable")[:k]
            return [(int(keys[i]), int(offset + positions[i])) for i in best]
        pairs = list(zip(keys, (positions + offset).tolist()))
        if compiled.descending:
            # ``nlargest`` with a key is documented equivalent to a stable
            # reverse sort, so ties keep ascending (row) input order.
            return heapq.nlargest(k, pairs, key=lambda pair: pair[0])
        return heapq.nsmallest(k, pairs)

    # -- aggregate execution ---------------------------------------------------

    def _execute_aggregate(self, compiled: CompiledQuery) -> PlanResult:
        tasks, metrics = self._engine.classify(compiled.predicate)
        if compiled.group_by:
            return self._run_grouped(compiled, tasks, metrics)
        return self._run_ungrouped(compiled, tasks, metrics)

    # .. ungrouped ..............................................................

    def _run_ungrouped(
        self, compiled: CompiledQuery, tasks: Sequence[BlockTask], metrics: ScanMetrics
    ) -> PlanResult:
        aggs = compiled.aggregates
        states = self._run_blocks(
            compiled, tasks, metrics, self._ungrouped_partial, span="aggregate"
        )
        totals: list = [None] * len(aggs)
        for state in states:
            for slot, (_, fn) in enumerate(aggs):
                totals[slot] = _merge_partial(fn.kind, totals[slot], state[slot])
        columns: dict[str, "np.ndarray | list"] = {}
        for slot, (name, fn) in enumerate(aggs):
            columns[name] = [_finalize_partial(fn.kind, totals[slot])]
        if compiled.having is not None:
            # HAVING filters the aggregated output — here a single row.
            columns = _apply_having(columns, compiled.having)
        if compiled.limit is not None:
            columns = {name: values[: compiled.limit] for name, values in columns.items()}
        return PlanResult(columns=columns, row_ids=None, metrics=metrics)

    def _ungrouped_partial(
        self,
        compiled: CompiledQuery,
        block: CompressedBlock,
        task: BlockTask,
        mask: np.ndarray | None,
        n_selected: int,
        partial: ScanMetrics,
    ) -> list:
        """One block's partial aggregate values, one per output slot."""
        aggs = compiled.aggregates
        state: list = [None] * len(aggs)
        pending: list[int] = []
        for slot, (_, fn) in enumerate(aggs):
            if fn.kind == "count":
                state[slot] = n_selected
            elif n_selected == 0:
                state[slot] = 0 if fn.kind == "sum" else _NO_VALUE
            elif task.full and self._use_statistics:
                # Aggregation pushdown: a fully-covered block aggregates all
                # of its rows, so exact zone-map statistics answer the
                # reduction without decoding anything.  An avg is the block's
                # exact sum paired with its row count.
                stats = block.column_statistics(fn.column)
                if fn.kind == "avg":
                    total = stats.aggregate_value("sum") if stats is not None else None
                    value = None if total is None else (total, stats.row_count)
                else:
                    value = stats.aggregate_value(fn.kind) if stats is not None else None
                state[slot] = value
                if value is None:
                    pending.append(slot)
            else:
                pending.append(slot)
        if pending and self._use_kernels:
            # Run-weighted aggregation: an RLE input column answers each
            # pending reduction as Σ value·selected_count over its runs —
            # nothing is gathered.  Pending slots always have a non-empty
            # selection, so ``None`` unambiguously means "kernel declined"
            # (0 is a valid sum).
            names = []
            for slot in pending:
                column = aggs[slot][1].column
                if column not in names:
                    names.append(column)
            block = resolve_block(block, columns=names)
            kernel_mask = mask if mask is not None else np.ones(block.n_rows, dtype=bool)
            remaining = []
            for slot in pending:
                fn = aggs[slot][1]
                value = self._kernels.aggregate(block, fn.column, kernel_mask, fn.kind)
                if value is None:
                    remaining.append(slot)
                else:
                    state[slot] = value
                    partial.rows_kernel_aggregated += n_selected
            pending = remaining
        if pending:
            names = []
            for slot in pending:
                column = aggs[slot][1].column
                if column not in names:
                    names.append(column)
            positions = np.arange(block.n_rows) if mask is None else np.flatnonzero(mask)
            gathered = self._gather_inputs(block, names, positions, partial)
            for slot in pending:
                fn = aggs[slot][1]
                state[slot] = _reduce_values(fn.kind, gathered[fn.column])
        return state

    # .. grouped ................................................................

    def _run_grouped(
        self, compiled: CompiledQuery, tasks: Sequence[BlockTask], metrics: ScanMetrics
    ) -> PlanResult:
        aggs = compiled.aggregates
        results = self._run_blocks(
            compiled, tasks, metrics, self._grouped_partial, span="aggregate"
        )
        merged: dict = {}
        any_code_space = False
        for groups, used_code_space in results:
            any_code_space = any_code_space or used_code_space
            for key, state in groups.items():
                existing = merged.get(key)
                if existing is None:
                    merged[key] = state
                else:
                    for slot, (_, fn) in enumerate(aggs):
                        existing[slot] = _merge_partial(fn.kind, existing[slot], state[slot])

        keys = sorted(merged)
        if compiled.having is None and compiled.limit is not None:
            # Without a HAVING the limit can truncate before any key is
            # decoded; a HAVING must see every group first.
            keys = keys[: compiled.limit]
        single = len(compiled.group_by) == 1
        group_is_string = [
            self._relation.schema.dtype(name).is_string for name in compiled.group_by
        ]
        if single and group_is_string[0] and any_code_space:
            # The group keys travelled as raw heap byte slices; this is the
            # one decode per distinct group the code-space path deferred.
            metrics.string_heap_decodes += len(keys)
        columns: dict[str, "np.ndarray | list"] = {}
        for position, name in enumerate(compiled.group_by):
            if single:
                values = [_output_key(key) for key in keys]
            else:
                values = [_output_key(key[position]) for key in keys]
            columns[name] = values
        for slot, (name, fn) in enumerate(aggs):
            columns[name] = [_finalize_partial(fn.kind, merged[key][slot]) for key in keys]
        if compiled.having is not None:
            columns = _apply_having(columns, compiled.having)
            if compiled.limit is not None:
                columns = {
                    name: values[: compiled.limit] for name, values in columns.items()
                }
        return PlanResult(columns=columns, row_ids=None, metrics=metrics)

    def _grouped_partial(
        self,
        compiled: CompiledQuery,
        block: CompressedBlock,
        task: BlockTask,
        mask: np.ndarray | None,
        n_selected: int,
        partial: ScanMetrics,
    ) -> tuple[dict, bool]:
        """One block's per-group partial states, and whether it grouped in
        dictionary code space (its string keys are then undecoded bytes)."""
        tracer = current_tracer()
        if n_selected == 0:
            tracer.annotate(groups=0)
            return {}, False
        # Grouping always touches block data from here on; materialise an
        # out-of-core proxy once — column-granular tables fetch only the
        # group keys and aggregate inputs.
        block = resolve_block(block, columns=compiled.gather_columns())
        aggs = compiled.aggregates
        group_by = compiled.group_by

        # Group keys: a single dictionary-encoded column groups in code
        # space — unique packed codes, keys as raw dictionary entries (byte
        # slices for strings, so no heap entry is decoded here at all).
        encoded = block.code_space_column(group_by[0]) if len(group_by) == 1 else None
        if not self._use_dictionary:
            encoded = None
        used_code_space = False
        keys: list
        if isinstance(encoded, (DictEncodedIntColumn, DictEncodedStringColumn)):
            codes = encoded.codes()
            selected_codes = codes if mask is None else codes[mask]
            unique_codes, inverse = np.unique(selected_codes, return_inverse=True)
            if isinstance(encoded, DictEncodedStringColumn):
                heap = encoded.heap
                keys = [heap.key_bytes(int(code)) for code in unique_codes]
            else:
                keys = [int(value) for value in encoded.dictionary[unique_codes]]
            used_code_space = True
            gather_names: list[str] = []
        else:
            run_groups = None
            if self._use_kernels and len(group_by) == 1:
                # Run-space group-by: an RLE group column's groups are its
                # surviving run values; the per-row inverse comes from
                # repeating each run's group id by its selected count, in
                # the same ascending row order the gather path would use.
                kernel_mask = mask if mask is not None else np.ones(block.n_rows, dtype=bool)
                run_groups = self._kernels.group_keys(block, group_by[0], kernel_mask)
            if run_groups is not None:
                keys, inverse = run_groups
                partial.rows_kernel_aggregated += n_selected
                gather_names = []
            else:
                gather_names = list(group_by)

        value_names = []
        for _, fn in aggs:
            if fn.kind != "count" and fn.column not in gather_names + value_names:
                value_names.append(fn.column)

        gathered = {}
        if gather_names or value_names:
            positions = np.arange(block.n_rows) if mask is None else np.flatnonzero(mask)
            gathered = self._gather_inputs(block, gather_names + value_names, positions, partial)
        if gather_names:
            keys, inverse = _python_group_keys(group_by, gathered)

        n_groups = len(keys)
        states = [[None] * len(aggs) for _ in range(n_groups)]
        for slot, (_, fn) in enumerate(aggs):
            if fn.kind == "count":
                counts = np.bincount(inverse, minlength=n_groups)
                for g in range(n_groups):
                    states[g][slot] = int(counts[g])
                continue
            values = gathered[fn.column]
            if isinstance(values, np.ndarray):
                reduced = _grouped_reduce_ints(fn.kind, values, inverse, n_groups)
                for g in range(n_groups):
                    states[g][slot] = reduced[g]
            else:
                for g, value in zip(inverse, values):
                    states[g][slot] = _merge_partial(fn.kind, states[g][slot], value)
        tracer.annotate(groups=n_groups)
        return dict(zip(keys, states)), used_code_space


def _row_ids_partial(
    compiled: CompiledQuery,
    block: CompressedBlock,
    task: BlockTask,
    mask: np.ndarray | None,
    n_selected: int,
    partial: ScanMetrics,
) -> np.ndarray:
    """One block's qualifying global row ids (select and sort)."""
    if mask is None:
        return np.arange(task.offset, task.offset + block.n_rows, dtype=np.int64)
    return np.flatnonzero(mask) + task.offset


def _python_group_keys(group_by: tuple[str, ...], gathered: dict) -> tuple[list, np.ndarray]:
    """Hashable group keys + per-row group index from decoded group columns.

    A single group column is vectorized through ``np.unique``; only
    multi-column grouping falls back to a per-row Python loop over key
    tuples.  Single string columns normalise to UTF-8 bytes so keys merge
    with the byte slices the code-space path produces for other blocks of
    the same relation (per-block encodings may differ).
    """
    if len(group_by) == 1:
        values = gathered[group_by[0]]
        arr = values if isinstance(values, np.ndarray) else np.asarray(values)
        unique, inverse = np.unique(arr, return_inverse=True)
        if arr.dtype.kind in ("U", "S"):
            keys: list = [str(u).encode("utf-8") for u in unique]
        else:
            keys = [int(u) for u in unique]
        return keys, inverse
    columns = [
        gathered[name] if isinstance(gathered[name], np.ndarray) else list(gathered[name])
        for name in group_by
    ]
    mapping: dict = {}
    inverse = np.empty(len(columns[0]), dtype=np.int64)
    for i, key in enumerate(zip(*columns)):
        inverse[i] = mapping.setdefault(key, len(mapping))
    return list(mapping), inverse


def _grouped_reduce_ints(kind: str, values: np.ndarray, inverse: np.ndarray, n_groups: int) -> list:
    """Exact per-group int64 reduction via unbuffered ufunc scatter."""
    if kind == "avg":
        sums = np.zeros(n_groups, dtype=np.int64)
        np.add.at(sums, inverse, values)
        counts = np.bincount(inverse, minlength=n_groups)
        return [(int(s), int(c)) for s, c in zip(sums, counts)]
    if kind in ("var", "std"):
        as_int64 = values.astype(np.int64, copy=False)
        sums = np.zeros(n_groups, dtype=np.int64)
        np.add.at(sums, inverse, as_int64)
        squares = np.zeros(n_groups, dtype=np.int64)
        np.add.at(squares, inverse, as_int64 * as_int64)
        counts = np.bincount(inverse, minlength=n_groups)
        return [(int(c), int(s), int(q)) for c, s, q in zip(counts, sums, squares)]
    if kind == "sum":
        out = np.zeros(n_groups, dtype=np.int64)
        np.add.at(out, inverse, values)
    elif kind == "min":
        out = np.full(n_groups, np.iinfo(np.int64).max)
        np.minimum.at(out, inverse, values)
    else:
        out = np.full(n_groups, np.iinfo(np.int64).min)
        np.maximum.at(out, inverse, values)
    return [int(v) for v in out]


def _topk_pairs(
    pairs: "list[tuple[Any, int]]", k: int, descending: bool
) -> "list[tuple[Any, int]]":
    """The ``k`` best ``(key, row id)`` pairs under the total order criterion.

    Ascending ranks by ``(key, row id)`` directly; descending needs key
    descending but row id still *ascending* on ties, which two stable
    passes deliver for any key type (strings cannot be negated).
    """
    if descending:
        by_row = sorted(pairs, key=lambda pair: pair[1])
        return sorted(by_row, key=lambda pair: pair[0], reverse=True)[:k]
    return sorted(pairs)[:k]


def _apply_having(
    columns: "dict[str, np.ndarray | list]", predicate: Predicate
) -> "dict[str, np.ndarray | list]":
    """Filter aggregated output rows by a HAVING predicate.

    Rows where any referenced output is ``None`` (the empty-selection
    result of min/max/avg/var) are dropped first, mirroring SQL's NULL
    comparison semantics, so the predicate only ever sees real values.
    """
    names = predicate.columns()
    n_rows = len(next(iter(columns.values()))) if columns else 0
    keep = [
        i
        for i in range(n_rows)
        if all(columns[name][i] is not None for name in names)
    ]
    if keep:
        sub = {name: [columns[name][i] for i in keep] for name in names}
        mask = np.asarray(predicate.evaluate(sub), dtype=bool)
        keep = [i for i, flag in zip(keep, mask) if flag]
    return {name: [values[i] for i in keep] for name, values in columns.items()}


def _output_key(key: object) -> object:
    """A merged group key as an output value (bytes decode back to str)."""
    if isinstance(key, bytes):
        return key.decode("utf-8")
    if isinstance(key, np.integer):
        return int(key)
    return key


# ---------------------------------------------------------------------------
# fluent builder
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _QuerySpec:
    """The accumulated state of a fluent chain (immutable between calls)."""

    predicate: Predicate | None = None
    projection: tuple[str, ...] | None = None
    group_keys: tuple[str, ...] = ()
    aggregates: AggregateSpec = ()
    limit: int | None = None
    order_column: str | None = None
    order_desc: bool = False
    having_predicate: Predicate | None = None


class LazyQuery:
    """Fluent, lazy query builder over one compressed relation.

    Every chaining call returns a *new* ``LazyQuery``; nothing touches the
    data until a terminal (:meth:`execute`, :meth:`count`) runs, and
    :meth:`explain` shows the logical tree plus the planner's per-block
    decisions without executing anything.  Typical use::

        top = (
            relation.query()
            .where(Eq("flag", "Y") & Between("ship", 8_100, 8_200))
            .select("ship", "fare")
            .limit(100)
            .execute()
        )
        by_tag = relation.query().group_by("tag").agg(n=Count()).execute()

    The chain runs under the :class:`~repro.query.engine.EngineConfig` it
    is given (``config=``; defaults apply when omitted), fixed when the
    chain starts (via :meth:`~repro.storage.relation.Relation.query`).  A
    chain started from a shared :class:`~repro.query.engine.Engine`
    (``engine=``) takes its settings — and, crucially, its memoized
    compiler, worker pool and kernel registry — from the engine instead.
    The metrics of the most recent terminal run on *this* chain link are
    available as :attr:`last_metrics`.
    """

    def __init__(
        self,
        relation: Relation,
        config: "EngineConfig | None" = None,
        engine: "Engine | None" = None,
        _spec: _QuerySpec | None = None,
        _compiler_box: "list[QueryCompiler | None] | None" = None,
    ) -> None:
        self._relation = relation
        self._config = config
        self._engine = engine
        self._spec = _spec if _spec is not None else _QuerySpec()
        #: One compiler per chain, created on the first terminal and shared
        #: by every link derived from the same ``relation.query()`` root
        #: (the single-slot box is what all links alias, so links diverging
        #: before the first terminal still share it): repeated terminals
        #: keep the planner's zone-map memo warm and reuse the engine's
        #: worker pool (idle threads are joined at interpreter shutdown).
        self._compiler_box = _compiler_box if _compiler_box is not None else [None]
        self._last_metrics: ScanMetrics | None = None

    # -- fluent chain ----------------------------------------------------------

    def _chain(self, **changes: Any) -> "LazyQuery":
        return LazyQuery(
            self._relation,
            config=self._config,
            engine=self._engine,
            _spec=replace(self._spec, **changes),
            _compiler_box=self._compiler_box,
        )

    def where(self, *predicates: Predicate) -> "LazyQuery":
        """Add filter predicates (AND-combined with any existing ones)."""
        if not predicates:
            raise ValidationError("where() needs at least one predicate")
        terms = [self._spec.predicate] if self._spec.predicate is not None else []
        terms.extend(predicates)
        combined = terms[0] if len(terms) == 1 else And(*terms)
        return self._chain(predicate=combined)

    def select(self, *columns: str) -> "LazyQuery":
        """Project the named columns (aggregating queries name outputs via agg)."""
        if not columns:
            raise ValidationError("select() needs at least one column")
        if self._spec.aggregates or self._spec.group_keys:
            raise ValidationError(
                "select() cannot be combined with agg()/group_by(); "
                "aggregate outputs are named by agg()"
            )
        return self._chain(projection=tuple(columns))

    def group_by(self, *columns: str) -> "LazyQuery":
        """Group the aggregation by the named columns."""
        if not columns:
            raise ValidationError("group_by() needs at least one column")
        if self._spec.projection is not None:
            raise ValidationError("group_by() cannot be combined with select()")
        if self._spec.order_column is not None:
            raise ValidationError("group_by() cannot be combined with order_by()")
        return self._chain(group_keys=tuple(columns))

    def agg(self, **aggregates: AggregateFunction) -> "LazyQuery":
        """Add named aggregate outputs, e.g. ``agg(n=Count(), hi=Max("v"))``."""
        if not aggregates:
            raise ValidationError("agg() needs at least one name=function pair")
        for name, fn in aggregates.items():
            if not isinstance(fn, AggregateFunction):
                raise ValidationError(
                    "agg() values must be aggregate functions "
                    f"(Count/Sum/Min/Max/Avg/Var/Std), got {fn!r} for {name!r}"
                )
        if self._spec.projection is not None:
            raise ValidationError("agg() cannot be combined with select()")
        if self._spec.order_column is not None:
            raise ValidationError("agg() cannot be combined with order_by()")
        return self._chain(aggregates=self._spec.aggregates + tuple(aggregates.items()))

    def having(self, *predicates: Predicate) -> "LazyQuery":
        """Filter the *aggregated* output rows (AND-combined, like where()).

        The predicates reference aggregation output names — group keys and
        ``agg()`` output columns — and run over the aggregated rows, after
        the per-group reduction and before any :meth:`limit`.  Groups whose
        referenced output is ``None`` (an empty-selection min/max/avg) are
        dropped, mirroring SQL's NULL comparison semantics.  Requires an
        aggregation on the chain by the time a terminal runs.
        """
        if not predicates:
            raise ValidationError("having() needs at least one predicate")
        terms = (
            [self._spec.having_predicate]
            if self._spec.having_predicate is not None
            else []
        )
        terms.extend(predicates)
        combined = terms[0] if len(terms) == 1 else And(*terms)
        return self._chain(having_predicate=combined)

    def order_by(self, column: str, desc: bool = False) -> "LazyQuery":
        """Order the output rows by ``column`` (ties keep ascending row id).

        Followed by :meth:`limit`, the pair compiles to a fused
        :class:`TopK`: bounded per-block candidate heaps, block visits in
        zone-map bound order, and an early exit that skips — and on disk
        never fetches — blocks that cannot affect the answer.  Not
        combinable with ``agg()``/``group_by()``.
        """
        if not column:
            raise ValidationError("order_by() needs a column name")
        if self._spec.aggregates or self._spec.group_keys:
            raise ValidationError("order_by() cannot be combined with agg()/group_by()")
        return self._chain(order_column=column, order_desc=bool(desc))

    def limit(self, n: int) -> "LazyQuery":
        """Keep at most ``n`` output rows (applied before materialisation)."""
        if n < 0:
            raise ValidationError("limit must be non-negative")
        return self._chain(limit=n)

    # -- plan assembly ---------------------------------------------------------

    def logical_plan(self) -> LogicalNode:
        """The logical tree this chain describes (Scan at the bottom)."""
        spec = self._spec
        node: LogicalNode = Scan(self._relation)
        if spec.predicate is not None:
            node = Filter(node, spec.predicate)
        if spec.aggregates:
            node = Aggregate(node, aggregates=spec.aggregates, group_by=spec.group_keys)
            if spec.having_predicate is not None:
                # A Filter above the Aggregate is the HAVING position.
                node = Filter(node, spec.having_predicate)
        elif spec.group_keys:
            raise ValidationError("group_by() needs at least one aggregate; add .agg(...)")
        elif spec.having_predicate is not None:
            raise ValidationError("having() needs an aggregation; add .agg(...)")
        else:
            projection = spec.projection
            if projection is None:
                projection = self._relation.schema.names
            node = Project(node, tuple(projection))
        if spec.order_column is not None:
            if spec.limit is not None:
                # order_by().limit(k) fuses into a bounded-heap top-k.
                return TopK(
                    node, column=spec.order_column, k=spec.limit, descending=spec.order_desc
                )
            node = Sort(node, column=spec.order_column, descending=spec.order_desc)
        if spec.limit is not None:
            node = Limit(node, spec.limit)
        return node

    def _compiler(self) -> QueryCompiler:
        if self._engine is not None:
            # Engine-bound chains share the engine's memoized compiler (and
            # through it the engine's planner memo, worker pool and kernel
            # registry) with every other query on the same relation.
            return self._engine.compiler_for(self._relation)
        if self._compiler_box[0] is None:
            # Imported here: engine.py imports this module.
            from .engine import EngineConfig

            config = self._config if self._config is not None else EngineConfig()
            self._compiler_box[0] = QueryCompiler(
                self._relation,
                use_statistics=config.use_statistics,
                workers=config.workers,
                use_dictionary=config.use_dictionary,
                use_kernels=config.use_kernels,
            )
        return self._compiler_box[0]

    # -- terminals -------------------------------------------------------------

    @property
    def last_metrics(self) -> ScanMetrics | None:
        """Metrics of the most recent execute()/count() on this chain link."""
        return self._last_metrics

    def explain(self, analyze: bool = False) -> str:
        """Render the logical tree plus per-block prune/full/scan decisions.

        ``analyze=True`` also runs the query under a tracer and appends
        per-stage wall time, rows and bytes plus the span tree.
        """
        return self._compiler().explain(self.logical_plan(), analyze=analyze)

    def execute(self, tracer: "Tracer | None" = None) -> PlanResult:
        """Compile and run the plan, materialising its output.

        ``tracer``, when given, records the execution's span tree (see
        :mod:`repro.query.tracing`).
        """
        result = self._compiler().execute(self.logical_plan(), tracer=tracer)
        self._last_metrics = result.metrics
        return result

    def count(self, tracer: "Tracer | None" = None) -> int:
        """The number of qualifying rows, without materialising any output.

        Shortcut for ``agg(count=Count())`` on a plain filter chain; blocks
        the zone maps prove fully covered are answered from metadata alone
        (check :attr:`last_metrics` — ``rows_decoded`` stays zero when every
        block is pruned or covered).  A ``limit(k)`` on the chain caps the
        result, matching ``execute().n_rows``.  ``tracer`` records the
        execution's span tree, as for :meth:`execute`.
        """
        if self._spec.aggregates or self._spec.group_keys or self._spec.having_predicate:
            raise ValidationError("count() is for plain filter chains; use agg(n=Count())")
        spec = self._spec
        node: LogicalNode = Scan(self._relation)
        if spec.predicate is not None:
            node = Filter(node, spec.predicate)
        node = Aggregate(node, aggregates=(("count", Count()),))
        result = self._compiler().execute(node, tracer=tracer)
        self._last_metrics = result.metrics
        total = int(result.scalar("count"))
        if spec.limit is not None:
            total = min(total, spec.limit)
        return total

    def close(self) -> None:
        """Release the chain's worker threads, if any were started.

        Optional: serial chains never start a pool, and parallel pools are
        joined at interpreter shutdown anyway.  The chain stays usable afterwards.  Engine-bound
        chains own nothing — the engine's shared state is left untouched
        (close the :class:`~repro.query.engine.Engine` itself instead).
        """
        if self._engine is not None:
            return
        if self._compiler_box[0] is not None:
            self._compiler_box[0].close()
