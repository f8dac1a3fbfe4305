"""Layer spans recorded from outside the library, and their attribution.

The traced run wraps public functions of each ``repro`` module in timing
spans at run time (no library file changes).  Every span records its layer
name, wall start/end, thread CPU time, thread, parent span (same thread)
and the id of the benchmark operation it ran under.  Spans stay in memory
and are written out once, when the run ends.

Attribution: within one operation's wall interval, each instant belongs to
the *latest-started* span still open at that instant, across all threads.
On one thread that is the innermost span, so a span's share is its
duration minus its children ("self" time).  Across threads it hands the
time to the work the op is waiting on (the executor thread running a
query while the event-loop thread awaits it), never to two spans at once.
Instants no layer span covers are the op's unattributed time.  Layer self
times plus unattributed time therefore sum to the op's wall time by
construction; what a run does check (``span_faults``) is that the spans
are well formed: each closed, inside its op's interval and inside its
parent span.
"""

from __future__ import annotations

import functools
import heapq
import importlib
import inspect
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

#: (module, attribute path, layer).  An attribute path ``Class.method``
#: patches the class; a plain name patches the function in its defining
#: module and in every loaded ``repro`` module that imported it by name.
TARGETS: tuple[tuple[str, str, str], ...] = (
    # core: detection and planning (set-up), encode, reference-based decode
    ("repro.core.correlation", "CorrelationDetector.suggest", "core.detect"),
    ("repro.core.rule_mining", "mine_multi_reference_config", "core.rule_mining"),
    ("repro.core.rule_mining", "mine_rules", "core.rule_mining"),
    ("repro.core.optimizer", "DiffEncodingOptimizer.optimize", "core.optimizer"),
    ("repro.core.plan", "TableCompressor.compress_block", "core.encode"),
    ("repro.core.diff_encoding", "NonHierarchicalEncoding.encode", "core.encode"),
    ("repro.core.hierarchical", "HierarchicalEncoding.encode", "core.encode"),
    ("repro.core.multi_reference", "MultiReferenceEncoding.encode", "core.encode"),
    ("repro.core.diff_encoding", "DiffEncodedColumn.gather_with_reference", "core.decode"),
    ("repro.core.hierarchical", "HierarchicalEncodedColumn.gather_with_reference", "core.decode"),
    ("repro.core.multi_reference", "MultiReferenceEncodedColumn.gather_with_reference", "core.decode"),
    ("repro.core.base", "HorizontalEncodedColumn.decode_with_reference", "core.decode"),
    # encodings: scheme selection, vertical encode, vertical decode
    ("repro.encodings.selector", "BestOfSelector.select", "encodings.select"),
    ("repro.encodings.selector", "BestOfSelector.best_size", "encodings.select"),
    # bitpack
    ("repro.bitpack", "pack", "bitpack.pack"),
    ("repro.bitpack", "BitPackedArray.from_values", "bitpack.pack"),
    ("repro.bitpack", "unpack", "bitpack.unpack"),
    ("repro.bitpack", "gather", "bitpack.unpack"),
    ("repro.bitpack", "BitPackedArray.to_numpy", "bitpack.unpack"),
    ("repro.bitpack", "BitPackedArray.gather", "bitpack.unpack"),
    ("repro.bitpack", "BitPackedArray.compare_range", "bitpack.compare"),
    ("repro.bitpack", "BitPackedArray.compare_values", "bitpack.compare"),
    # storage
    ("repro.storage.format", "TableWriter.write_block", "storage.write"),
    ("repro.storage.format", "TableWriter.close", "storage.write"),
    ("repro.storage.serialization", "serialize_block", "storage.write"),
    ("repro.storage.serialization", "serialize_block_with_layout", "storage.write"),
    ("repro.storage.format", "TableReader.read_block", "storage.read"),
    ("repro.storage.format", "TableReader.read_block_bytes", "storage.read"),
    ("repro.storage.format", "TableReader.read_column", "storage.read"),
    ("repro.storage.format", "TableReader.read_columns", "storage.read"),
    ("repro.storage.format", "TableReader.read_column_bytes", "storage.read"),
    ("repro.storage.format", "TableReader.read_columns_bytes", "storage.read"),
    ("repro.storage.serialization", "deserialize_block", "storage.read"),
    ("repro.storage.serialization", "deserialize_column", "storage.read"),
    ("repro.storage.disk", "DiskRelation.load_block_columns", "storage.fetch"),
    # query
    ("repro.query.plan", "QueryCompiler.compile", "query.compile"),
    ("repro.query.scan", "ScanPlanner.plan", "query.compile"),
    ("repro.query.plan", "QueryCompiler.execute", "query.execute"),
    ("repro.query.scan", "evaluate_block_predicate", "query.predicate"),
    ("repro.query.kernels", "KernelRegistry.predicate_mask", "query.kernels"),
    ("repro.query.kernels", "KernelRegistry.aggregate", "query.kernels"),
    ("repro.query.kernels", "KernelRegistry.group_keys", "query.kernels"),
    ("repro.query.kernels", "KernelRegistry.topk", "query.kernels"),
    ("repro.query.scan", "materialize_columns", "query.gather"),
    ("repro.query.scan", "materialize_block_columns", "query.gather"),
    ("repro.query.plan", "QueryCompiler._gather_inputs", "query.gather"),
    # server
    ("repro.server.protocol", "parse_request", "server.protocol"),
    ("repro.server.protocol", "build_query", "server.protocol"),
    ("repro.server.protocol", "encode_result", "server.protocol"),
    ("repro.server.service", "QueryService.execute", "server.service"),
    ("repro.server.http", "CorraHttpServer._read_request", "server.http"),
    ("repro.server.http", "CorraHttpServer._dispatch", "server.http"),
)

#: Vertical column methods, patched on every ``repro.encodings`` column class
#: (each scheme's ``encode`` is patched too, as ``encodings.encode``).
DECODE_METHODS = ("decode", "gather", "gather_codes", "decode_codes")

UNATTRIBUTED = "bench.unattributed"

#: Every layer a span can carry, in report order.
LAYERS = tuple(dict.fromkeys(
    [layer for _, _, layer in TARGETS] + ["encodings.encode", "encodings.decode"]
))


def _unpack_values(fn_name: str, args: tuple, kwargs: dict) -> int:
    """Values decoded by one bitpack ``to_numpy``/``unpack``/``gather`` call."""
    if fn_name == "to_numpy":
        return int(args[0].n_values)
    if fn_name == "unpack":
        return int(kwargs["n_values"] if "n_values" in kwargs else args[2])
    positions = kwargs["positions"] if "positions" in kwargs else args[-1]
    return int(np.asarray(positions).size)


@dataclass(eq=False, slots=True)
class Span:
    layer: str
    start: int
    parent: "Span | None"
    op: Any
    thread: int
    cpu_start: int
    end: int = 0
    cpu: int = 0
    values: int = 0


@dataclass
class OpRecord:
    op: Any
    start: int
    end: int


@dataclass
class Recorder:
    """In-memory span store with one operation in flight at a time."""

    spans: list = field(default_factory=list)
    ops: list = field(default_factory=list)
    current_op: Any = None
    _local: threading.local = field(default_factory=threading.local)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, layer: str) -> "Span | None":
        op = self.current_op
        if op is None:
            return None
        stack = self._stack()
        span = Span(
            layer=layer,
            start=time.perf_counter_ns(),
            parent=stack[-1] if stack else None,
            op=op,
            thread=threading.get_ident(),
            cpu_start=time.thread_time_ns(),
        )
        stack.append(span)
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span.cpu = time.thread_time_ns() - span.cpu_start
        span.end = time.perf_counter_ns()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)

    def op(self, op_id: Any) -> "_OpScope":
        return _OpScope(self, op_id)

    def dump(self, path) -> None:
        """Write every span (and op) as one JSON array per line."""
        ids = {id(span): index for index, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps(["op", "start_ns", "end_ns"]) + "\n")
            for record in self.ops:
                out.write(json.dumps([str(record.op), record.start, record.end]) + "\n")
            out.write(json.dumps(
                ["id", "layer", "start_ns", "end_ns", "parent", "op", "thread", "cpu_ns"]
            ) + "\n")
            for index, span in enumerate(self.spans):
                parent = ids.get(id(span.parent)) if span.parent is not None else None
                out.write(json.dumps([
                    index, span.layer, span.start, span.end, parent,
                    str(span.op), span.thread, span.cpu,
                ]) + "\n")


class _OpScope:
    def __init__(self, recorder: Recorder, op_id: Any):
        self._recorder = recorder
        self._op = op_id

    def __enter__(self) -> None:
        self._start = time.perf_counter_ns()
        self._recorder.current_op = self._op

    def __exit__(self, *exc_info) -> None:
        end = time.perf_counter_ns()
        self._recorder.current_op = None
        self._recorder.ops.append(OpRecord(self._op, self._start, end))


# -- patching ------------------------------------------------------------------


def _wrap(recorder: Recorder, layer: str, fn: Callable, name: str) -> Callable:
    counts_values = layer == "bitpack.unpack"
    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            span = recorder.begin(layer)
            if span is None:
                return await fn(*args, **kwargs)
            try:
                return await fn(*args, **kwargs)
            finally:
                recorder.end(span)

        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.begin(layer)
        if span is None:
            return fn(*args, **kwargs)
        if counts_values and (span.parent is None or span.parent.layer != layer):
            span.values = _unpack_values(name, args, kwargs)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.end(span)

    return wrapper


def _subclasses(base: type) -> list[type]:
    found, pending = [], [base]
    while pending:
        cls = pending.pop()
        for sub in cls.__subclasses__():
            found.append(sub)
            pending.append(sub)
    return found


class Instrumentation:
    """Install the layer wrappers; ``restore`` puts every original back."""

    def __init__(self, recorder: Recorder):
        self._recorder = recorder
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_method(self, cls: type, attr: str, layer: str) -> None:
        cls = next(klass for klass in cls.__mro__ if attr in klass.__dict__)
        raw = cls.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(_wrap(self._recorder, layer, raw.__func__, attr))
        else:
            wrapped = _wrap(self._recorder, layer, raw, attr)
        self._set(cls, attr, wrapped)

    def _patch_function(self, module_name: str, attr: str, layer: str) -> None:
        original = getattr(sys.modules[module_name], attr)
        wrapped = _wrap(self._recorder, layer, original, attr)
        for name, module in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")) or module is None:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapped)

    def install(self) -> "Instrumentation":
        import repro.encodings.base as encodings_base

        for module_name, path, layer in TARGETS:
            module = importlib.import_module(module_name)
            if "." in path:
                class_name, attr = path.split(".")
                self._patch_method(getattr(module, class_name), attr, layer)
            else:
                self._patch_function(module_name, path, layer)
        for cls in _subclasses(encodings_base.ColumnEncoding):
            if "encode" in cls.__dict__:
                self._patch_method(cls, "encode", "encodings.encode")
        for cls in _subclasses(encodings_base.EncodedColumn):
            if not cls.__module__.startswith("repro.encodings"):
                continue
            for attr in DECODE_METHODS:
                if attr in cls.__dict__:
                    self._patch_method(cls, attr, "encodings.decode")
        return self

    def restore(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


# -- attribution ---------------------------------------------------------------


@dataclass
class Attribution:
    """Per-layer totals over a set of operations (nanoseconds)."""

    n_ops: int = 0
    wall: int = 0
    self_ns: dict = field(default_factory=lambda: defaultdict(int))
    wait_ns: dict = field(default_factory=lambda: defaultdict(int))
    values: dict = field(default_factory=lambda: defaultdict(int))

    @property
    def unattributed(self) -> int:
        return self.self_ns.get(UNATTRIBUTED, 0)

    def per_op_ms(self, layer: str) -> float:
        return self.self_ns.get(layer, 0) / 1e6 / self.n_ops if self.n_ops else 0.0

    def wait_per_op_ms(self, layer: str) -> float:
        return self.wait_ns.get(layer, 0) / 1e6 / self.n_ops if self.n_ops else 0.0



def attribute(recorder: Recorder, ops: "set | None" = None) -> Attribution:
    """Split each recorded op's wall time over the layers (see module doc)."""
    by_op: dict = defaultdict(list)
    for span in recorder.spans:
        by_op[span.op].append(span)
    result = Attribution()
    for record in recorder.ops:
        if ops is not None and record.op not in ops:
            continue
        result.n_ops += 1
        result.wall += record.end - record.start
        _sweep(record, by_op.get(record.op, ()), result)
    return result


def _sweep(record: OpRecord, spans, result: Attribution) -> None:
    events = []
    for seq, span in enumerate(spans):
        if span.end > span.start:
            events.append((span.start, 1, seq, span))
            events.append((span.end, 0, seq, span))
        if span.parent is None or span.parent.layer != span.layer:
            result.wait_ns[span.layer] += max(0, (span.end - span.start) - span.cpu)
            result.values[span.layer] += span.values
    events.sort(key=lambda event: (event[0], event[1]))
    active: list = []  # max-heap on (start, seq) via negation
    closed: set = set()
    cursor = record.start
    for instant, opening, seq, span in events:
        while active and active[0][1] in closed:
            heapq.heappop(active)
        owner = active[0][2].layer if active else UNATTRIBUTED
        result.self_ns[owner] += instant - cursor
        cursor = instant
        if opening:
            heapq.heappush(active, ((-span.start, -seq), seq, span))
        else:
            closed.add(seq)
    result.self_ns[UNATTRIBUTED] += record.end - cursor


def span_faults(recorder: Recorder) -> int:
    """Spans that break the attribution's premises; 0 for a sound trace.

    A span is faulty if it never closed, if it was still open when its op
    closed, if it started before its op, if its op was never recorded, or
    if it is not inside its parent span.  The sweep in ``attribute`` takes
    each of these as given, so a faulty trace makes the run incorrect.
    """
    intervals = {record.op: (record.start, record.end) for record in recorder.ops}
    faults = 0
    for span in recorder.spans:
        interval = intervals.get(span.op)
        parent = span.parent
        faults += (
            span.end == 0
            or interval is None
            or not interval[0] <= span.start <= span.end <= interval[1]
            or (parent is not None and not parent.start <= span.start <= span.end <= parent.end)
        )
    return faults


def layer_self_metrics(attribution: Attribution) -> dict:
    """Per-op self time of every layer, plus the span-derived ratios."""
    metrics = {f"{layer}.self_ms": attribution.per_op_ms(layer) for layer in LAYERS}
    metrics["storage.fetch.wait_ms"] = attribution.wait_per_op_ms("storage.fetch")
    unpacked = attribution.values.get("bitpack.unpack", 0)
    metrics["bitpack.unpack.ns_per_value"] = (
        attribution.self_ns.get("bitpack.unpack", 0) / unpacked if unpacked else 0.0
    )
    metrics["bench.unattributed_frac"] = (
        attribution.unattributed / attribution.wall if attribution.wall else 0.0
    )
    return metrics
