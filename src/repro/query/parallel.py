"""Work-stealing parallel execution over compressed relations.

Every query operator walks the post-pruning block list one block at a
time, and every per-block kernel (bit-unpacking, predicate masks,
``np.isin``, gathers) is NumPy code that releases the GIL.
:class:`ParallelEngine` spreads that walk over worker threads:

* :meth:`ParallelEngine.classify` asks the
  :class:`~repro.query.scan.ScanPlanner` for the block decisions — pruned
  blocks never reach a worker, and every surviving block becomes one
  :class:`BlockTask` (scanned or fully covered);
* :meth:`ParallelEngine.run` deals the tasks into per-worker deques as
  contiguous slices (good for read-ahead locality) and runs one *drain
  loop* per worker on a ``ThreadPoolExecutor``: each worker pops tasks
  from the **front** of its own deque, and when it drains it **steals
  from the back** of a sibling's — so a skewed workload (one dense block
  among pruned ones, RLE blocks of wildly different run counts,
  cache-miss stragglers on a :class:`~repro.storage.disk.DiskRelation`)
  no longer serialises on the slowest worker's tail::

      tasks      [t0 t1 t2 t3 | t4 t5 t6 t7]      contiguous deal, 2 workers
                      │                │
      worker 0   t0 t1 t2 t3     worker 1   t4 t5 t6 t7
                 ▲ popleft()                ▲ popleft()
                 (own work: front)          ...finishes early, then
                                            steals t3 = queues[0].pop()
                                            (victim's back: the task the
                                            owner would reach *last*)

  Steals are charged to ``steal_attempts``/``morsels_stolen`` and show up
  as ``steal`` spans in the tracing tree.  Both deque ends are single
  CPython bytecode operations, so no locks are needed and a task is taken
  exactly once;
* results come back in task order, so stealing changes *where* a task
  runs, never what the caller merges.

What a task *does* — predicate, prefetch hint, operator partial — is the
query compiler's per-block pipeline
(:class:`~repro.query.plan.QueryCompiler`); this module only schedules it.
Threads (not processes) are the right vehicle because the kernels are
NumPy-bound.  ``workers=1`` executes inline without a pool.  The module
also provides :func:`parallel_map`, the ad-hoc ordered thread-pool map
that :class:`~repro.core.plan.TableCompressor` uses to compress blocks on
all cores.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, NamedTuple, Sequence, TypeVar

from ..errors import ValidationError
from ..storage.relation import Relation
from .predicates import Predicate
from .scan import BlockDecision, ScanMetrics, ScanPlanner
from .tracing import current_tracer, run_adopted

__all__ = ["BlockTask", "ParallelEngine", "parallel_map", "resolve_workers"]

T = TypeVar("T")
R = TypeVar("R")


def resolve_workers(workers: int | None) -> int:
    """Normalise a worker-count request (``None``/``0`` = all cores)."""
    if workers is None or workers == 0:
        return max(1, os.cpu_count() or 1)
    if workers < 0:
        raise ValidationError("worker count must be positive (or 0 for auto)")
    return int(workers)


def parallel_map(fn: Callable[[T], R], items: Sequence[T], workers: int | None = None) -> list[R]:
    """``[fn(item) for item in items]`` fanned across a thread pool.

    Output order matches input order regardless of completion order.  With
    one worker (or at most one item) the map runs inline, avoiding pool
    start-up cost and keeping tracebacks trivial.
    """
    n_workers = min(resolve_workers(workers), max(1, len(items)))
    if n_workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    fn = _adopting(fn)
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(fn, items))


def _adopting(fn: Callable[[T], R]) -> Callable[[T], R]:
    """Wrap a worker body so pool threads join the caller's active trace.

    The ambient tracer and the caller's innermost open span are captured
    *on the calling thread*; each worker invocation then runs inside
    :meth:`~repro.query.tracing.Tracer.adopt`, so spans the worker opens
    nest under the span that launched the fan-out.  When tracing is off
    the body is returned untouched — the disabled path adds nothing.
    """
    tracer = current_tracer()
    if not tracer.enabled:
        return fn
    parent = tracer.current()
    return lambda item: run_adopted(tracer, parent, fn, item)


class BlockTask(NamedTuple):
    """One non-pruned block of a classified scan: the scheduler's work unit."""

    #: Block position in the relation.
    index: int
    #: Global row id of the block's first row.
    offset: int
    #: The planner proved every row qualifies (no predicate evaluation).
    full: bool


class ParallelEngine:
    """Block classification plus the work-stealing per-block scheduler.

    Parameters
    ----------
    relation:
        The compressed relation to execute over.
    workers:
        Worker threads; ``None``/``0`` uses every core, ``1`` runs inline.
    planner:
        An existing (possibly memoized) :class:`ScanPlanner` to share; a
        fresh one is created otherwise.
    pool:
        An externally-owned ``ThreadPoolExecutor`` to run drain loops on —
        a shared :class:`~repro.query.engine.Engine` passes its one pool
        here so N concurrent queries share workers.  :meth:`close` never
        shuts an external pool down.
    stealing:
        Let drained workers steal tasks from the back of a sibling's
        deque (default).  ``False`` keeps the same contiguous per-worker
        deal but never rebalances — the fixed fan-out baseline that
        skew benchmarks compare against.
    """

    def __init__(
        self,
        relation: Relation,
        workers: int | None = None,
        planner: ScanPlanner | None = None,
        pool: ThreadPoolExecutor | None = None,
        stealing: bool = True,
    ):
        self._relation = relation
        self._workers = resolve_workers(workers)
        self._planner = planner if planner is not None else ScanPlanner(relation)
        self._stealing = stealing
        #: Externally-owned pool (shared engine): used but never shut down.
        self._shared_pool = pool
        #: Lazily-created persistent pool: repeated queries must not pay
        #: thread start-up on every call.  Idle threads cost nothing and are
        #: joined cleanly at interpreter shutdown (or via :meth:`close`).
        self._pool: ThreadPoolExecutor | None = None

    @property
    def relation(self) -> Relation:
        return self._relation

    @property
    def workers(self) -> int:
        return self._workers

    @property
    def planner(self) -> ScanPlanner:
        return self._planner

    def classify(self, predicate: Predicate | None) -> tuple[list[BlockTask], ScanMetrics]:
        """Plan a scan: the non-pruned blocks as tasks, plus pre-filled metrics.

        Tasks come in block order; the metrics carry the block totals and
        per-decision counts.  ``predicate=None`` classifies every non-empty
        block as fully covered.
        """
        plan = self._planner.plan(predicate)
        metrics = ScanMetrics(n_blocks=plan.n_blocks, rows_total=self._relation.n_rows)
        tasks: list[BlockTask] = []
        offset = 0
        for index, decision in enumerate(plan.decisions):
            block = self._relation.block(index)
            if decision == BlockDecision.PRUNE:
                metrics.blocks_pruned += 1
            elif decision == BlockDecision.FULL:
                metrics.blocks_full += 1
                tasks.append(BlockTask(index, offset, True))
            else:
                metrics.blocks_scanned += 1
                tasks.append(BlockTask(index, offset, False))
            offset += block.n_rows
        return tasks, metrics

    def run(self, tasks: Sequence[T], fn: Callable[[T], R]) -> tuple[list[R], ScanMetrics]:
        """``[fn(task) for task in tasks]`` under the work-stealing scheduler.

        Returns the results *in task order* — stealing moves work between
        threads, never reorders the output — plus one scheduler-level
        :class:`ScanMetrics` carrying the ``steal_attempts``/
        ``morsels_stolen`` counters summed over workers.

        The tasks are dealt into ``n_workers`` contiguous deques (so each
        worker's own work preserves the read-ahead-friendly block order)
        and one drain loop runs per worker: own work comes off the front
        (``popleft``); a drained worker probes siblings round-robin and
        steals from the back (``pop``) — the task its owner would have
        reached last.  Both deque ends are atomic under the GIL, so a task
        is executed exactly once without any locking.  Results land in a
        pre-sized list at their task's position; the writes are to
        disjoint indices, so the shared list needs no lock either.
        """
        scheduler = ScanMetrics()
        n_workers = min(self._workers, len(tasks))
        if n_workers <= 1:
            return [fn(task) for task in tasks], scheduler

        results: list[Any] = [None] * len(tasks)
        indexed = list(enumerate(tasks))
        base, extra = divmod(len(indexed), n_workers)
        queues: list[deque[tuple[int, T]]] = []
        start = 0
        for worker_id in range(n_workers):
            stop = start + base + (1 if worker_id < extra else 0)
            queues.append(deque(indexed[start:stop]))
            start = stop

        def drain(worker_id: int) -> ScanMetrics:
            stats = ScanMetrics()
            tracer = current_tracer()
            own = queues[worker_id]
            while True:
                try:
                    position, task = own.popleft()
                except IndexError:
                    if not self._stealing:
                        return stats
                    stolen = None
                    for step in range(1, n_workers):
                        victim = (worker_id + step) % n_workers
                        stats.steal_attempts += 1
                        try:
                            stolen = queues[victim].pop()
                        except IndexError:
                            continue
                        stats.morsels_stolen += 1
                        position, task = stolen
                        with tracer.span("steal", worker=worker_id, victim=victim):
                            results[position] = fn(task)
                        break
                    if stolen is None:
                        return stats
                    continue
                results[position] = fn(task)

        pool = self._shared_pool
        if pool is None:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(max_workers=self._workers)
            pool = self._pool
        for stats in pool.map(_adopting(drain), range(n_workers)):
            scheduler.merge(stats)
        return results, scheduler

    def close(self) -> None:
        """Shut the owned worker pool down (idempotent; the engine stays
        usable — the next parallel query simply starts a fresh pool).
        An externally-owned shared pool is left running."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ParallelEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
