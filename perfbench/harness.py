"""Shared measurement machinery: closed-loop timing, set-up timing, metrics."""

from __future__ import annotations

import itertools
import os
import platform
import resource
import statistics
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Closed-loop warm-up before the timed phase (caches fill, lazy set-up ends).
WARMUP_SECONDS = 1.0
#: Windows the record splits a timed phase into, to show host speed phases.
WINDOWS = 5


@dataclass
class Loop:
    """What one timed closed-loop phase did."""

    latencies: list = field(default_factory=list)  # seconds, one per completed op
    ends: list = field(default_factory=list)  # completion times since start, one per op
    results: list = field(default_factory=list)  # (op index, output), one per op
    elapsed: float = 0.0
    errors: int = 0  # ops that raised (counted as failed)

    @property
    def attempted(self) -> int:
        return len(self.results) + self.errors

    @property
    def throughput(self) -> float:
        return len(self.latencies) / self.elapsed if self.elapsed else 0.0


def closed_loop(run_op: Callable[[int], Any], seconds: float, clients: int = 1,
                around: Callable | None = None) -> Loop:
    """Each client runs its next op only after the previous one returns.

    Op indices come from one shared counter, so the clients together replay
    the op list in order.  ``around(index)``, when given, is a context
    manager opened around each op (the traced run's op scope).
    """
    loop = Loop()
    counter = itertools.count()
    lock = threading.Lock()
    start = time.perf_counter()
    deadline = start + seconds
    last_end = [start]

    def client() -> None:
        while True:
            began = time.perf_counter()
            if began >= deadline:
                return
            index = next(counter)
            try:
                if around is None:
                    output = run_op(index)
                else:
                    with around(index):
                        output = run_op(index)
            except Exception:  # the op failed; it is reported and counted, not fatal
                ended = time.perf_counter()
                with lock:
                    if not loop.errors:
                        traceback.print_exc(file=sys.stderr)
                    loop.errors += 1
                    last_end[0] = max(last_end[0], ended)
                continue
            ended = time.perf_counter()
            with lock:
                loop.latencies.append(ended - began)
                loop.ends.append(ended - start)
                loop.results.append((index, output))
                last_end[0] = max(last_end[0], ended)

    if clients == 1:
        client()
    else:
        threads = [threading.Thread(target=client, name=f"client-{i}") for i in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    loop.elapsed = last_end[0] - start
    return loop


def warm_up(run_op: Callable[[int], Any], seconds: float = WARMUP_SECONDS) -> None:
    deadline = time.perf_counter() + seconds
    index = 0
    while time.perf_counter() < deadline:
        run_op(index)
        index += 1


def timed_setups(setup: Callable[[], Any], teardown: Callable[[Any], None],
                 repeats: int = SETUP_REPEATS) -> tuple[list, Any]:
    """Run ``setup`` ``repeats`` times; return (seconds of each, last state).

    Each state is torn down and dropped before the next set-up starts, so
    no two are ever resident at once.
    """
    durations, state = [], None
    for _ in range(repeats):
        if state is not None:
            teardown(state)
            state = None
        began = time.perf_counter()
        state = setup()
        durations.append(time.perf_counter() - began)
    return durations, state


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def loop_record(loop: Loop, setups: list, windows: int = WINDOWS) -> dict:
    """Set-up times, op count, elapsed time and per-window rates of a run."""
    width = loop.elapsed / windows
    slot = np.minimum((np.asarray(loop.ends) / width).astype(int), windows - 1)
    return {
        "setup_runs_s": [round(duration, 3) for duration in setups],
        "ops": len(loop.latencies),
        "elapsed_s": round(loop.elapsed, 3),
        "window_ops_s": [round(float(c) / width, 2)
                         for c in np.bincount(slot, minlength=windows)],
    }


def end_to_end(loop: Loop, setups: list, rss_mb: float, stored_ratio: float) -> dict:
    latencies_ms = np.asarray(loop.latencies) * 1e3
    return {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": loop.throughput,
        "latency_p50_ms": float(np.percentile(latencies_ms, 50)),
        "latency_p95_ms": float(np.percentile(latencies_ms, 95)),
        "stored_bytes_ratio": stored_ratio,
        "peak_rss_mb": rss_mb,
    }


def machine_record() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
