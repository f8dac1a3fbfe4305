"""``serve``: two closed-loop HTTP clients against ``corra serve``.

Set-up writes the four paper tables (8 blocks each) into a catalog and
starts ``python -m repro.cli serve`` as its own process on an ephemeral
port, with default settings except ``--cache-bytes``, which is far below
the bytes the mix touches, so the block cache evicts and re-reads from the
files.  Each client sends one request per connection.  One request in four
repeats an earlier one exactly (a result-cache hit); the rest carry fresh
seeded parameters.  At 1:3 the median stays inside the miss band; at 1:1
it would sit on the edge between hits and misses and jump.

HTTP, protocol, admission, the result cache, the block cache, file reads
and deserialisation do the work that ``scan`` skips.

The traced run hosts the same ``QueryService`` in-process
(``BackgroundServer``) so the wrappers see its calls, with one client so
each request's spans belong to exactly one op.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import selectors
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

import fixtures as F
import harness as H
import spans as S
from repro import TableCompressor
from repro.query import EngineConfig
from repro.server import BackgroundServer, QueryService
from repro.storage import Catalog

#: Block-cache budget given to the server: the mix touches several MB.
CACHE_BYTES = 1 << 20
CLIENTS = 2
#: Every fourth request repeats one sent 4 to 63 requests earlier.
REPEAT_EVERY = 4
#: Requests in the list: more than any run sends, so fresh ones stay fresh.
N_REQUESTS = 8_000
#: Miss shapes and their weights.  Served on a 2-core box: DMV RLE/FOR
#: ~2 ms, diff filter and top-k 13-15 ms, Taxi multi-reference ~36 ms; with
#: hits at ~1 ms the median falls a third into the diff/top-k band and p95
#: inside the Taxi band.  The hierarchical DMV shapes (250-400 ms served,
#: the block cache re-reading their dictionaries) would take most of the
#: time, so they run in ``scan`` only.
SHAPE_WEIGHTS = {
    "rle_and_for_between_sum": 1,
    "diff_between_sum": 3,
    "topk_receiptdate": 3,
    "taxi_multiref_between_sum": 2,
}
HOST = "127.0.0.1"
STARTUP_SECONDS = 60.0


def build_requests(seed: int, sorted_columns, n_requests: int = N_REQUESTS) -> list:
    rng = np.random.default_rng([seed, 3])
    shapes = [shape for shape, weight in SHAPE_WEIGHTS.items() for _ in range(weight)]
    ops: list = []
    for index in range(n_requests):
        if index % REPEAT_EVERY == REPEAT_EVERY - 1 and index >= 64:
            ops.append(ops[index - int(rng.integers(4, 64))])
        else:
            ops.append(F.make_op(shapes[int(rng.integers(len(shapes)))], rng, sorted_columns))
    return ops


def write_catalog(tables: dict, root) -> float:
    """Compress and save every table; returns file bytes over raw bytes."""
    catalog = Catalog(root)
    for name, table in tables.items():
        plan = F.paper_plan(name, table.schema)
        catalog.save(name, TableCompressor(plan, block_size=F.BLOCK_ROWS).compress(table))
    stored = sum(catalog.path_of(name).stat().st_size for name in tables)
    raw = sum(table.uncompressed_size() for table in tables.values())
    return stored / raw


def post(port: int, body: bytes) -> tuple[int, bytes]:
    connection = http.client.HTTPConnection(HOST, port, timeout=60)
    try:
        connection.request("POST", "/query", body=body,
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def get_json(port: int, path: str) -> dict:
    connection = http.client.HTTPConnection(HOST, port, timeout=30)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        payload = response.read()
        if response.status != 200:
            raise RuntimeError(f"GET {path} returned {response.status}")
        return json.loads(payload)
    finally:
        connection.close()


# -- the server process ------------------------------------------------------------


@dataclass
class Server:
    process: subprocess.Popen
    port: int


def split_cpus() -> tuple[set, set]:
    """(server CPUs, client CPUs): the server process gets a CPU of its own.

    Unpinned, the server's threads hand the interpreter lock across CPUs,
    and on a shared 2-CPU host served throughput halved for minutes at a
    time (29-39 against 61-77 req/s); pinning keeps those handoffs on one
    CPU.  The benchmark's clients take the other CPUs for the timed phase.
    The traced run hosts the server in-process and stays unpinned.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return set(cpus), set(cpus)
    return {cpus[-1]}, set(cpus[:-1])


def start_server(catalog_root, workdir, server_cpus: set) -> Server:
    """``corra serve`` on an ephemeral port; returns once ``/health`` answers."""
    env = dict(os.environ, PYTHONPATH=str(workdir.root / "src"))
    log = open(workdir.path / "server.log", "ab")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", str(catalog_root),
         "--host", HOST, "--port", "0", "--cache-bytes", str(CACHE_BYTES)],
        stdout=subprocess.PIPE, stderr=log, env=env, cwd=workdir.root,
    )
    log.close()
    try:
        os.sched_setaffinity(process.pid, server_cpus)
        port = _read_port(process)
        deadline = time.monotonic() + STARTUP_SECONDS
        while True:
            try:
                if get_json(port, "/health").get("status") == "ok":
                    return Server(process, port)
            except (OSError, RuntimeError):
                pass
            if time.monotonic() > deadline or process.poll() is not None:
                raise RuntimeError("corra serve did not become healthy")
            time.sleep(0.001)
    except BaseException:
        stop_server(Server(process, 0))
        raise


def _read_port(process: subprocess.Popen) -> int:
    """Parse the bound port from the ``serving catalog ... on http://h:p`` line."""
    selector = selectors.DefaultSelector()
    selector.register(process.stdout, selectors.EVENT_READ)
    deadline = time.monotonic() + STARTUP_SECONDS
    try:
        while time.monotonic() < deadline:
            if not selector.select(timeout=max(0.0, deadline - time.monotonic())):
                break
            line = process.stdout.readline().decode("utf-8", "replace")
            if not line:
                break
            if " on http://" in line:
                return int(line.rsplit(":", 1)[1])
    finally:
        selector.close()
    raise RuntimeError("corra serve did not report its port")


def server_peak_rss_mb(server: Server) -> float:
    """The server process's resident-set high-water mark (``VmHWM``)."""
    with open(f"/proc/{server.process.pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not reported")


def stop_server(server: Server) -> None:
    """Terminate the server, then kill it if it does not exit; always reaps it.

    SIGTERM rather than SIGINT: a process started from a background job
    inherits SIGINT as ignored, and the server then never sees it.
    """
    process = server.process
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    if process.stdout is not None:
        process.stdout.close()


# -- the workload ---------------------------------------------------------------


@dataclass
class Oracle:
    """The generated arrays, the request list and its bodies, built once.

    They come from their own generation of the tables, outside the timed
    set-up; every set-up replays the same requests.
    """

    arrays: dict
    ops: list
    bodies: list
    warm_bodies: list  # from another seed, so timed requests are not cache hits


def build_oracle(seed: int) -> Oracle:
    arrays = F.decoded_arrays(F.generate_tables(seed))
    sorted_columns = F.sorted_column_cache(arrays)
    ops = build_requests(seed, sorted_columns)
    warm = build_requests(seed + 1_000_003, sorted_columns, n_requests=64)
    encode = lambda op: json.dumps(F.to_request(op)).encode()
    return Oracle(arrays, ops, [encode(op) for op in ops], [encode(op) for op in warm])


@dataclass
class State:
    catalog_root: object
    stored_ratio: float
    server: Server | None = None


def prepare(seed: int, workdir, name: str) -> State:
    """Generate the tables and write them into a fresh catalog."""
    tables = F.generate_tables(seed)
    root = workdir.path / name
    return State(root, write_catalog(tables, root))


def check(oracle: Oracle, loop: H.Loop, offset: int = 0) -> int:
    """Non-200 responses and answers differing from the numpy floor."""
    expected: dict = {}
    failed = 0
    for index, (status, payload) in loop.results:
        op = oracle.ops[(offset + index) % len(oracle.ops)]
        if status != 200:
            failed += 1
            continue
        if id(op) not in expected:
            expected[id(op)] = F.canonical(F.floor(op, oracle.arrays))
        if json.loads(payload)["columns"] != expected[id(op)]:
            failed += 1
    return failed


def warm_up(oracle: Oracle, port: int) -> None:
    H.warm_up(lambda index: post(port, oracle.warm_bodies[index % len(oracle.warm_bodies)]))


def run(seed: int, seconds: float, trace: bool, workdir) -> dict:
    if trace:
        return run_traced(seed, seconds, workdir)
    counter = itertools.count()
    server_cpus, client_cpus = split_cpus()
    oracle = build_oracle(seed)
    bodies = oracle.bodies

    def setup() -> State:
        state = prepare(seed, workdir, f"catalog-{next(counter)}")
        state.server = start_server(state.catalog_root, workdir, server_cpus)
        return state

    def teardown(state: State) -> None:
        if state.server is not None:
            stop_server(state.server)

    state = None
    try:
        setups, state = H.timed_setups(setup, teardown)
        # Set-ups run unpinned, like the other workloads' (no server runs
        # while a set-up generates and writes); the timed phase is pinned.
        os.sched_setaffinity(0, client_cpus)
        port = state.server.port
        warm_up(oracle, port)
        loop = H.closed_loop(lambda index: post(port, bodies[index % len(bodies)]),
                             seconds, clients=CLIENTS)
        server_metrics = get_json(port, "/metrics")
        rss = server_peak_rss_mb(state.server)
    finally:
        if state is not None:
            teardown(state)
    failed = check(oracle, loop) + loop.errors
    metrics = H.end_to_end(loop, setups, rss, state.stored_ratio)
    return {"attempted": loop.attempted, "failed": failed, "metrics": metrics,
            "record": {**record(server_metrics), **H.loop_record(loop, setups),
                       "server_cpus": sorted(server_cpus), "client_cpus": sorted(client_cpus)}}


def _counters(snapshot: dict) -> dict:
    io = [table.get("io", {}) for table in snapshot["tables"].values()]
    admission = snapshot["stages"].get("admission", {})
    return {
        "cache_hits": snapshot["block_cache"]["hits"],
        "cache_misses": snapshot["block_cache"]["misses"],
        "evictions": snapshot["block_cache"]["evictions"],
        "result_hits": snapshot["result_cache"]["hits"],
        "result_misses": snapshot["result_cache"]["misses"],
        "bytes_read": sum(entry.get("bytes_read", 0) for entry in io),
        "reads_coalesced": sum(entry.get("reads_coalesced", 0) for entry in io),
        "prefetch_hits": sum(entry.get("prefetch_hits", 0) for entry in io),
        "admission_s": admission.get("sum_seconds", 0.0),
    }


def run_traced(seed: int, seconds: float, workdir) -> dict:
    oracle = build_oracle(seed)
    bodies = oracle.bodies
    state = prepare(seed, workdir, "catalog-traced")
    engine_config = EngineConfig(workers=0, cache_bytes=CACHE_BYTES)
    with QueryService(state.catalog_root, engine_config=engine_config) as service:
        with BackgroundServer(service, host=HOST, port=0) as (_, port):
            warm_up(oracle, port)
            plain = H.closed_loop(lambda index: post(port, bodies[index % len(bodies)]), seconds)
            offset = plain.attempted
            op = lambda index: post(port, bodies[(offset + index) % len(bodies)])
            before = _counters(get_json(port, "/metrics"))
            recorder = S.Recorder()
            instrumentation = S.Instrumentation(recorder).install()
            try:
                traced = H.closed_loop(op, seconds, around=recorder.op)
            finally:
                instrumentation.restore()
            after = _counters(get_json(port, "/metrics"))
    recorder.dump(workdir.trace_path("serve"))
    failed = check(oracle, plain) + check(oracle, traced, offset) + plain.errors + traced.errors
    metrics = S.layer_self_metrics(S.attribute(recorder))
    delta = {key: after[key] - before[key] for key in after}
    n_ops = max(1, traced.attempted)
    lookups = delta["cache_hits"] + delta["cache_misses"]
    results = delta["result_hits"] + delta["result_misses"]
    metrics.update({
        "bench.tracing_overhead_frac": 1.0 - traced.throughput / plain.throughput,
        "storage.cache.hit_rate": delta["cache_hits"] / lookups if lookups else 0.0,
        "storage.cache.evictions_per_op": delta["evictions"] / n_ops,
        "storage.io.bytes_read_per_op": delta["bytes_read"] / n_ops,
        "storage.io.reads_coalesced": delta["reads_coalesced"] / n_ops,
        "storage.io.prefetch_hits": delta["prefetch_hits"] / n_ops,
        "server.admission.wait_ms": delta["admission_s"] * 1e3 / n_ops,
        "server.result_cache.hit_rate": delta["result_hits"] / results if results else 0.0,
    })
    return {"attempted": plain.attempted + traced.attempted, "failed": failed,
            "metrics": metrics, "record": record(None),
            "spans_well_formed": S.span_faults(recorder) == 0}


def record(server_metrics: dict | None) -> dict:
    out = {
        "rows_per_table": F.N_ROWS,
        "block_rows": F.BLOCK_ROWS,
        "cache_bytes": CACHE_BYTES,
        "clients": CLIENTS,
        "repeat_every": REPEAT_EVERY,
        "shape_weights": SHAPE_WEIGHTS,
    }
    if server_metrics is not None:
        out["server"] = {
            "queries_total": server_metrics.get("queries_total"),
            "queries_cached": server_metrics.get("queries_cached"),
            "result_cache": server_metrics.get("result_cache"),
            "block_cache": server_metrics.get("block_cache"),
        }
    return out
