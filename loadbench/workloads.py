"""The four workloads and the metrics they report.

Served workloads (``read-hot``, ``read-cold``, ``ingest-fresh``) spawn
``python -m repro serve`` and drive it over keep-alive connections.
``sweep-offline`` runs the off-line cube sweep in this process.  Every
workload also runs the same two side phases, so every end-to-end
metric is measured on every workload:

* a freshness phase: one writer posts ingest batches while one reader
  repeats a /rank (on ``ingest-fresh`` this is the timed window
  itself; elsewhere a fixed number of batches after it);
* spill sweeps: full sweeps of the workload's table over a
  ``SpillBackend`` in this process, spread over the run.
"""

from __future__ import annotations

import os
import shutil
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.cube.backend import SpillBackend
from repro.cube.store import CubeStore
from repro.cube.wal import WriteAheadLog
from repro.service.engine import ComparisonEngine
from repro.service.config import ServiceConfig
from repro.service.http import ComparisonHTTPServer

import check
import data
import load
import spans
from reference import References
from server import Server

TABLE_ROWS = 30_000
SWEEP_ROWS = 1_000_000
#: 13 noise + 8 domain attributes = 21 condition attributes: 210 pairs.
SWEEP_NOISE = 13
#: Closed-loop callers on the read workloads, one per core of the
#: 2-core machines the benchmark was sized on.
CALLERS = 2
HOT_KEYS = 4
COLD_WARMUP_KEYS = 30
#: Batches in sweep-offline's freshness phase (each reference check
#: there recounts a million rows).
PROBE_BATCHES = 24
#: Spill sweeps per run: at least this many and, on the served
#: workloads, at least SPILL_SECONDS of sweeping, so a small table's
#: short sweeps give a median over many samples.
SPILL_SWEEPS = 7
SPILL_SECONDS = 2.0
#: Spill encodes behind sweep-offline's setup_s; one takes ~50 ms.
SWEEP_ENCODES = 21
#: A memory sweep takes 1.3-3 s on a shared 2-core machine, so
#: sweep-offline times at least this many even when --seconds would
#: allow fewer.
MIN_MEMORY_SWEEPS = 5
#: ingest-fresh draws from a pool of this many batches per timed
#: second, cycling if the writer outruns it.
INGEST_POOL_PER_SECOND = 30

LAUNCHER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "launcher.py")


class Context(NamedTuple):
    root: str
    work: str
    seed: int
    seconds: float
    trace: bool
    servers: List[Server]  # every server spawned, for cleanup


class ServedSpec(NamedTuple):
    noise: int
    mode: str  # "hot", "cold" or "ingest"
    spawns: int  # timed spawns behind setup_s
    hit_ratio: Optional[float]  # the guard's expected value
    # Batches in the freshness phase after the window; None on
    # ingest-fresh, whose window is the freshness phase.
    probe_batches: Optional[int]


SERVED = {
    # read-cold's batches each update ~3.9k cubes, ten times read-hot's.
    "read-hot": ServedSpec(20, "hot", 3, 1.0, 60),
    "read-cold": ServedSpec(80, "cold", 2, 0.0, 24),
    "ingest-fresh": ServedSpec(20, "ingest", 3, None, None),
}


class Report:
    """What one run prints: metrics, operation counts, guard failures
    and human-readable notes."""

    def __init__(self) -> None:
        self.metrics: Dict[str, Dict[str, Any]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.notes: List[str] = []

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def timing(self, prefix: str, seconds: List[float]) -> None:
        """``<prefix>p50_ms`` and ``<prefix>tail_ms`` of ``seconds``."""
        self.metric(f"{prefix}p50_ms", 1000 * check.median(seconds), "ms")
        tail = check.tail(seconds)
        self.metric(f"{prefix}tail_ms", 1000 * tail.value, "ms")
        self.notes.append(
            f"{prefix}tail_ms is p{tail.percentile:.1f} of "
            f"{tail.samples} samples"
        )


def _latencies(ops: List[load.Op]) -> List[float]:
    return [op.end - op.start for op in ops if op.ok]


def _ops_per_s(ops: List[load.Op]) -> float:
    done = [op for op in ops if op.ok]
    span = max(op.end for op in done) - min(op.start for op in done)
    return len(done) / span


def _self_vmhwm_mb() -> float:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


# ---------------------------------------------------------------------------
# Shared phases
# ---------------------------------------------------------------------------


class SpillSweeps:
    """Full sweeps of a table over a ``SpillBackend``.

    Construction encodes the table into a fresh spill directory; each
    sweep is a ``precompute`` of a fresh store over it.  Plain runs
    spread the sweeps over the run (between server spawns; beside
    sweep-offline's memory sweeps), so one slow stretch of a shared
    machine does not set the whole median.
    """

    def __init__(self, table, directory: str) -> None:
        shutil.rmtree(directory, ignore_errors=True)
        SpillBackend.from_dataset(directory, table)
        self.directory = directory
        self.times: List[float] = []
        self.store: Optional[CubeStore] = None

    def run(self, count: int, seconds: float = 0.0) -> None:
        """At least ``count`` sweeps, and more until ``seconds`` of
        sweeping have passed."""
        started = time.perf_counter()
        done = 0
        while done < count or time.perf_counter() - started < seconds:
            began = time.perf_counter()
            self.store = CubeStore.from_backend(
                SpillBackend.open(self.directory))
            self.store.precompute()
            self.times.append(time.perf_counter() - began)
            done += 1


def split(total: int, parts: int) -> List[int]:
    """``total`` as ``parts`` near-equal counts."""
    return [total // parts + (i < total % parts) for i in range(parts)]


def freshness_metrics(report: Report, run: load.FreshnessRun) -> None:
    delays, unseen = check.freshness(run.acks, run.reads)
    if unseen:
        report.problems.append(f"{unseen} acknowledged batches never "
                               "showed in a read")
    report.metric("read_p50_ms",
                  1000 * check.median(_latencies(run.read_ops)), "ms")
    report.timing("fresh_", delays)
    report.notes.append(
        f"freshness over {len(run.acks)} batches of {data.BATCH_ROWS} "
        f"rows, {len(run.read_ops)} reads"
    )


def check_answers(
    report: Report,
    book: check.AnswerBook,
    table,
    run: load.FreshnessRun,
    batches,
) -> None:
    """Every distinct body against ``compare_from_data`` over the rows
    held at its generation: the table plus the first acknowledged
    batches, one per generation step."""
    g0 = run.first_generation
    expected = [g0 + i + 1 for i in range(len(run.acks))]
    if [ack.generation for ack in run.acks] != expected:
        report.problems.append(
            "acknowledged generations are not one step per batch; "
            "answers cannot be matched to rows"
        )
        return
    acked = [batches[i % len(batches)] for i in range(len(run.acks))]
    full = table.concat(data.rows_dataset(table.schema, acked)) if acked \
        else table

    def rows_at(generation: int):
        if not g0 <= generation <= g0 + len(acked):
            raise ValueError(f"generation {generation} outside "
                             f"[{g0}, {g0 + len(acked)}]")
        return data.prefix(full, table.n_rows +
                           (generation - g0) * data.BATCH_ROWS)

    refs = References(rows_at)
    wrong, problems = book.check(
        lambda k: refs.body(k[0], k[1], k[2]),
        order=lambda k: (k[1], k[2]),
    )
    report.failed += wrong
    report.problems.extend(problems)
    report.notes.append(f"checked {len(book)} distinct bodies against "
                        "compare_from_data")


# ---------------------------------------------------------------------------
# Served workloads
# ---------------------------------------------------------------------------


class ServedInputs(NamedTuple):
    table: Any  # the served table as the server reads it
    csv: str
    keys: List[data.Key]
    rank_key: data.Key
    batches: List[List[tuple]]


def served_inputs(ctx: Context, spec: ServedSpec) -> ServedInputs:
    csv = os.path.join(ctx.work, "table.csv")
    table = data.write_table(
        data.generate(TABLE_ROWS, spec.noise, ctx.seed), csv
    )
    n_batches = spec.probe_batches
    if n_batches is None:
        n_batches = int(INGEST_POOL_PER_SECOND * ctx.seconds) + 1
    stream = os.path.join(ctx.work, "stream.csv")
    data.write_stream(stream, spec.noise, ctx.seed, n_batches)
    if spec.mode == "hot":
        keys = data.hot_keys(table, ctx.seed, HOT_KEYS)
    else:
        keys = data.all_keys(table, ctx.seed)
    return ServedInputs(
        table, csv, keys, data.hot_keys(table, ctx.seed + 1, 1)[0],
        data.read_stream(stream, table.schema),
    )


def spawn(ctx: Context, name: str, csv: str,
          spans_out: Optional[str] = None) -> Server:
    args = [
        "serve", csv, "--class-attribute", data.CLASS_ATTRIBUTE,
        "--port", "0",
        # WAL on every served workload, flushed per append without
        # fsync (the default policy, stated here), so each ingest in
        # the freshness phase takes the durable write path.
        "--wal-dir", os.path.join(ctx.work, f"{name}-wal"),
        "--wal-fsync", "batch",
    ]
    if spans_out is None:
        argv = ["-m", "repro", *args]
    else:
        argv = [LAUNCHER, spans_out, *args]
    server = Server(ctx.root, ctx.work, name, argv)
    ctx.servers.append(server)
    return server


def warm(url: str, spec: ServedSpec, inputs: ServedInputs,
         book: check.AnswerBook, failures: load.Failures) -> int:
    """Untimed reads before the window; returns how many were sent."""
    svc = load.client(url)
    if spec.mode == "hot":
        plan = [(e, k) for k in inputs.keys for e in load.ENDPOINTS]
    elif spec.mode == "cold":
        plan = [(load.ENDPOINTS[i % 3], k) for i, k in
                enumerate(inputs.keys[-COLD_WARMUP_KEYS:])]
    else:
        plan = [("rank", inputs.rank_key)] * 3
    for endpoint, key in plan:
        body = load.call(lambda: load.read(svc, endpoint, key), failures,
                         f"warm-up {endpoint}")
        if body is not None:
            book.add((endpoint, key, body["generation"]), body)
    svc.close()
    return len(plan)


class Window(NamedTuple):
    main_ops: List[load.Op]
    fresh: load.FreshnessRun
    hits: float
    misses: float
    peak_rss_mb: float


def drive(ctx: Context, spec: ServedSpec, inputs: ServedInputs,
          server: Server, seconds: float, book: check.AnswerBook,
          failures: load.Failures, report: Report,
          recorder: Optional[spans.Recorder] = None) -> Window:
    """Warm-up, the timed window, the freshness phase and a final read,
    then a clean stop."""
    url = server.url
    report.attempted += warm(url, spec, inputs, book, failures)
    if recorder is not None:
        recorder.active = True
    before = server.metrics()
    if spec.mode == "ingest":
        fresh = load.run_freshness(url, inputs.batches, inputs.rank_key,
                                   book, failures, seconds=seconds)
        main_ops = fresh.ingest_ops
    else:
        main_ops = load.run_readers(url, inputs.keys, CALLERS, seconds,
                                    book, failures,
                                    shared_keys=spec.mode == "cold")
    after = server.metrics()
    hits = (check.parse_counter(after, "repro_cache_hits_total")
            - check.parse_counter(before, "repro_cache_hits_total"))
    misses = (check.parse_counter(after, "repro_cache_misses_total")
              - check.parse_counter(before, "repro_cache_misses_total"))
    rss = server.peak_rss_mb()
    if spec.mode != "ingest":
        fresh = load.run_freshness(url, inputs.batches, inputs.rank_key,
                                   book, failures,
                                   count=spec.probe_batches)
    # + 1: the freshness phase's read before its first batch.
    report.attempted += (len(main_ops) + len(fresh.read_ops) + 1
                         + (0 if spec.mode == "ingest"
                            else len(fresh.ingest_ops)))
    final_read(url, inputs.rank_key, fresh, book, failures, report)
    if recorder is not None:
        recorder.active = False
    report.problems.extend(server.stop())
    problem = check.hit_ratio_problem(spec.hit_ratio, hits, misses)
    if problem:
        report.problems.append(problem)
    return Window(main_ops, fresh, hits, misses, rss)


def final_read(url: str, key: data.Key, fresh: load.FreshnessRun,
               book: check.AnswerBook, failures: load.Failures,
               report: Report) -> None:
    """After the writer stops, the ranking must reflect every
    acknowledged batch.  A /compare of the same key rides along: a
    ranking shows only scores, most of them zero under the paper's
    interval guard, while the compare body carries every count of every
    cube under the pivot."""
    svc = load.client(url)
    want = fresh.first_generation + len(fresh.acks)
    for endpoint in ("rank", "compare"):
        body = load.call(lambda: load.read(svc, endpoint, key), failures,
                         f"final {endpoint}")
        report.attempted += 1
        if body is None:
            continue
        if body["generation"] != want:
            report.problems.append(
                f"final {endpoint} served at generation "
                f"{body['generation']}, expected {want} after "
                f"{len(fresh.acks)} batches"
            )
        book.add((endpoint, key, body["generation"]), body)
    svc.close()


def served(ctx: Context, name: str) -> Report:
    spec = SERVED[name]
    report = Report()
    inputs = served_inputs(ctx, spec)
    book = check.AnswerBook()
    failures = load.Failures()
    if ctx.trace:
        _served_traced(ctx, spec, inputs, book, failures, report)
    else:
        _served_plain(ctx, spec, inputs, book, failures, report)
    report.failed += failures.count
    report.problems.extend(failures.examples)
    return report


def _served_plain(ctx, spec, inputs, book, failures, report) -> None:
    # One untimed spawn first (imports, page cache), then the median of
    # several timed spawns; the last one is the server that is driven.
    # Spill sweeps fill the gaps while no server runs.
    spill = SpillSweeps(inputs.table, os.path.join(ctx.work, "spill"))
    gaps = iter(split(SPILL_SWEEPS, spec.spawns + 1))
    gap_seconds = SPILL_SECONDS / (spec.spawns + 1)
    first = spawn(ctx, "spawn0", inputs.csv)
    first.wait_ready()
    report.problems.extend(first.stop())
    spill.run(next(gaps), gap_seconds)
    setups = []
    for i in range(1, spec.spawns + 1):
        server = spawn(ctx, f"spawn{i}", inputs.csv)
        setups.append(server.wait_ready())
        if i < spec.spawns:
            report.problems.extend(server.stop())
            spill.run(next(gaps), gap_seconds)
    report.metric("setup_s", check.median(setups), "s")
    report.notes.append(
        "setup_s spawns: " + ", ".join(f"{s:.4f}" for s in setups)
    )
    window = drive(ctx, spec, inputs, server, ctx.seconds, book,
                   failures, report)
    spill.run(next(gaps), gap_seconds)
    report.timing("", _latencies(window.main_ops))
    report.metric("ops_per_s", _ops_per_s(window.main_ops), "1/s")
    report.metric("peak_rss_mb", window.peak_rss_mb, "MB")
    freshness_metrics(report, window.fresh)
    report.attempted += len(spill.times)
    report.metric("spill_p50_ms", 1000 * check.median(spill.times), "ms")
    report.notes.append(f"spill_p50_ms over {len(spill.times)} sweeps")
    ratio = check.hit_ratio(window.hits, window.misses)
    report.notes.append(f"cache hit ratio in the window: {ratio}")
    check_answers(report, book, inputs.table, window.fresh, inputs.batches)


def _served_traced(ctx, spec, inputs, book, failures, report) -> None:
    half = ctx.seconds / 2
    plain = spawn(ctx, "plain", inputs.csv)
    plain.wait_ready()
    untraced = drive(ctx, spec, inputs, plain, half, book, failures,
                     report)
    check_answers(report, book, inputs.table, untraced.fresh,
                  inputs.batches)
    book = check.AnswerBook()

    recorder = spans.Recorder()
    spans.install_layers(recorder)
    recorder.active = False
    spans_out = os.path.join(ctx.work, "server-spans.json")
    traced = spawn(ctx, "traced", inputs.csv, spans_out)
    traced.wait_ready()
    window = drive(ctx, spec, inputs, traced, half, book, failures,
                   report, recorder)
    recorder.active = True
    SpillSweeps(inputs.table, os.path.join(ctx.work, "spill")).run(
        SPILL_SWEEPS)
    recorder.active = False
    recorder.uninstall()
    records = list(recorder.spans) + spans.load_records(spans_out)
    tree = spans.SpanTree(records)
    window_ids = {op.request_id for op in window.main_ops if op.ok}
    layer = spans.layer_metrics(tree, window_ids)
    layer["engine.cache_hit_ratio"] = (
        check.hit_ratio(window.hits, window.misses), "ratio")
    layer["wal.bytes_per_row"] = (
        wal_bytes_per_row(os.path.join(ctx.work, "traced-wal"),
                          len(window.fresh.acks)), "B")
    plain_p50 = check.median(_latencies(untraced.main_ops))
    traced_p50 = check.median(_latencies(window.main_ops))
    layer["traced.overhead_frac"] = (traced_p50 / plain_p50 - 1, "ratio")
    for metric, (value, unit) in layer.items():
        report.metric(metric, value, unit)
    report.notes.append(
        f"traced p50 {1000 * traced_p50:.3f} ms vs untraced "
        f"{1000 * plain_p50:.3f} ms; {len(records)} spans"
    )
    check_answers(report, book, inputs.table, window.fresh,
                  inputs.batches)


def wal_bytes_per_row(directory: str, batches: int) -> float:
    total = sum(
        os.path.getsize(os.path.join(directory, f))
        for f in os.listdir(directory)
    )
    return total / (batches * data.BATCH_ROWS)


# ---------------------------------------------------------------------------
# sweep-offline
# ---------------------------------------------------------------------------


def memory_sweeps(dataset, seconds: float) -> Tuple[List[load.Op], CubeStore]:
    """Full in-memory sweeps, back to back, for ``seconds``."""
    ops: List[load.Op] = []
    stop_at = time.perf_counter() + seconds
    store = None
    while time.perf_counter() < stop_at:
        began = time.perf_counter()
        store = CubeStore(dataset)
        store.precompute()
        ops.append(load.Op(began, time.perf_counter(), True, None))
    return ops, store


def interleaved_sweeps(ctx: Context, dataset, spill_dir: str):
    """sweep-offline's timed work: memory sweeps with an encode and a
    spill sweep beside each, until ``ctx.seconds`` of memory sweeping
    (and at least ``MIN_MEMORY_SWEEPS`` sweeps) and every encode and
    spill sweep are done.

    Interleaving spreads each kind's samples over the whole run, so one
    slow stretch of a shared machine does not set a median.  Returns the
    memory sweeps, the last swept store, the encode times and the spill
    sweeps.
    """
    spill = SpillSweeps(dataset, spill_dir)
    ops: List[load.Op] = []
    encodes: List[float] = []
    store = None
    swept = 0.0
    while (swept < ctx.seconds or len(ops) < MIN_MEMORY_SWEEPS
           or len(encodes) < SWEEP_ENCODES
           or len(spill.times) < SPILL_SWEEPS):
        if swept < ctx.seconds or len(ops) < MIN_MEMORY_SWEEPS:
            began = time.perf_counter()
            store = CubeStore(dataset)
            store.precompute()
            ops.append(load.Op(began, time.perf_counter(), True, None))
            swept += ops[-1].end - began
        if len(encodes) < SWEEP_ENCODES:
            directory = os.path.join(ctx.work, f"encode{len(encodes)}")
            began = time.perf_counter()
            SpillBackend.from_dataset(directory, dataset)
            encodes.append(time.perf_counter() - began)
            shutil.rmtree(directory)
        if len(spill.times) < SPILL_SWEEPS:
            spill.run(1)
    return ops, store, encodes, spill


def cubes_identical(a: CubeStore, b: CubeStore) -> Optional[str]:
    """``None`` when both stores hold the same cubes, bit for bit."""
    left, right = a.cached_items(), b.cached_items()
    if set(left) != set(right):
        return (f"memory sweep built {len(left)} cubes, spill sweep "
                f"{len(right)}")
    for key, cube in left.items():
        other = right[key]
        if (cube.counts.dtype != other.counts.dtype
                or not np.array_equal(cube.counts, other.counts)):
            return f"cube {key} differs between memory and spill sweeps"
    return None


def inprocess_probe(ctx: Context, store: CubeStore, dataset, stream: str,
                    rank_key: data.Key, book: check.AnswerBook,
                    failures: load.Failures, report: Report):
    """The freshness phase against the swept store, served from a
    thread of this process with a WAL bound to it.  Returns the run,
    its batches and the engine's cache (hits, misses)."""
    batches = data.read_stream(stream, dataset.schema)
    engine = ComparisonEngine(ServiceConfig(host="127.0.0.1", port=0))
    engine.add_store(store, wal=WriteAheadLog(
        os.path.join(ctx.work, "probe-wal"), fsync="batch"))
    server = ComparisonHTTPServer(engine, "127.0.0.1", 0)
    server.start_background()
    try:
        run = load.run_freshness(server.url, batches, rank_key, book,
                                 failures, count=PROBE_BATCHES)
        final_read(server.url, rank_key, run, book, failures, report)
        text = engine.metrics.render()
    finally:
        server.stop()
        engine.shutdown()
        engine.close_wals()
    hits = check.parse_counter(text, "repro_cache_hits_total")
    misses = check.parse_counter(text, "repro_cache_misses_total")
    return run, batches, (hits, misses)


def sweep(ctx: Context, name: str) -> Report:
    report = Report()
    failures = load.Failures()
    book = check.AnswerBook()
    dataset = data.generate(SWEEP_ROWS, SWEEP_NOISE, ctx.seed)
    stream = os.path.join(ctx.work, "stream.csv")
    data.write_stream(stream, SWEEP_NOISE, ctx.seed, PROBE_BATCHES)
    rank_key = data.hot_keys(dataset, ctx.seed + 1, 1)[0]
    spill_dir = os.path.join(ctx.work, "spill")

    recorder = None
    if ctx.trace:
        plain_ops, _ = memory_sweeps(dataset, ctx.seconds / 2)
        recorder = spans.Recorder()
        spans.install_layers(recorder)
        ops, store = memory_sweeps(dataset, ctx.seconds / 2)
        spill = SpillSweeps(dataset, spill_dir)
        spill.run(SPILL_SWEEPS)
    else:
        ops, store, encodes, spill = interleaved_sweeps(ctx, dataset,
                                                        spill_dir)
        report.metric("setup_s", check.median(encodes), "s")
        report.notes.append(
            "setup_s encodes: " + ", ".join(f"{s:.4f}" for s in encodes)
        )
    mismatch = cubes_identical(store, spill.store)
    if mismatch:
        report.problems.append(mismatch)
        report.failed += 1
    rss = _self_vmhwm_mb()
    run, batches, (hits, misses) = inprocess_probe(
        ctx, store, dataset, stream, rank_key, book, failures, report)
    report.attempted += (len(ops) + len(spill.times)
                         + len(run.ingest_ops) + len(run.read_ops) + 1)

    if recorder is None:
        report.timing("", _latencies(ops))
        # The window is the memory sweeps' own time; the encodes and
        # spill sweeps between them are not part of it.
        report.metric("ops_per_s", len(ops) / sum(_latencies(ops)), "1/s")
        report.metric("peak_rss_mb", rss, "MB")
        freshness_metrics(report, run)
        report.metric("spill_p50_ms", 1000 * check.median(spill.times),
                      "ms")
    else:
        recorder.active = False
        recorder.uninstall()
        tree = spans.SpanTree(recorder.spans)
        layer = spans.layer_metrics(tree, None)
        layer["engine.cache_hit_ratio"] = (
            check.hit_ratio(hits, misses), "ratio")
        layer["wal.bytes_per_row"] = (
            wal_bytes_per_row(os.path.join(ctx.work, "probe-wal"),
                              len(run.acks)), "B")
        sweeps = [r for r in tree.named("store.precompute")
                  if not tree.has_child(r, "backend.sweep")]
        layer["traced.coverage"] = (check.median([
            (r[4] - r[3]) / (op.end - op.start)
            for r, op in zip(sorted(sweeps, key=lambda r: r[3]), ops)
        ]), "ratio")
        layer["traced.overhead_frac"] = (
            check.median(_latencies(ops))
            / check.median(_latencies(plain_ops)) - 1, "ratio")
        for metric, (value, unit) in layer.items():
            report.metric(metric, value, unit)
    check_answers(report, book, dataset, run, batches)
    report.failed += failures.count
    report.problems.extend(failures.examples)
    return report


WORKLOADS: Dict[str, Callable[[Context, str], Report]] = {
    "read-hot": served,
    "read-cold": served,
    "ingest-fresh": served,
    "sweep-offline": sweep,
}
