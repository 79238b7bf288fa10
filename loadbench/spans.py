"""Spans recorded from outside the program.

:class:`Recorder` wraps the public entry points of each layer (see
:func:`install_layers`), keeps one span per call in memory and turns
them into per-layer self times.  The program itself is not edited: the
wrappers are installed into the imported modules of the process that
runs them (the benchmark itself, or the traced server launcher).

A span's parent is the innermost open span on the same thread.  Work
handed to a ``ThreadPoolExecutor`` (the engine's comparison pool, the
absorb fan-out) inherits the submitting thread's open span, so a
comparison that runs on a pool thread is a child of the engine call
that awaited it.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: (id, parent id, name, start, end, attributes)
SpanRecord = Tuple[int, Optional[int], str, float, float, Optional[dict]]


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[SpanRecord] = []
        self.active = True
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: List[Callable[[], None]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[int]:
        stack = self._stack()
        if stack:
            return stack[-1]
        return getattr(self._local, "inherited", None)

    def wrap(
        self,
        name: str,
        fn: Callable,
        annotate: Optional[Callable[[tuple, Any], dict]] = None,
    ) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            parent = recorder.current()
            span_id = next(recorder._ids)
            stack = recorder._stack()
            stack.append(span_id)
            start = time.perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                attrs = (
                    annotate(args, result)
                    if ok and annotate is not None
                    else None
                )
                recorder.spans.append(
                    (span_id, parent, name, start, end, attrs)
                )

        return wrapper

    def patch(
        self,
        owner: type,
        attr: str,
        name: str,
        annotate: Optional[Callable[[tuple, Any], dict]] = None,
    ) -> None:
        """Wrap one method (plain, static or class) of ``owner``."""
        original = owner.__dict__[attr]
        if isinstance(original, staticmethod):
            wrapped: Any = staticmethod(
                self.wrap(name, original.__func__, annotate)
            )
        elif isinstance(original, classmethod):
            wrapped = classmethod(
                self.wrap(name, original.__func__, annotate)
            )
        else:
            wrapped = self.wrap(name, original, annotate)
        setattr(owner, attr, wrapped)
        self._undo.append(lambda: setattr(owner, attr, original))

    def patch_function(
        self,
        fn: Callable,
        name: str,
        annotate: Optional[Callable[[tuple, Any], dict]] = None,
    ) -> None:
        """Wrap a module-level function in every loaded module of the
        program that refers to it (``from x import f`` copies the
        reference, so the defining module alone is not enough)."""
        wrapped = self.wrap(name, fn, annotate)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)
                    self._undo.append(
                        lambda m=module, a=attr: setattr(m, a, fn)
                    )

    def propagate_into_pools(self) -> None:
        """Let work submitted to any thread pool inherit the open span."""
        original = ThreadPoolExecutor.submit
        recorder = self

        def submit(executor, fn, /, *args, **kwargs):
            parent = recorder.current() if recorder.active else None
            if parent is None:
                return original(executor, fn, *args, **kwargs)

            def run(*a, **k):
                local = recorder._local
                previous = getattr(local, "inherited", None)
                local.inherited = parent
                try:
                    return fn(*a, **k)
                finally:
                    local.inherited = previous

            return original(executor, run, *args, **kwargs)

        ThreadPoolExecutor.submit = submit  # type: ignore[assignment]
        self._undo.append(
            lambda: setattr(ThreadPoolExecutor, "submit", original)
        )

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


def install_layers(recorder: Recorder) -> None:
    """Wrap the public entry points of every layer the benchmark names.

    Imports the program, so ``src`` must already be importable.
    """
    import repro.cli  # noqa: F401  (loads the modules patched below)
    from repro.core import comparator, kernel
    from repro.cube import backend, builder, store, wal
    from repro.dataset import io, table
    from repro.service import client, engine, http

    def request_id(args, result):
        return {"rid": args[0].last_request_id}

    def handler_id(args, result):
        return {"rid": getattr(args[0], "_request_id", None)}

    recorder.patch(client.ServiceClient, "request", "client.request",
                   request_id)
    recorder.patch(http._Handler, "do_POST", "http.post", handler_id)
    recorder.patch_function(
        http.dumps_sanitized, "http.encode",
        lambda args, result: {"bytes": len(result)},
    )
    recorder.patch(engine.ComparisonEngine, "compare", "engine.compare")
    recorder.patch(engine.ComparisonEngine, "explain", "engine.explain")
    recorder.patch(engine.ComparisonEngine, "ingest", "engine.ingest")
    recorder.patch(comparator.Comparator, "compare", "comparator.compare")
    recorder.patch(comparator.Comparator, "explain_result",
                   "comparator.explain")
    recorder.patch_function(
        kernel.score_planes, "kernel.score_planes",
        lambda args, result: {"planes": len(args[0])},
    )
    recorder.patch(store.CubeStore, "planes", "store.planes")
    recorder.patch(store.CubeStore, "absorb", "store.absorb",
                   lambda args, result: {"cubes": result})
    recorder.patch(store.CubeStore, "precompute", "store.precompute")
    recorder.patch(builder.PairCubeBuilder, "__init__", "builder.count")
    recorder.patch(builder.PairCubeBuilder, "build", "builder.count")
    recorder.patch(backend.SpillBackend, "sweep", "backend.sweep")
    recorder.patch(backend.SpillBackend, "append", "backend.append")
    recorder.patch(wal.WriteAheadLog, "append", "wal.append")
    recorder.patch_function(io.read_csv, "io.read_csv")
    recorder.patch(table.Dataset, "from_rows", "table.from_rows")
    recorder.propagate_into_pools()


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cursor = float("-inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, cursor)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


class SpanTree:
    """Spans indexed by id and by parent, with self times."""

    def __init__(self, records: Sequence[SpanRecord]) -> None:
        self.by_id: Dict[int, SpanRecord] = {r[0]: r for r in records}
        self.children: Dict[int, List[SpanRecord]] = {}
        for record in records:
            if record[1] is not None:
                self.children.setdefault(record[1], []).append(record)

    def named(self, *names: str) -> List[SpanRecord]:
        wanted = set(names)
        return [r for r in self.by_id.values() if r[2] in wanted]

    def self_time(self, record: SpanRecord) -> float:
        """Duration minus the part of it that child spans cover.

        Children may run on other threads and overlap each other (an
        absorb's fan-out), so their union is subtracted, clipped to the
        parent's interval.
        """
        start, end = record[3], record[4]
        return (end - start) - covered(
            (max(c[3], start), min(c[4], end))
            for c in self.children.get(record[0], ())
        )

    def parent_name(self, record: SpanRecord) -> Optional[str]:
        parent = self.by_id.get(record[1])
        return None if parent is None else parent[2]

    def has_child(self, record: SpanRecord, name: str) -> bool:
        return any(c[2] == name for c in self.children.get(record[0], ()))


#: Added to span ids read from another process, so they never collide
#: with this process's ids in one :class:`SpanTree`.
FOREIGN_ID_OFFSET = 10 ** 12


def load_records(path: str) -> List[SpanRecord]:
    """Spans written by the traced launcher, ids moved out of the way."""
    with open(path) as handle:
        raw = json.load(handle)
    return [
        (sid + FOREIGN_ID_OFFSET,
         None if parent is None else parent + FOREIGN_ID_OFFSET,
         name, start, end, attrs)
        for sid, parent, name, start, end, attrs in raw
    ]


def _median(values: Sequence[float], scale: float = 1.0) -> float:
    """Median times ``scale``; 0.0 when the layer saw no calls."""
    return float(statistics.median(values)) * scale if values else 0.0


def _mean(values: Sequence[float]) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def layer_metrics(
    tree: SpanTree, window_ids: Optional[set]
) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics from one traced run's spans.

    Times are medians of self time per call unless noted.
    ``window_ids`` restricts the HTTP layer and the client-side join
    (stall, coverage) to the timed window's requests; ``None`` uses
    every request.
    """
    duration = lambda r: r[4] - r[3]  # noqa: E731
    posts = {
        r[5]["rid"]: r for r in tree.named("http.post")
        if r[5] and r[5].get("rid")
        and (window_ids is None or r[5]["rid"] in window_ids)
    }
    pairs = [
        (c, posts[c[5]["rid"]]) for c in tree.named("client.request")
        if c[5] and c[5].get("rid") in posts
    ]
    engine_calls = tree.named("engine.compare", "engine.explain")
    awaited = [r for r in engine_calls
               if tree.has_child(r, "comparator.compare")]
    # The HTTP layer is read on the timed window's own requests; the
    # layers below also count warm-up and freshness-phase calls, which
    # is where a cache-hit workload still reaches them.
    encodes = [c for p in posts.values()
               for c in tree.children.get(p[0], ())
               if c[2] == "http.encode"]
    kernel = tree.named("kernel.score_planes")
    absorbs = tree.named("store.absorb")
    memory_sweeps = [r for r in tree.named("store.precompute")
                     if not tree.has_child(r, "backend.sweep")]
    ingest_encodes = [r for r in tree.named("table.from_rows")
                      if tree.parent_name(r) == "engine.ingest"]

    def self_ms(records):
        return _median([tree.self_time(r) for r in records], 1000)

    return {
        "client.stall_ms": (
            _median([duration(c) - duration(p) for c, p in pairs], 1000),
            "ms"),
        "http.handle_ms": (self_ms(list(posts.values())), "ms"),
        "http.encode_ms": (self_ms(encodes), "ms"),
        # Mean, not median: one response in three on the read
        # workloads is a full /compare body, many times the others.
        "http.response_kb": (
            _mean([r[5]["bytes"] for r in encodes if r[5]]) / 1024, "KB"),
        "engine.compare_ms": (self_ms(engine_calls), "ms"),
        "engine.queue_wait_ms": (self_ms(awaited), "ms"),
        "engine.ingest_ms": (self_ms(tree.named("engine.ingest")), "ms"),
        "comparator.compare_ms": (
            self_ms(tree.named("comparator.compare")), "ms"),
        "kernel.score_planes_ms": (self_ms(kernel), "ms"),
        "kernel.planes_per_call": (
            _median([r[5]["planes"] for r in kernel if r[5]]), "count"),
        "store.planes_ms": (self_ms(tree.named("store.planes")), "ms"),
        "store.absorb_ms": (self_ms(absorbs), "ms"),
        "store.cubes_absorbed": (
            _median([r[5]["cubes"] for r in absorbs if r[5]]), "count"),
        "store.precompute_s": (
            _median([duration(r) for r in memory_sweeps]), "s"),
        # The absorb's delta count: wall time its builder calls cover
        # (they run on several pool threads at once).
        "builder.build_many_ms": (_median([
            covered((c[3], c[4]) for c in tree.children.get(r[0], ())
                    if c[2] == "builder.count")
            for r in absorbs
        ], 1000), "ms"),
        "backend.sweep_s": (
            _median([duration(r) for r in tree.named("backend.sweep")]),
            "s"),
        "backend.append_s": (
            _median([duration(r) for r in tree.named("backend.append")]),
            "s"),
        "wal.append_ms": (self_ms(tree.named("wal.append")), "ms"),
        "io.read_csv_s": (
            _median([duration(r) for r in tree.named("io.read_csv")]),
            "s"),
        "table.from_rows_ms": (self_ms(ingest_encodes), "ms"),
        "traced.coverage": (
            _median([duration(p) / duration(c) for c, p in pairs]),
            "ratio"),
    }
