"""Closed-loop callers over keep-alive ``ServiceClient`` connections.

Each caller sends its next request only after the previous reply, as
an analyst or a fleet script does.  All callers run as threads of the
benchmark process; each owns one ``ServiceClient`` (one keep-alive
connection) with retries off, so a failed request is one failed
operation.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Callable, List, NamedTuple, Optional, Sequence

from repro.service.client import (
    ClientError, RetryPolicy, ServerError, ServiceClient,
)

from check import Ack, AnswerBook, Read
from data import Key

ENDPOINTS = ("compare", "rank", "explain")


class Op(NamedTuple):
    start: float
    end: float
    ok: bool
    request_id: Optional[str]


def client(url: str) -> ServiceClient:
    return ServiceClient(url, policy=RetryPolicy(max_attempts=1))


def read(svc: ServiceClient, endpoint: str, key: Key) -> dict:
    if endpoint == "compare":
        return svc.compare(key.pivot, key.value_a, key.value_b,
                           key.target_class)
    if endpoint == "rank":
        return svc.rank(key.pivot, key.value_a, key.value_b,
                        key.target_class)
    return svc.explain(key.pivot, key.value_a, key.value_b,
                       key.target_class, key.attribute, top=3)


class Failures:
    """Thread-safe record of failed operations (first few described)."""

    def __init__(self) -> None:
        self.count = 0
        self.examples: List[str] = []
        self._lock = threading.Lock()

    def add(self, what: str) -> None:
        with self._lock:
            self.count += 1
            if len(self.examples) < 5:
                self.examples.append(what)


def call(fn: Callable[[], dict], failures: Failures, what: str):
    """One request: its body, or ``None`` after recording the failure.

    ``ValueError`` covers a body the client rejects (non-finite
    numbers); the rest are the client's HTTP and transport errors.
    """
    try:
        return fn()
    except (ClientError, ServerError, OSError, ValueError) as exc:
        failures.add(f"{what}: {type(exc).__name__}: {exc}")
        return None


def run_readers(
    url: str,
    keys: Sequence[Key],
    callers: int,
    seconds: float,
    book: AnswerBook,
    failures: Failures,
    shared_keys: bool,
) -> List[Op]:
    """Closed-loop reads for ``seconds``; returns every operation.

    Every caller cycles /compare -> /rank -> /explain.  With
    ``shared_keys`` each read takes the next key of one sequence shared
    by all callers (every read a new key); otherwise caller ``c`` walks
    the keys from offset ``c`` (the same few keys over and over).
    """
    ops: List[Op] = []
    counter = itertools.count()
    lock = threading.Lock()
    clients = [client(url) for _ in range(callers)]
    start_gate = threading.Barrier(callers + 1)
    stop_at: List[float] = []

    def caller(index: int) -> None:
        svc = clients[index]
        mine: List[Op] = []
        start_gate.wait()
        for i in itertools.count():
            if time.perf_counter() >= stop_at[0]:
                break
            endpoint = ENDPOINTS[i % len(ENDPOINTS)]
            if shared_keys:
                with lock:
                    k = next(counter) % len(keys)
            else:
                k = (index + i // len(ENDPOINTS)) % len(keys)
            began = time.perf_counter()
            body = call(lambda: read(svc, endpoint, keys[k]), failures,
                        f"{endpoint} {keys[k]}")
            ended = time.perf_counter()
            mine.append(Op(began, ended, body is not None,
                           svc.last_request_id))
            if body is not None:
                book.add((endpoint, keys[k], body["generation"]), body)
        with lock:
            ops.extend(mine)

    threads = [
        threading.Thread(target=caller, args=(i,), name=f"reader-{i}")
        for i in range(callers)
    ]
    for thread in threads:
        thread.start()
    stop_at.append(time.perf_counter() + seconds)
    start_gate.wait()
    for thread in threads:
        thread.join()
    for svc in clients:
        svc.close()
    return ops


class FreshnessRun(NamedTuple):
    acks: List[Ack]
    ingest_ops: List[Op]
    reads: List[Read]
    read_ops: List[Op]
    first_generation: int


def run_freshness(
    url: str,
    batches: Sequence[Sequence[tuple]],
    rank_key: Key,
    book: AnswerBook,
    failures: Failures,
    seconds: Optional[float] = None,
    count: Optional[int] = None,
) -> FreshnessRun:
    """One writer sends batches back to back while one reader repeats a
    single /rank; stops after ``seconds`` or after ``count`` batches.

    Batch ``i`` is ``batches[i % len(batches)]``.  The reader keeps
    reading until one read after the writer's last acknowledgement, so
    the last batch has a read that can show it.
    """
    writer_svc = client(url)
    reader_svc = client(url)
    first = call(lambda: read(reader_svc, "rank", rank_key), failures,
                 "rank before ingest")
    first_generation = int(first["generation"]) if first else 0
    if first is not None:
        book.add(("rank", rank_key, first_generation), first)
    acks: List[Ack] = []
    ingest_ops: List[Op] = []
    reads: List[Read] = []
    read_ops: List[Op] = []
    writer_done = threading.Event()
    deadline = None if seconds is None else time.perf_counter() + seconds

    def writer() -> None:
        try:
            for i in itertools.count():
                if count is not None and i >= count:
                    break
                if deadline is not None and time.perf_counter() >= deadline:
                    break
                rows = batches[i % len(batches)]
                sent = time.perf_counter()
                body = call(lambda: writer_svc.ingest(rows), failures,
                            f"ingest batch {i}")
                ended = time.perf_counter()
                ingest_ops.append(Op(sent, ended, body is not None,
                                     writer_svc.last_request_id))
                if body is None:
                    break
                acks.append(Ack(sent, int(body["generation"])))
        finally:
            writer_done.set()

    def reader() -> None:
        last = False
        while not last:
            last = writer_done.is_set()
            began = time.perf_counter()
            body = call(lambda: read(reader_svc, "rank", rank_key),
                        failures, "rank during ingest")
            ended = time.perf_counter()
            read_ops.append(Op(began, ended, body is not None,
                               reader_svc.last_request_id))
            if body is None:
                break
            generation = int(body["generation"])
            reads.append(Read(ended, generation))
            book.add(("rank", rank_key, generation), body)

    threads = [threading.Thread(target=writer, name="writer"),
               threading.Thread(target=reader, name="reader")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    writer_svc.close()
    reader_svc.close()
    return FreshnessRun(acks, ingest_ops, reads, read_ops, first_generation)
