"""Pure helpers: summary statistics, freshness, answer checks, guards.

Nothing here touches the program under test except through the
reference functions passed in, so the benchmark's own tests can run
every helper on hand-made inputs.
"""

from __future__ import annotations

import bisect
import json
import statistics
import threading
from typing import (
    Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple,
)

#: Fields of a served body that say *how* it was served, not *what*
#: the answer is.  They are dropped before a body is compared with its
#: reference.
PROVENANCE_FIELDS = frozenset(
    {"request_id", "generation", "cached", "trace", "store",
     "elapsed_seconds"}
)

#: Samples that must lie beyond the reported tail value.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


class Tail(NamedTuple):
    """The tail value, the percentile it sits at and the sample count."""

    value: float
    percentile: float
    samples: int


def tail(values: Sequence[float]) -> Tail:
    """The highest percentile with at least ten samples beyond it.

    That is the 11th-largest sample; with fewer than 11 samples no
    percentile has ten beyond it, so the maximum is reported (as p100).
    """
    if not values:
        raise ValueError("tail of no samples")
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return Tail(float(ordered[-1]), 100.0, n)
    index = n - 1 - TAIL_BEYOND
    return Tail(float(ordered[index]), 100.0 * (index + 1) / n, n)


class Ack(NamedTuple):
    """One acknowledged ingest batch: when it was sent, its generation."""

    sent: float
    generation: int


class Read(NamedTuple):
    """One read response: when it arrived and the generation it carried."""

    received: float
    generation: int


def freshness(
    acks: Sequence[Ack], reads: Sequence[Read]
) -> Tuple[List[float], int]:
    """Seconds from each batch's send to the first read that shows it.

    A read shows a batch when it arrives after the batch was sent and
    carries a generation at least the batch's acknowledged one.
    Returns the delays, in ack order, and the number of batches no read
    showed before the phase ended.
    """
    ordered = sorted(reads)
    received = [r.received for r in ordered]
    # Generations only grow, so the scan from the first read after the
    # send stops within a read or two of the absorb.
    delays: List[float] = []
    unseen = 0
    for ack in acks:
        start = bisect.bisect_left(received, ack.sent)
        for read in ordered[start:]:
            if read.generation >= ack.generation:
                delays.append(read.received - ack.sent)
                break
        else:
            unseen += 1
    return delays, unseen


def strip_provenance(body: Dict[str, Any]) -> Dict[str, Any]:
    return {k: v for k, v in body.items() if k not in PROVENANCE_FIELDS}


def as_served(body: Dict[str, Any]) -> Dict[str, Any]:
    """A reference body as a client would parse it: through the JSON
    round trip (tuples become lists), provenance dropped."""
    return strip_provenance(json.loads(json.dumps(body)))


class AnswerBook:
    """Distinct served bodies, keyed by what determines the answer.

    ``key`` is whatever fixes the correct body: the endpoint, the
    request and the generation it was served at.  Each distinct body
    (provenance dropped) is kept once with the number of operations
    that returned it, so thousands of reads are checked against one
    reference per key.  Parsed bodies compare with ``==``, which is
    exact for floats, so adding a body costs a dict comparison and no
    serialisation inside the timed window.
    """

    def __init__(self) -> None:
        self._bodies: Dict[Tuple[Any, ...], List[List[Any]]] = {}
        self._lock = threading.Lock()

    def add(self, key: Tuple[Any, ...], body: Dict[str, Any]) -> None:
        body = strip_provenance(body)
        with self._lock:
            variants = self._bodies.setdefault(key, [])
            for variant in variants:
                if variant[0] == body:
                    variant[1] += 1
                    return
            variants.append([body, 1])

    def __len__(self) -> int:
        return sum(len(v) for v in self._bodies.values())

    def check(
        self,
        reference: Callable[[Tuple[Any, ...]], Dict[str, Any]],
        order: Optional[Callable[[Tuple[Any, ...]], Any]] = None,
    ) -> Tuple[int, List[str]]:
        """Compare every distinct body with ``reference(key)``, visiting
        keys sorted by ``order`` when given.

        Returns the number of operations whose body differed and a
        description of the first few differences.
        """
        wrong = 0
        problems: List[str] = []
        keys = list(self._bodies)
        if order is not None:
            keys.sort(key=order)
        for key in keys:
            variants = self._bodies[key]
            expected = as_served(reference(key))
            for body, count in variants:
                if body != expected:
                    wrong += count
                    if len(problems) < 5:
                        problems.append(
                            f"{key}: served body differs from the "
                            f"reference ({_first_difference(body, expected)})"
                        )
        return wrong, problems


def _first_difference(served: Any, expected: Any, path: str = "") -> str:
    if isinstance(served, dict) and isinstance(expected, dict):
        for name in sorted(set(served) | set(expected)):
            if served.get(name) != expected.get(name):
                return _first_difference(
                    served.get(name), expected.get(name), f"{path}.{name}"
                )
    if isinstance(served, list) and isinstance(expected, list):
        if len(served) != len(expected):
            return f"{path}: {len(served)} vs {len(expected)} items"
        for i, (a, b) in enumerate(zip(served, expected)):
            if a != b:
                return _first_difference(a, b, f"{path}[{i}]")
    return f"{path or 'body'}: served {served!r} vs reference {expected!r}"


def hit_ratio(hits: float, misses: float) -> float:
    """Hits over lookups; 0.0 when there were no lookups."""
    total = hits + misses
    return hits / total if total else 0.0


def hit_ratio_problem(
    expected: Optional[float], hits: float, misses: float
) -> Optional[str]:
    """A guard failure message, or ``None`` when the ratio fits.

    ``expected`` is 1.0 for a workload whose every timed read must hit
    the result cache, 0.0 for one whose every read must miss, and
    ``None`` when the workload fixes no ratio.
    """
    if expected is None:
        return None
    if hits + misses == 0:
        return "no cache lookups were counted in the timed window"
    ratio = hit_ratio(hits, misses)
    if ratio != expected:
        return (
            f"cache hit ratio {ratio:.4f} ({hits:.0f} hits, "
            f"{misses:.0f} misses) where the workload needs {expected}"
        )
    return None


def parse_counter(metrics_text: str, name: str) -> float:
    """Sum every sample of one Prometheus counter in ``/metrics`` text."""
    total = 0.0
    for line in metrics_text.splitlines():
        if line.startswith(name) and line[len(name):len(name) + 1] in "{ ":
            total += float(line.rsplit(" ", 1)[1])
    return total
