"""Reference bodies: what each endpoint must answer, recounted from rows.

Every reference comes from :func:`repro.core.comparator.compare_from_data`
over exactly the rows the server held at the body's generation; it
shares no cube, cache or precompute with the served path.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Tuple

from repro.core.comparator import Comparator, compare_from_data
from repro.core.measures import DEFAULT_MEASURE
from repro.dataset import Dataset

from data import Key


def compare_body(result) -> Dict[str, Any]:
    body = result.to_dict(top=None)
    body["measure"] = DEFAULT_MEASURE
    return body


def rank_body(result) -> Dict[str, Any]:
    return {
        "measure": DEFAULT_MEASURE,
        "pivot_attribute": result.pivot_attribute,
        "value_good": result.value_good,
        "value_bad": result.value_bad,
        "target_class": result.target_class,
        "cf_good": result.cf_good,
        "cf_bad": result.cf_bad,
        "ranking": [
            {"rank": i, "attribute": e.attribute, "score": e.score}
            for i, e in enumerate(result.ranked, start=1)
        ],
        "property_attributes": [
            {"attribute": e.attribute, "score": e.score}
            for e in result.property_attributes
        ],
    }


def explain_body(result, attribute: str) -> Dict[str, Any]:
    return Comparator.explain_result(
        result, attribute, top=3, measure=DEFAULT_MEASURE
    ).to_dict()


def body(endpoint: str, result, key: Key) -> Dict[str, Any]:
    if endpoint == "compare":
        return compare_body(result)
    if endpoint == "rank":
        return rank_body(result)
    return explain_body(result, key.attribute)


class References:
    """Reference results, one ``compare_from_data`` per distinct
    (key, generation).

    ``rows_at(generation)`` returns the table the server held at that
    generation.  Only the latest result is kept, so callers check the
    bodies of one (key, generation) together (see
    :meth:`check.AnswerBook.check`'s ``order``).
    """

    def __init__(self, rows_at: Callable[[int], Dataset]) -> None:
        self._rows_at = rows_at
        self._last: Tuple[Any, Any] = (None, None)

    def result(self, key: Key, generation: int):
        memo = (key, generation)
        if self._last[0] != memo:
            self._last = (memo, compare_from_data(
                self._rows_at(generation), key.pivot, key.value_a,
                key.value_b, key.target_class,
            ))
        return self._last[1]

    def body(self, endpoint: str, key: Key, generation: int):
        return body(endpoint, self.result(key, generation), key)
