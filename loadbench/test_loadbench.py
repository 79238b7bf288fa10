"""Tests of the benchmark's own helpers.

Run from the checkout root: ``python3 -m pytest loadbench -q``.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check  # noqa: E402
import spans  # noqa: E402


# -- tail ---------------------------------------------------------------


def test_tail_is_the_eleventh_largest_sample():
    samples = list(range(1, 101))  # 1..100
    tail = check.tail(samples)
    assert tail.value == 90  # ten samples (91..100) lie beyond it
    assert tail.samples == 100
    assert tail.percentile == pytest.approx(90.0)


def test_tail_ignores_input_order():
    samples = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0, 0.5, 11.0]
    assert check.tail(samples).value == 1.0


def test_tail_falls_back_to_the_maximum_below_eleven_samples():
    assert check.tail([3.0, 1.0, 2.0]).value == 3.0
    assert check.tail([3.0, 1.0, 2.0]).percentile == 100.0
    ten = [float(i) for i in range(10)]
    assert check.tail(ten).value == 9.0
    eleven = [float(i) for i in range(11)]
    assert check.tail(eleven).value == 0.0


def test_tail_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        check.tail([])


# -- freshness ------------------------------------------------------------


def test_freshness_waits_for_a_read_at_the_acknowledged_generation():
    acks = [check.Ack(sent=1.0, generation=1),
            check.Ack(sent=2.0, generation=2)]
    reads = [
        check.Read(received=1.5, generation=0),  # before the absorb
        check.Read(received=1.8, generation=1),  # shows batch 1
        check.Read(received=2.4, generation=1),  # still old
        check.Read(received=2.9, generation=2),  # shows batch 2
    ]
    delays, unseen = check.freshness(acks, reads)
    assert delays == pytest.approx([0.8, 0.9])
    assert unseen == 0


def test_freshness_ignores_reads_that_arrived_before_the_send():
    acks = [check.Ack(sent=5.0, generation=3)]
    reads = [check.Read(received=4.0, generation=7),
             check.Read(received=6.0, generation=3)]
    delays, unseen = check.freshness(acks, reads)
    assert delays == pytest.approx([1.0])


def test_freshness_counts_batches_no_read_showed():
    acks = [check.Ack(sent=1.0, generation=1),
            check.Ack(sent=2.0, generation=2)]
    reads = [check.Read(received=1.2, generation=1)]
    delays, unseen = check.freshness(acks, reads)
    assert delays == pytest.approx([0.2])
    assert unseen == 1


def test_one_read_can_show_several_batches():
    acks = [check.Ack(sent=1.0, generation=1),
            check.Ack(sent=1.1, generation=2)]
    reads = [check.Read(received=1.5, generation=2)]
    delays, _ = check.freshness(acks, reads)
    assert delays == pytest.approx([0.5, 0.4])


# -- answer checker -----------------------------------------------------


REFERENCE = {
    "pivot_attribute": "PhoneModel",
    "ranking": [{"rank": 1, "attribute": "TimeOfCall", "score": 0.125},
                {"rank": 2, "attribute": "Region", "score": 0.0625}],
    "cf_good": 0.02,
    "interval": (0.1, 0.2),  # a tuple, as reference code builds it
}


def served(**changes):
    body = {
        "pivot_attribute": "PhoneModel",
        "ranking": [{"rank": 1, "attribute": "TimeOfCall", "score": 0.125},
                    {"rank": 2, "attribute": "Region", "score": 0.0625}],
        "cf_good": 0.02,
        "interval": [0.1, 0.2],
        "request_id": "abc",
        "generation": 4,
        "cached": True,
        "store": "default",
    }
    body.update(changes)
    return body


def test_checker_accepts_bodies_that_differ_only_in_provenance():
    book = check.AnswerBook()
    book.add(("rank", "k", 4), served())
    book.add(("rank", "k", 4), served(request_id="xyz", cached=False))
    assert len(book) == 1  # one distinct answer, seen twice
    wrong, problems = book.check(lambda key: REFERENCE)
    assert (wrong, problems) == (0, [])


def test_checker_rejects_a_perturbed_score():
    book = check.AnswerBook()
    book.add(("rank", "k", 4), served())
    perturbed = served(ranking=[
        {"rank": 1, "attribute": "TimeOfCall", "score": 0.125 + 2 ** -50},
        {"rank": 2, "attribute": "Region", "score": 0.0625},
    ])
    book.add(("rank", "k", 4), perturbed)
    book.add(("rank", "k", 4), perturbed)
    wrong, problems = book.check(lambda key: REFERENCE)
    assert wrong == 2  # both operations that returned the bad body
    assert len(problems) == 1
    assert ".ranking[0].score" in problems[0]


def test_checker_rejects_a_reordered_ranking_and_a_missing_field():
    book = check.AnswerBook()
    reference_ranking = REFERENCE["ranking"]
    book.add(("rank", "a", 1), served(ranking=reference_ranking[::-1]))
    body = served()
    del body["cf_good"]
    book.add(("rank", "b", 1), body)
    wrong, problems = book.check(lambda key: REFERENCE)
    assert wrong == 2


def test_checker_visits_keys_in_the_given_order():
    book = check.AnswerBook()
    for key in [("rank", "b", 2), ("compare", "a", 1), ("rank", "a", 1)]:
        book.add(key, served())
    visited = []

    def reference(key):
        visited.append(key)
        return REFERENCE

    book.check(reference, order=lambda k: (k[1], k[2]))
    assert [k[1] for k in visited] == ["a", "a", "b"]


# -- guards ---------------------------------------------------------------


def test_hit_ratio_guard_passes_when_the_ratio_matches():
    assert check.hit_ratio_problem(1.0, hits=300, misses=0) is None
    assert check.hit_ratio_problem(0.0, hits=0, misses=300) is None
    assert check.hit_ratio_problem(None, hits=5, misses=7) is None


def test_hit_ratio_guard_trips_on_a_single_stray_lookup():
    assert "0.9967" in check.hit_ratio_problem(1.0, hits=299, misses=1)
    assert check.hit_ratio_problem(0.0, hits=1, misses=299) is not None


def test_hit_ratio_guard_trips_when_nothing_was_looked_up():
    assert "no cache lookups" in check.hit_ratio_problem(1.0, 0, 0)


def test_parse_counter_sums_labelled_samples():
    text = "\n".join([
        "# HELP repro_cache_hits_total Result-cache hits.",
        "# TYPE repro_cache_hits_total counter",
        'repro_cache_hits_total{store="a"} 3',
        'repro_cache_hits_total{store="b"} 4.0',
        "repro_cache_hits_total_extra 100",
        'repro_cache_misses_total{store="a"} 9',
    ])
    assert check.parse_counter(text, "repro_cache_hits_total") == 7.0
    assert check.parse_counter(text, "repro_cache_misses_total") == 9.0


# -- span self times ----------------------------------------------------


def test_self_time_subtracts_the_union_of_overlapping_children():
    records = [
        (1, None, "store.absorb", 0.0, 10.0, None),
        (2, 1, "builder.count", 1.0, 4.0, None),
        (3, 1, "builder.count", 3.0, 6.0, None),  # overlaps the first
        (4, 1, "wal.append", 8.0, 12.0, None),  # outlives the parent
    ]
    tree = spans.SpanTree(records)
    assert tree.self_time(tree.by_id[1]) == pytest.approx(10 - 5 - 2)


def test_recorder_links_pool_work_to_the_submitting_span():
    from concurrent.futures import ThreadPoolExecutor

    recorder = spans.Recorder()
    recorder.propagate_into_pools()
    try:
        inner = recorder.wrap("inner", lambda: None)

        def outer():
            with ThreadPoolExecutor(max_workers=1) as pool:
                pool.submit(inner).result()

        recorder.wrap("outer", outer)()
    finally:
        recorder.uninstall()
    tree = spans.SpanTree(recorder.spans)
    (outer_span,) = tree.named("outer")
    (inner_span,) = tree.named("inner")
    assert inner_span[1] == outer_span[0]
