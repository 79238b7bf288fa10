"""Seeded inputs: the tables, the request keys and the ingest stream.

Everything is a function of the workload's ``--seed``; the program
only ever sees the generated rows (as a CSV or over ``/ingest``).
"""

from __future__ import annotations

import random
from typing import List, NamedTuple, Sequence, Tuple

from repro import dataset as rd
from repro.dataset import Dataset
from repro.synth import CallLogConfig, PlantedEffect, generate_call_logs

CLASS_ATTRIBUTE = "Disposition"
CLASSES = ("dropped", "setup-failed", "ended-ok")

#: Rows per acknowledged ingest batch.
BATCH_ROWS = 200

#: Offset between a table's seed and the seed of its ingest stream, so
#: ingested rows never repeat the served table's rows.
STREAM_SEED_OFFSET = 1_000_003


class Key(NamedTuple):
    """One comparison request: what the result cache is keyed on
    (the measure is always the store default)."""

    pivot: str
    value_a: str
    value_b: str
    target_class: str
    attribute: str  # the attribute /explain drills into


def call_log_config(
    n_records: int, n_noise: int, seed: int
) -> CallLogConfig:
    """A call-log table: the domain attributes (PhoneModel and six
    domain columns plus HardwareVersion) and ``n_noise`` noise
    attributes, all categorical (SignalStrength is off), with the
    paper's planted morning-drop effect on ph2."""
    return CallLogConfig(
        n_records=n_records,
        n_phone_models=8,
        n_noise_attributes=n_noise,
        include_signal_strength=False,
        effects=[
            PlantedEffect(
                {"PhoneModel": "ph2", "TimeOfCall": "morning"},
                "dropped",
                6.0,
            )
        ],
        seed=seed,
    )


def generate(n_records: int, n_noise: int, seed: int) -> Dataset:
    return generate_call_logs(call_log_config(n_records, n_noise, seed))


def write_table(dataset: Dataset, path: str) -> Dataset:
    """Write ``dataset`` as the served CSV and read it back.

    The server infers its schema from the CSV, so references are
    computed over the read-back table: same value coding as served.
    """
    rd.write_csv(dataset, path)
    return rd.read_csv(path, class_attribute=CLASS_ATTRIBUTE)


def all_keys(dataset: Dataset, seed: int) -> List[Key]:
    """Every (pivot, value pair, class) of a table, seeded-shuffled.

    Each key also names a seeded non-pivot attribute for ``/explain``.
    """
    schema = dataset.schema
    names = [a.name for a in schema if a.name != CLASS_ATTRIBUTE]
    rng = random.Random(seed)
    keys: List[Key] = []
    for pivot in names:
        values = schema[pivot].values
        others = [n for n in names if n != pivot]
        for i, a in enumerate(values):
            for b in values[i + 1:]:
                for target in CLASSES:
                    keys.append(
                        Key(pivot, a, b, target, rng.choice(others))
                    )
    rng.shuffle(keys)
    return keys


def hot_keys(dataset: Dataset, seed: int, count: int) -> List[Key]:
    """A few PhoneModel comparisons, the analyst's repeated questions."""
    rng = random.Random(seed)
    models = list(dataset.schema["PhoneModel"].values)
    names = [
        a.name for a in dataset.schema
        if a.name not in (CLASS_ATTRIBUTE, "PhoneModel")
    ]
    keys: List[Key] = []
    seen = set()
    while len(keys) < count:
        a, b = sorted(rng.sample(models, 2))
        target = rng.choice(CLASSES[:2])
        if (a, b, target) in seen:
            continue
        seen.add((a, b, target))
        keys.append(Key("PhoneModel", a, b, target, rng.choice(names)))
    return keys


def write_stream(path: str, n_noise: int, seed: int, batches: int) -> None:
    """Write ``batches`` ingest batches as a CSV, from a stream seeded
    apart from the table's."""
    rd.write_csv(
        generate(batches * BATCH_ROWS, n_noise, seed + STREAM_SEED_OFFSET),
        path,
    )


def read_stream(path: str, schema) -> List[List[Tuple[object, ...]]]:
    """The stream CSV in ``schema``'s coding, as batches of row tuples
    (the ``/ingest`` wire format)."""
    # Looked up on the package at call time, so a traced run sees the
    # program's CSV reader as a layer call.
    stream = rd.read_csv(path, class_attribute=CLASS_ATTRIBUTE,
                         schema=schema)
    rows = [
        tuple("?" if cell is None else cell for cell in row)
        for row in stream.iter_rows()
    ]
    return [
        rows[i:i + BATCH_ROWS] for i in range(0, len(rows), BATCH_ROWS)
    ]


def rows_dataset(
    schema, batches: Sequence[Sequence[Tuple[object, ...]]]
) -> Dataset:
    """The given batches as one table in ``schema``'s coding."""
    rows = [row for batch in batches for row in batch]
    return Dataset.from_rows(schema, rows)


def prefix(dataset: Dataset, rows: int) -> Dataset:
    """The first ``rows`` rows of ``dataset`` (column views, no copy)."""
    return Dataset.from_columns(
        dataset.schema,
        {name: dataset.column(name)[:rows] for name in dataset.schema.names},
    )
