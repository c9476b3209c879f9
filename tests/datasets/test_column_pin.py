"""Pinned digests of every column the three dataset generators draw.

The generators' RNG draw order fixes every number a simulation sees, so
each column of the seed-2017 synthetic, survey and SFV datasets is pinned
here: the task columns (truth, base number, processing time, cost, true
domain), the task descriptions, the users' expertise matrix and their
capacities.  A change to a generator that is meant to move its draws must
update the constants below and say why.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.datasets import sfv_dataset, survey_dataset, synthetic_dataset

GENERATORS = {"synthetic": synthetic_dataset, "survey": survey_dataset, "sfv": sfv_dataset}

COLUMN_DIGESTS = {
    "synthetic": {
        "true_value": "e92c6cdbc77e5195",
        "base_number": "21aeba44124941d2",
        "processing_time": "49db53ac10d159f7",
        "cost": "ec6e97227bb560e8",
        "true_domain": "6693fda1628b76dc",
        "descriptions": "85ce39b506e8f2eb",
        "expertise": "34a445f388277479",
        "capacities": "c74c24453f9dec5b",
    },
    "survey": {
        "true_value": "5afaa563d1156080",
        "base_number": "1c1a40e77cdeb5cd",
        "processing_time": "5fae115009986120",
        "cost": "1935b048df4d68cb",
        "true_domain": "0d4b594fae55ac26",
        "descriptions": "9e25e26f708a6cbb",
        "expertise": "3305619dcc481f8e",
        "capacities": "1432246b0b82d648",
    },
    "sfv": {
        "true_value": "1d53a3e34cae3de2",
        "base_number": "7ccf98744eb65f44",
        "processing_time": "6cd5c73153cea097",
        "cost": "6db2ba7e091a9787",
        "true_domain": "47b2cb67252b668d",
        "descriptions": "962371de88d30fc9",
        "expertise": "98b09971364444d2",
        "capacities": "bbab7f6846cbf316",
    },
}


def _columns(dataset) -> dict:
    tasks = dataset.tasks
    return {
        "true_value": tasks.true_value,
        "base_number": tasks.base_number,
        "processing_time": tasks.processing_time,
        "cost": tasks.cost,
        "true_domain": tasks.true_domain.astype(np.int64),
        "descriptions": dataset.descriptions(),
        "expertise": dataset.expertise,
        "capacities": dataset.capacities,
    }


def _digest(column) -> str:
    if isinstance(column, np.ndarray):
        data = np.ascontiguousarray(column).tobytes() + repr(column.shape).encode()
    else:
        data = json.dumps(column).encode("utf-8")
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generator_columns_are_pinned(name):
    columns = _columns(GENERATORS[name](seed=2017))
    digests = {column: _digest(values) for column, values in columns.items()}
    assert digests == COLUMN_DIGESTS[name]
