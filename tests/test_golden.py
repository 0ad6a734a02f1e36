"""Answers and cache keys pinned across revisions by the golden corpus.

Every other byte-identity suite sets the current code against itself; this
one holds each answer's SHA-256 and ``result_key`` to the values in
``tests/golden/answers.json``, so a change that alters every path alike
(an answer's float formatting, a key's digest) still fails here.
"""

import json

import pytest

from repro.engine import all_specs

from .golden import corpus

_ROWS = json.loads(corpus.ANSWERS.read_text())["rows"]


def test_covers_every_registered_spec_on_every_kind_it_accepts():
    expected = [
        f"{spec.name}:{label}"
        for spec in all_specs()
        for label in corpus.INSTANCES
        if spec.accepts(corpus.instance(label))
    ]
    assert [row["id"] for row in _ROWS] == expected


@pytest.mark.parametrize("row", _ROWS, ids=[row["id"] for row in _ROWS])
def test_answer_and_key_match_the_corpus(row):
    name, label = row["id"].split(":", 1)
    if "highs" in row:
        running = corpus.highs_version()
        if running != row["highs"]:
            pytest.skip(f"row pinned under HiGHS {row['highs']}; this run has HiGHS {running}")
    pinned = {field: value for field, value in row.items() if field not in ("id", "highs")}
    assert corpus.solve_row(corpus.instance(label), name) == pinned
