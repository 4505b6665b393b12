"""Every corpus case gives the numbers recorded in tests/corpus.json."""

import json

import pytest

from corpus import CASES, CORPUS, mismatches, run_case


@pytest.fixture(scope="module")
def recorded():
    return json.loads(CORPUS.read_text())


def test_corpus_lists_every_case(recorded):
    assert sorted(recorded) == sorted(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_corpus_case_gives_the_recorded_numbers(tmp_path, recorded, name):
    assert mismatches(recorded[name], run_case(name, tmp_path)) == []
