"""Session fixtures: the two file fixtures and the random-stream corpus with
its exhaustively enumerated reference sets (computed once, shared)."""

from __future__ import annotations

from pathlib import Path

import pytest

from tclique import FormatSpec, LinkStream, brute_force_enumerate, parse_links
from helpers import CORPUS_SIZE, corpus_entry

DATA_DIR = Path(__file__).parent / "data"


def load_fixture(name: str, observation=None) -> LinkStream:
    with open(DATA_DIR / name, "r", encoding="utf-8") as fh:
        return parse_links(fh, FormatSpec(column_order="uvt"), observation)


@pytest.fixture(scope="session")
def f1_stream() -> LinkStream:
    return load_fixture("f1.txt")


@pytest.fixture(scope="session")
def handoff_stream() -> LinkStream:
    # four vertices over [1,21]; built so a boundary at 11 splits the
    # interesting cliques across the two windows
    return load_fixture("handoff.txt", observation=(1, 21))


@pytest.fixture(scope="session")
def corpus() -> list:
    return [corpus_entry(i) for i in range(CORPUS_SIZE)]


@pytest.fixture(scope="session")
def corpus_oracles(corpus) -> list[frozenset]:
    return [
        frozenset(brute_force_enumerate(stream, delta, gamma))
        for stream, delta, gamma in corpus
    ]
