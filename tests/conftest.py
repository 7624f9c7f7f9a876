"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from wdcheck.ingest import load_native
from wdcheck.labels import DEFAULT_LABELS, LabelTable
from wdcheck.model import KnowledgeBase


@pytest.fixture
def labels() -> LabelTable:
    return DEFAULT_LABELS


def kb_from(text: str) -> KnowledgeBase:
    """Build a knowledge base from native fact lines; a repeated row is kept once."""
    kb, stats = load_native(text, DEFAULT_LABELS)
    assert all(reason == "duplicate" for reason, _detail in stats.skipped)
    return kb


@pytest.fixture
def empty_kb() -> KnowledgeBase:
    return KnowledgeBase()


@pytest.fixture
def family_kb() -> KnowledgeBase:
    """A small KB with spouses, qualifiers, ranks and a class hierarchy."""
    return kb_from(
        """
        # people and marriages
        P26(Q1, Q2) @ {P580: 1988-06-12} refs=1
        P26(Q2, Q1) @ {P580: 1988-06-12}
        P26(Q3, Q4)                         # missing the inverse
        P31(Q1, Q5)
        P31(Q2, Q5)
        P31(Q3, Q5)
        P279(Q5, Q6)
        P1082(Q7, 39000) @ {P585: 2020-01-01}
        P1082(Q7, 38000) rank=deprecated
        no_value(P40, Q3)
        commons_ns("Douglas Adams", "Category")
        """
    )
