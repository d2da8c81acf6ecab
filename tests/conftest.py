from __future__ import annotations

import pytest
from hypothesis import settings

from searchsim.corpus import Document, Topic
from searchsim.fixtures import load_fixture_collection

# Property tests draw the same examples on every run and keep no example
# database, so a run repeats exactly.
settings.register_profile("repeatable", derandomize=True, database=None, deadline=None)
settings.load_profile("repeatable")


@pytest.fixture(scope="session")
def fixture_collection():
    return load_fixture_collection()


@pytest.fixture
def toy_docs():
    return [
        Document(doc_id="d1", title="red apples", body="apples grow on apple trees"),
        Document(doc_id="d2", body="oranges and apples in the market"),
        Document(doc_id="d3", body="the market opens early every morning"),
    ]


@pytest.fixture
def toy_topic():
    return Topic(
        topic_id="401",
        title="foreign minorities germany",
        description="What language and cultural differences impede the integration "
                    "of foreign minorities in Germany?",
        narrative="A relevant document will focus on immigrant communities.",
    )
