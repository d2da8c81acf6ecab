from __future__ import annotations

import hashlib
import itertools
import json
import random
import re
import signal
import sys
import threading
import time
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import searchsim.index
import searchsim.session
from searchsim.agents import LLM_KINDS, SUMMARY_SIDES, KnowledgeState, UserKind
from searchsim.config import CampaignConfig
from searchsim.corpus import Document, QrelSet, Topic, parse_qrels
from searchsim.fixtures import CAMPAIGN, fixture_path
from searchsim.index import InvertedIndex, build_index, tokenize
from searchsim.llm import (
    TAG_RELEVANCE_JUDGMENT,
    TAG_SUMMARIZATION,
    BackendError,
    ScriptedBackend,
)
from searchsim.metrics import information_gain_curve
from searchsim.session import (
    ANOMALY,
    CONSECUTIVE_IRRELEVANT,
    DOCUMENT_VIEWED,
    END_BACKEND_FAILURE,
    END_MAX_QUERIES,
    END_QUERIES_EXHAUSTED,
    END_REASONS,
    FIXED_DEPTH,
    JUDGMENT_MADE,
    QUERY_ISSUED,
    SESSION_ENDED,
    SNIPPET_VIEWED,
    CampaignError,
    CostModel,
    LogFormatError,
    SessionLog,
    SessionPolicy,
    SnippetStopRule,
    _check_topic_ids,
    derive_session_seed,
    read_session_log,
    run_campaign,
    run_session,
    session_log_from_jsonl,
    session_log_to_jsonl,
    validate_campaign_kinds,
    write_campaign_manifest,
    write_session_log,
)
from backends import CapturingBackend, SlowBackend
from oracles import make_log, oracle_snippet

# Reply-table keys anchored on fixed phrases of the default templates.
ANSWER_YES = {"Would this text be useful": "Yes",
              "Output only the summary": "themes so far"}
ANSWER_NO = {"Would this text be useful": "No",
             "Output only the summary": "themes so far"}


def backend_with(queries, judge_table):
    replies = dict(judge_table)
    replies["Output only the numbered queries"] = "\n".join(
        f"{i}. {q}" for i, q in enumerate(queries, 1))
    replies["Output only the query"] = "reformulated follow up"
    return ScriptedBackend(replies)


@pytest.fixture
def twin_setup():
    docs = [Document(doc_id="d1", body="twin text about things"),
            Document(doc_id="d2", body="twin text about stuff")]
    index = build_index(docs)
    topic = Topic(topic_id="9", title="twin things")
    qrels = parse_qrels(b"9 0 d1 2\n9 0 d2 1\n")
    return docs, index, topic, qrels


def kinds_of(log):
    return [it.kind for it in log.interactions]


class TestRunSessionTraces:
    def test_no_hits_logs_query_and_end_only(self):
        index = build_index([Document(doc_id="d", body="completely unrelated words")])
        topic = Topic(topic_id="1", title="zzz qqq xxx")
        log = run_session(topic, UserKind.RND, index, QrelSet(),
                          policy=SessionPolicy(max_queries=1, page_size=2))
        assert kinds_of(log) == [QUERY_ISSUED, SESSION_ENDED]
        assert log.end_reason == END_MAX_QUERIES

    def test_all_relevant_two_results_trace(self, twin_setup):
        _, index, topic, qrels = twin_setup
        backend = backend_with(["twin"], ANSWER_YES)
        policy = SessionPolicy(max_queries=1, page_size=2,
                               stop_rule=SnippetStopRule("fixed_depth", 2),
                               queries_per_session=1)
        log = run_session(topic, UserKind.FTTC, index, qrels, policy=policy,
                          backend=backend)
        assert kinds_of(log) == [
            QUERY_ISSUED,
            SNIPPET_VIEWED, DOCUMENT_VIEWED, JUDGMENT_MADE,
            SNIPPET_VIEWED, DOCUMENT_VIEWED, JUDGMENT_MADE,
            SESSION_ENDED,
        ]
        judgments = [it for it in log.interactions if it.kind == JUDGMENT_MADE]
        assert all(j.payload["relevant"] for j in judgments)
        assert [j.payload["grade"] for j in judgments] == [2, 1]

    def test_rerun_is_byte_identical(self, twin_setup):
        _, index, topic, qrels = twin_setup
        policy = SessionPolicy(max_queries=2, page_size=2,
                               stop_rule=SnippetStopRule("fixed_depth", 2),
                               queries_per_session=2)

        def once():
            return run_session(topic, UserKind.CRF, index, qrels, policy=policy,
                               backend=ScriptedBackend(), rng_seed=7)
        assert session_log_to_jsonl(once()) == session_log_to_jsonl(once())

    def test_judged_docs_skipped_without_cost_in_later_serps(self, twin_setup):
        _, index, topic, qrels = twin_setup
        backend = backend_with(["twin", "twin text"], ANSWER_YES)
        policy = SessionPolicy(max_queries=2, page_size=2,
                               stop_rule=SnippetStopRule("fixed_depth", 2),
                               queries_per_session=2)
        log = run_session(topic, UserKind.FTTC, index, qrels, policy=policy,
                          backend=backend)
        snippet_views = [it for it in log.interactions if it.kind == SNIPPET_VIEWED]
        assert len(snippet_views) == 2  # nothing re-viewed under the second query
        assert len([it for it in log.interactions if it.kind == QUERY_ISSUED]) == 2

    def test_consecutive_irrelevant_stop_rule(self):
        docs = [Document(doc_id=f"d{i}", body="shared term filler") for i in range(6)]
        index = build_index(docs)
        topic = Topic(topic_id="2", title="shared term")
        policy = SessionPolicy(max_queries=1, page_size=6,
                               stop_rule=SnippetStopRule(CONSECUTIVE_IRRELEVANT, 2),
                               queries_per_session=1)
        backend = backend_with(["shared"], ANSWER_NO)
        log = run_session(topic, UserKind.FTTC, index, QrelSet(), policy=policy,
                          backend=backend)
        assert len([it for it in log.interactions if it.kind == SNIPPET_VIEWED]) == 2

    def test_unjudged_document_gets_none_grade(self):
        docs = [Document(doc_id="known", body="apple orchard report"),
                Document(doc_id="mystery", body="apple cider festival news")]
        index = build_index(docs)
        topic = Topic(topic_id="3", title="apple")
        qrels = parse_qrels(b"3 0 known 1\n")
        backend = backend_with(["apple"], ANSWER_YES)
        log = run_session(topic, UserKind.FTTC, index, qrels,
                          policy=SessionPolicy(max_queries=1, page_size=2,
                                               stop_rule=SnippetStopRule("fixed_depth", 2),
                                               queries_per_session=1),
                          backend=backend)
        grades = {it.payload["doc_id"]: it.payload["grade"]
                  for it in log.interactions if it.kind == JUDGMENT_MADE}
        assert grades["known"] == 1
        assert grades["mystery"] is None

    def test_backend_failure_marks_partial_log(self, twin_setup):
        _, index, topic, qrels = twin_setup

        class FailsOnJudge:
            def __init__(self):
                self.inner = backend_with(["twin"], ANSWER_YES)

            def complete(self, request):
                if request.tag == "relevance_judgment":
                    raise BackendError("mid-session outage")
                return self.inner.complete(request)

        log = run_session(topic, UserKind.FTTC, index, qrels,
                          policy=SessionPolicy(max_queries=1, page_size=2,
                                               queries_per_session=1),
                          backend=FailsOnJudge())
        assert log.end_reason == END_BACKEND_FAILURE
        assert any(it.kind == ANOMALY for it in log.interactions)
        assert kinds_of(log)[-1] == SESSION_ENDED

    def test_queries_exhausted(self, twin_setup):
        _, index, topic, qrels = twin_setup
        backend = backend_with(["nothing matches this"], ANSWER_YES)
        log = run_session(topic, UserKind.FTTC, index, qrels,
                          policy=SessionPolicy(max_queries=5, page_size=2,
                                               queries_per_session=1),
                          backend=backend)
        assert log.end_reason == END_QUERIES_EXHAUSTED
        assert len(log.queries_issued) == 1

    def test_feedback_user_switches_to_followups_after_first_judgment(self, twin_setup):
        _, index, topic, qrels = twin_setup
        backend = backend_with(["twin", "unused second"], ANSWER_YES)
        policy = SessionPolicy(max_queries=3, page_size=2,
                               stop_rule=SnippetStopRule("fixed_depth", 2),
                               queries_per_session=2)
        log = run_session(topic, UserKind.PRF, index, qrels, policy=policy,
                          backend=backend)
        assert log.queries_issued[0] == "twin"
        assert log.queries_issued[1:] == ["reformulated follow up"] * 2
        assert log.initial_queries == ["twin", "unused second"]

    def test_rnd_star_requires_preset(self, twin_setup):
        _, index, topic, qrels = twin_setup
        with pytest.raises(ValueError):
            run_session(topic, UserKind.RND_STAR, index, qrels)

    def test_llm_kind_requires_backend(self, twin_setup):
        _, index, topic, qrels = twin_setup
        with pytest.raises(ValueError):
            run_session(topic, UserKind.FTTC, index, qrels)

    @pytest.mark.parametrize("kind", [UserKind.RND, UserKind.FTTC])
    def test_ranks_once_per_issued_query(self, fixture_collection, monkeypatch, kind):
        docs, topics, qrels = fixture_collection
        index = build_index(docs)
        ranked, searched = [], []
        real_rank, real_search = searchsim.index.rank_documents, searchsim.session.search

        def counting_rank(index, query, depth):
            ranked.append(query)
            return real_rank(index, query, depth)

        def counting_search(index, query, *args, **kwargs):
            searched.append(query)
            return real_search(index, query, *args, **kwargs)

        monkeypatch.setattr(searchsim.index, "rank_documents", counting_rank)
        monkeypatch.setattr(searchsim.session, "search", counting_search)
        log = run_session(topics[0], kind, index, qrels, backend=ScriptedBackend(),
                          policy=SessionPolicy(max_queries=3, page_size=3,
                                               max_pages_per_query=2,
                                               queries_per_session=3))
        issued = [it.payload["query"] for it in log.interactions if it.kind == QUERY_ISSUED]
        assert len(issued) == 3
        assert ranked == issued
        assert searched == issued

    def test_snippets_built_only_for_rows_llm_users_judge(self, fixture_collection,
                                                          monkeypatch):
        config = CampaignConfig.from_file(fixture_path(CAMPAIGN))
        # a width other than make_snippet's default, so a dropped argument shows
        policy = replace(config.policy, snippet_max_chars=100)
        docs, topics, qrels = fixture_collection
        index = build_index(docs, **config.index_options())
        calls, reads = [], []
        real, real_document = searchsim.index.make_snippet, InvertedIndex.document

        def counting(document, query, max_chars=160):
            calls.append((document.doc_id, query, max_chars))
            return real(document, query, max_chars)

        def counting_document(self, doc_id):
            reads.append(doc_id)
            return real_document(self, doc_id)

        monkeypatch.setattr(searchsim.index, "make_snippet", counting)
        monkeypatch.setattr(InvertedIndex, "document", counting_document)
        llm_rows = 0
        for topic in topics:
            fttc_queries = None
            for kind in validate_campaign_kinds(config.users):
                calls.clear()
                reads.clear()
                seed = derive_session_seed(config.campaign_seed, topic.topic_id, kind)
                log = run_session(topic, kind, index, qrels, policy=policy,
                                  cost_model=config.cost_model, backend=config.make_backend(),
                                  templates=config.make_templates(), rng_seed=seed,
                                  preset_queries=fttc_queries)
                if kind is UserKind.FTTC:
                    fttc_queries = log.initial_queries
                viewed = []
                for it in log.interactions:
                    if it.kind == QUERY_ISSUED:
                        query = it.payload["query"]
                    elif it.kind == SNIPPET_VIEWED:
                        viewed.append((it.payload["doc_id"], query, 100))
                assert viewed, (topic.topic_id, kind)
                # a random user decides by a draw and reads no snippet and no
                # document; an LLM user reads each viewed row's document once
                assert calls == (viewed if kind in LLM_KINDS else []), (topic.topic_id, kind)
                assert reads == ([doc_id for doc_id, _, _ in viewed] if kind in LLM_KINDS
                                 else []), (topic.topic_id, kind)
                llm_rows += len(viewed) if kind in LLM_KINDS else 0
        assert llm_rows > 0

    def test_non_ascii_snippets_equal_the_token_oracle(self, monkeypatch):
        filler = "plain words before the term of interest " * 3
        terms = ("Ångström", "résumé", "ΣΟΦΟΣ", "İstanbul")
        docs = [Document(doc_id=f"d{i}", title=f"{term} notes",
                         body=f"{filler}{term} and {terms[i - 1]}, {filler}")
                for i, term in enumerate(terms)]
        index = build_index(docs)
        topics = [Topic(topic_id="1", title="Ångström résumé"),
                  Topic(topic_id="2", title="ΣΟΦΟΣ İstanbul")]
        qrels = parse_qrels(b"1 0 d0 2\n1 0 d1 1\n2 0 d2 2\n2 0 d3 1\n")
        policy = SessionPolicy(max_queries=2, page_size=4, queries_per_session=2,
                               snippet_max_chars=60)
        calls = []
        real = searchsim.index.make_snippet

        def recording(document, query, max_chars=160):
            snippet = real(document, query, max_chars)
            calls.append((document.body, query, max_chars, snippet))
            return snippet

        monkeypatch.setattr(searchsim.index, "make_snippet", recording)
        runs = []
        for workers in (1, 2):
            backend = backend_with(["ångström résumé", "ΣΟΦΟΣ İstanbul"], ANSWER_YES)
            logs = run_campaign(topics, [UserKind.FTTC, UserKind.CRF], index, qrels,
                                policy=policy, backend=backend, workers=workers)
            runs.append([session_log_to_jsonl(log) for log in logs])
        assert runs[0] == runs[1]
        assert calls and all(len(body) > max_chars for body, _, max_chars, _ in calls)
        first_matches = set()
        for body, query, max_chars, snippet in calls:
            assert snippet == oracle_snippet(body, query, max_chars), (body, query)
            qterms = set(tokenize(query))
            first_matches.add(next((m.group(0) for m in re.finditer(r"[^\W_]+", body)
                                    if m.group(0).lower() in qterms), None))
        assert any(token and not token.isascii() for token in first_matches)


class TestSummaryRequests:
    """A summary is requested only for a side that the kind's prompts read."""

    VETO = "this article is vetoed by its own long title"  # longer key wins

    @pytest.fixture
    def mixed_setup(self):
        # d1 is judged relevant; d2's snippet (body only) gets a Yes, but its
        # full text carries the vetoing title, so it is judged irrelevant
        docs = [Document(doc_id="d1", body="twin text about things"),
                Document(doc_id="d2", title=self.VETO, body="twin text about stuff")]
        backend = backend_with(["twin"], {"Would this text be useful": "Yes",
                                          self.VETO: "No",
                                          "Output only the summary": "themes so far"})
        return docs, Topic(topic_id="9", title="twin things"), CapturingBackend(backend)

    def summary_sides(self, docs, topic, backend, kind, max_queries=1):
        log = run_session(topic, kind, build_index(docs), QrelSet(),
                          policy=SessionPolicy(max_queries=max_queries, page_size=2,
                                               queries_per_session=1),
                          backend=backend)
        sides = set()
        for prompt in backend.prompts("summarization"):
            sides.add("irrelevant" if "you judged irrelevant" in prompt else "relevant")
        return log, sides

    @pytest.mark.parametrize("kind, sides", [
        (UserKind.TTT, set()),
        (UserKind.FTTC, set()),
        (UserKind.PRF, {"relevant"}),
        (UserKind.NRF, {"irrelevant"}),
        (UserKind.CRF, {"relevant", "irrelevant"}),
        (UserKind.CRF_PRIME, {"relevant", "irrelevant"}),
    ])
    def test_requested_sides_per_kind(self, mixed_setup, kind, sides):
        docs, topic, backend = mixed_setup
        log, requested = self.summary_sides(docs, topic, backend, kind)
        judged = {it.payload["doc_id"]: it.payload["relevant"]
                  for it in log.interactions if it.kind == JUDGMENT_MADE}
        assert judged == {"d1": True, "d2": False}
        assert requested == sides

    def test_prf_switches_to_followups_after_an_irrelevant_first_judgment(self, mixed_setup):
        docs, topic, backend = mixed_setup
        log, requested = self.summary_sides(docs[1:], topic, backend, UserKind.PRF,
                                            max_queries=2)
        assert [it.payload["relevant"] for it in log.interactions
                if it.kind == JUDGMENT_MADE] == [False]
        assert requested == set()
        assert log.queries_issued == ["twin", "reformulated follow up"]


    def test_only_summarized_sides_keep_texts(self, fixture_collection, monkeypatch):
        """Summary prompts hold every same-side text in judgment order, and the
        knowledge state keeps the texts of no other side."""
        docs, topics, qrels = fixture_collection
        index = build_index(docs)
        states = {}
        real = KnowledgeState.record

        def spying(state, *args):
            states[id(state)] = state
            return real(state, *args)

        monkeypatch.setattr(KnowledgeState, "record", spying)
        summarized = set()
        for kind in sorted(LLM_KINDS):
            states.clear()
            backend = CapturingBackend(ScriptedBackend())
            log = run_session(topics[0], kind, index, qrels, backend=backend,
                              policy=SessionPolicy(max_queries=3, page_size=5,
                                                   queries_per_session=3))
            judged = [(it.payload["doc_id"], it.payload["relevant"])
                      for it in log.interactions if it.kind == JUDGMENT_MADE]
            (state,) = states.values()
            prompts = iter(backend.prompts("summarization"))
            for n, (_, relevant) in enumerate(judged):
                if not SUMMARY_SIDES[kind][0 if relevant else 1]:
                    continue
                texts = [index.document(d).full_text() for d, r in judged[:n + 1]
                         if r == relevant]
                block = "\n\n".join(f"Article {i}:\n{t}" for i, t in enumerate(texts, 1))
                prompt = next(prompts)
                assert block in prompt and f"Article {len(texts) + 1}:" not in prompt
                summarized.add(relevant)
            assert next(prompts, None) is None
            for relevant, wanted in zip((True, False), SUMMARY_SIDES[kind]):
                texts = [index.document(d).full_text() for d, r in judged if r == relevant]
                assert state.texts_for(relevant) == (texts if wanted else []), (kind, relevant)
            assert state.judged == dict(judged)
        assert summarized == {True, False}


class TestSessionProperties:
    def fuzz_session(self, rng):
        words = ["ant", "bee", "cat", "dog", "elk", "fox", "gnu", "hen"]
        docs = [Document(doc_id=f"d{i}",
                         body=" ".join(rng.choice(words) for _ in range(rng.randrange(3, 15))))
                for i in range(rng.randrange(2, 12))]
        index = build_index(docs)
        topic = Topic(topic_id=str(rng.randrange(100)),
                      title=" ".join(rng.sample(words, 3)),
                      description=" ".join(rng.sample(words, 4)))
        qrels = QrelSet({(topic.topic_id, d.doc_id): rng.randrange(0, 3)
                         for d in docs if rng.random() < 0.6})
        max_pages = rng.randrange(1, 3)
        page_size = rng.randrange(1, 6)
        if rng.random() < 0.5:
            rule = SnippetStopRule("fixed_depth",
                                   rng.randrange(1, page_size * max_pages + 1))
        else:
            rule = SnippetStopRule(CONSECUTIVE_IRRELEVANT, rng.randrange(1, 5))
        policy = SessionPolicy(max_queries=rng.randrange(1, 5), page_size=page_size,
                               max_pages_per_query=max_pages, stop_rule=rule)
        kind = rng.choice([UserKind.RND, UserKind.TTT, UserKind.FTTC,
                           UserKind.PRF, UserKind.NRF, UserKind.CRF, UserKind.CRF_PRIME])
        cost = CostModel(query_cost=rng.choice([0.0, 1.0, 10.0]),
                         snippet_cost=rng.choice([0.5, 3.0]),
                         document_cost=rng.choice([2.0, 20.0]),
                         judgment_cost=rng.choice([0.0, 5.0]))
        log = run_session(topic, kind, index, qrels, cost_model=cost,
                          backend=ScriptedBackend(), rng_seed=rng.randrange(10_000),
                          policy=replace(policy, queries_per_session=rng.randrange(1, 5)))
        return log, cost

    def test_causality_cost_and_uniqueness_fuzzed(self):
        rng = random.Random(20240803)
        for _ in range(60):
            log, cost = self.fuzz_session(rng)
            seqs = [it.seq for it in log.interactions]
            assert seqs == sorted(set(seqs))
            assert kinds_of(log).count(SESSION_ENDED) == 1
            assert kinds_of(log)[-1] == SESSION_ENDED

            viewed_docs, opened_docs, judged_docs = set(), set(), []
            for it in log.interactions:
                if it.kind == SNIPPET_VIEWED:
                    viewed_docs.add(it.payload["doc_id"])
                elif it.kind == DOCUMENT_VIEWED:
                    assert it.payload["doc_id"] in viewed_docs
                    opened_docs.add(it.payload["doc_id"])
                elif it.kind == JUDGMENT_MADE:
                    assert it.payload["doc_id"] in opened_docs
                    judged_docs.append(it.payload["doc_id"])
            assert len(judged_docs) == len(set(judged_docs))

            counts = {k: kinds_of(log).count(k) for k in
                      (QUERY_ISSUED, SNIPPET_VIEWED, DOCUMENT_VIEWED, JUDGMENT_MADE)}
            expected = (cost.query_cost * counts[QUERY_ISSUED]
                        + cost.snippet_cost * counts[SNIPPET_VIEWED]
                        + cost.document_cost * counts[DOCUMENT_VIEWED]
                        + cost.judgment_cost * counts[JUDGMENT_MADE])
            assert log.total_cost() == pytest.approx(expected, abs=0.0)
            assert log.queries_issued == [it.payload["query"] for it in log.interactions
                                          if it.kind == QUERY_ISSUED]

    def test_serialization_round_trip_fuzzed(self):
        rng = random.Random(20240804)
        for _ in range(10):
            log, _ = self.fuzz_session(rng)
            log.config_hash = "cafe" * 16
            restored = session_log_from_jsonl(session_log_to_jsonl(log))
            assert restored.topic_id == log.topic_id
            assert restored.user_kind == log.user_kind
            assert restored.seed == log.seed
            assert restored.config_hash == log.config_hash
            assert restored.initial_queries == log.initial_queries
            assert restored.queries_issued == log.queries_issued
            assert restored.interactions == log.interactions
            assert session_log_to_jsonl(restored) == session_log_to_jsonl(log)


class _FailsOnCall:
    """Wraps a backend and raises BackendError on its ``n``-th request."""

    def __init__(self, inner, n):
        self.inner = inner
        self.left = n

    def complete(self, request):
        self.left -= 1
        if self.left == 0:
            raise BackendError("outage on a counted request")
        return self.inner.complete(request)


WORDS = ["ant", "bee", "cat", "dog", "elk", "fox", "gnu", "hen"]
PROPERTY_DOCS = [Document(doc_id=f"d{i}", body=" ".join(WORDS[j % 8] for j in range(i, 3 * i + 2)))
                 for i in range(12)]
PROPERTY_INDEX = build_index(PROPERTY_DOCS)


@st.composite
def written_logs(draw) -> SessionLog:
    """A log as run_session writes it, under a drawn policy, cost model, reply
    and outage."""
    page_size, max_pages = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    stop_kind = draw(st.sampled_from([FIXED_DEPTH, CONSECUTIVE_IRRELEVANT]))
    stop_value = draw(st.integers(1, 5))
    if stop_kind == FIXED_DEPTH:
        stop_value = min(stop_value, page_size * max_pages)
    policy = SessionPolicy(max_queries=draw(st.integers(1, 4)), page_size=page_size,
                           max_pages_per_query=max_pages,
                           stop_rule=SnippetStopRule(stop_kind, stop_value),
                           queries_per_session=draw(st.integers(1, 4)),
                           p_random=draw(st.sampled_from([0.5, 1.0, 0.0])))
    costs = st.sampled_from([0.0, 3.0]) | st.floats(0, 1e6, allow_subnormal=False)
    cost_model = draw(st.none() | st.builds(CostModel, costs, costs, costs, costs))
    topic_id = draw(st.text(max_size=4))
    title = draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=3).map(" ".join))
    preset = draw(st.lists(st.sampled_from(WORDS), max_size=3))
    qrels = QrelSet({(topic_id, d.doc_id): i % 3 for i, d in enumerate(PROPERTY_DOCS)
                     if i % 4})
    backend = backend_with(preset or [title],
                           {"Would this text be useful": draw(st.sampled_from(["Yes", "No"]))})
    fail_at = draw(st.none() | st.integers(1, 15))
    if fail_at is not None:
        backend = _FailsOnCall(backend, fail_at)
    log = run_session(Topic(topic_id=topic_id, title=title), draw(st.sampled_from(list(UserKind))),
                      PROPERTY_INDEX, qrels, policy=policy, cost_model=cost_model,
                      backend=backend, rng_seed=draw(st.integers(0, 2**64 - 1)),
                      preset_queries=preset)
    log.config_hash = draw(st.none() | st.just("cafe" * 16))
    return log


class TestWrittenLogsReadBack:
    """Every log that run_session writes passes the reader and reads back equal."""

    @settings(max_examples=80)
    @given(written_logs())
    def test_run_session_log_reads_back_equal(self, log):
        assert session_log_from_jsonl(session_log_to_jsonl(log)) == log


class TestWrittenLogsGainCurve:
    """The IG curve of every log that run_session writes spends the log's cost
    and never loses effect."""

    @settings(max_examples=80)
    @given(written_logs())
    def test_final_effort_is_total_cost_and_effect_never_falls(self, log):
        points = information_gain_curve(log).points
        assert len(points) == len(log.interactions)
        assert points[-1][0] == log.total_cost()
        effects = [effect for _, effect in points]
        assert effects == sorted(effects)


class TestPinnedSessionLogs:
    # sha256 of the LLM requests and JSONL logs of the sessions below,
    # recorded when each query's pages were still fetched one search per page
    FUZZED_LOGS_SHA256 = "892ff1d92b30df94a9654bbdb33237cdca5d53b15bfa72299fc81e24c10a7b03"

    def test_fuzzed_session_logs_hash_is_pinned(self):
        rng = random.Random(20261018)
        words = ["ant", "bee", "cat", "dog", "elk", "fox", "gnu", "hen", "owl", "yak"]
        digest = hashlib.sha256()
        past_page_one = 0
        kinds = [k for k in UserKind if k is not UserKind.RND_STAR]
        for _ in range(320):
            docs = [Document(doc_id=f"d{i:02d}",
                             body=" ".join(rng.choice(words)
                                           for _ in range(rng.randrange(3, 20))))
                    for i in range(rng.randrange(4, 30))]
            index = build_index(docs)
            topic = Topic(topic_id=str(rng.randrange(100)),
                          title=" ".join(rng.sample(words, 3)),
                          description=" ".join(rng.sample(words, 4)))
            qrels = QrelSet({(topic.topic_id, d.doc_id): rng.randrange(0, 3)
                             for d in docs if rng.random() < 0.6})
            page_size = rng.randrange(1, 6)
            max_pages = rng.randrange(1, 5)
            if rng.random() < 0.5:
                rule = SnippetStopRule(FIXED_DEPTH,
                                       rng.randrange(1, page_size * max_pages + 1))
            else:
                rule = SnippetStopRule(CONSECUTIVE_IRRELEVANT, rng.randrange(1, 6))
            policy = SessionPolicy(max_queries=rng.randrange(1, 5), page_size=page_size,
                                   max_pages_per_query=max_pages, stop_rule=rule,
                                   queries_per_session=rng.randrange(1, 5))
            kind = rng.choice(kinds)
            # initial queries from the collection's words, so LLM users read results
            backend = ScriptedBackend({"Output only the numbered queries": "\n".join(
                f"{i}. {' '.join(rng.sample(words, 2))}" for i in range(1, 5))})
            if rng.random() < 0.3:
                backend = _FailsOnCall(backend, rng.randrange(1, 20))
            backend = CapturingBackend(backend)
            log = run_session(topic, kind, index, qrels, policy=policy, backend=backend,
                              rng_seed=rng.randrange(10_000))
            for request in backend.requests:
                digest.update(f"{request.tag}|{request.prompt_text()}\n".encode("utf-8"))
            past_page_one += any(it.kind == SNIPPET_VIEWED and it.payload["rank"] > page_size
                                 for it in log.interactions)
            digest.update(session_log_to_jsonl(log))
        assert past_page_one > 0
        assert digest.hexdigest() == self.FUZZED_LOGS_SHA256


class TestPolicyValidation:
    def test_fixed_depth_cannot_exceed_reachable_results(self):
        with pytest.raises(ValueError):
            SessionPolicy(page_size=5, max_pages_per_query=1,
                          stop_rule=SnippetStopRule("fixed_depth", 6))

    def test_cost_model_rejects_negative(self):
        with pytest.raises(ValueError):
            CostModel(query_cost=-1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_cost_model_rejects_non_finite(self, value):
        with pytest.raises(ValueError, match="judgment_cost must be a finite number"):
            CostModel(judgment_cost=value)

    def test_unknown_stop_rule(self):
        with pytest.raises(ValueError):
            SnippetStopRule("coin_flip", 1)


class TestCampaign:
    @pytest.fixture
    def campaign_setup(self, fixture_collection):
        docs, topics, qrels = fixture_collection
        index = build_index(docs)
        policy = SessionPolicy(max_queries=2, page_size=3,
                               stop_rule=SnippetStopRule("fixed_depth", 3),
                               queries_per_session=2)
        return topics[:2], index, qrels, policy

    def test_kind_validation(self):
        with pytest.raises(CampaignError):
            validate_campaign_kinds([])
        with pytest.raises(CampaignError):
            validate_campaign_kinds([UserKind.RND_STAR, UserKind.RND])
        ordered = validate_campaign_kinds([UserKind.RND_STAR, UserKind.FTTC])
        assert ordered.index(UserKind.FTTC) < ordered.index(UserKind.RND_STAR)

    def test_documented_order_and_count(self, campaign_setup):
        topics, index, qrels, policy = campaign_setup
        logs = run_campaign(topics, [UserKind.RND, UserKind.TTT], index, qrels,
                            policy=policy, backend=ScriptedBackend())
        assert [(log.topic_id, log.user_kind) for log in logs] == [
            (topics[0].topic_id, UserKind.RND), (topics[0].topic_id, UserKind.TTT),
            (topics[1].topic_id, UserKind.RND), (topics[1].topic_id, UserKind.TTT),
        ]

    def test_rerun_identical(self, campaign_setup):
        topics, index, qrels, policy = campaign_setup
        def once():
            logs = run_campaign(topics, [UserKind.RND, UserKind.FTTC], index, qrels,
                                policy=policy, backend=ScriptedBackend(),
                                campaign_seed=5)
            return [session_log_to_jsonl(log) for log in logs]
        assert once() == once()

    def test_adding_a_kind_leaves_other_sessions_unchanged(self, campaign_setup):
        topics, index, qrels, policy = campaign_setup
        base = run_campaign(topics, [UserKind.RND, UserKind.TTT], index, qrels,
                            policy=policy, backend=ScriptedBackend(),
                            campaign_seed=5)
        extended = run_campaign(topics, [UserKind.RND, UserKind.TTT, UserKind.CRF],
                                index, qrels, policy=policy, backend=ScriptedBackend(),
                                campaign_seed=5)
        base_by_key = {(log.topic_id, log.user_kind): session_log_to_jsonl(log)
                       for log in base}
        for log in extended:
            key = (log.topic_id, log.user_kind)
            if key in base_by_key:
                assert session_log_to_jsonl(log) == base_by_key[key]

    def test_rnd_star_replays_fttc_queries(self, campaign_setup):
        topics, index, qrels, policy = campaign_setup
        logs = run_campaign(topics, [UserKind.FTTC, UserKind.RND_STAR], index, qrels,
                            policy=policy, backend=ScriptedBackend())
        by_key = {(log.topic_id, log.user_kind): log for log in logs}
        for topic in topics:
            fttc = by_key[(topic.topic_id, UserKind.FTTC)]
            star = by_key[(topic.topic_id, UserKind.RND_STAR)]
            assert star.initial_queries == fttc.initial_queries
            assert star.queries_issued == fttc.queries_issued

    def test_workers_do_not_change_output(self, campaign_setup):
        topics, index, qrels, policy = campaign_setup
        # RND_STAR listed first is still queued after every FTTC session
        for kinds in ([UserKind.RND, UserKind.FTTC, UserKind.RND_STAR],
                      [UserKind.RND_STAR, UserKind.RND, UserKind.FTTC]):
            serial = run_campaign(topics, kinds, index, qrels, policy=policy,
                                  backend=ScriptedBackend())
            for workers in (2, 4):
                parallel = run_campaign(topics, kinds, index, qrels, policy=policy,
                                        backend=ScriptedBackend(), workers=workers)
                assert ([session_log_to_jsonl(log) for log in serial]
                        == [session_log_to_jsonl(log) for log in parallel]), (kinds, workers)

    def test_rnd_star_runs_without_waiting_for_other_topics(self, campaign_setup,
                                                             monkeypatch):
        topics, index, qrels, policy = campaign_setup
        real_run_session = searchsim.session.run_session
        first_star_ended = threading.Event()
        held_saw_it = []

        def run_session(topic, kind, *args, **kwargs):
            if (topic, kind) == (topics[1], UserKind.FTTC):
                # held until the first topic's RND_STAR session has ended
                held_saw_it.append(first_star_ended.wait(timeout=5))
            log = real_run_session(topic, kind, *args, **kwargs)
            if (topic, kind) == (topics[0], UserKind.RND_STAR):
                first_star_ended.set()
            return log

        monkeypatch.setattr(searchsim.session, "run_session", run_session)
        logs = run_campaign(topics, [UserKind.FTTC, UserKind.RND_STAR], index, qrels,
                            policy=policy, backend=ScriptedBackend(), workers=2)
        assert held_saw_it == [True]
        assert logs[3].initial_queries == logs[2].initial_queries

    @pytest.mark.parametrize("workers", [1, 2])
    def test_interrupt_starts_no_further_session(self, fixture_collection, monkeypatch,
                                                 workers):
        docs, topics, qrels = fixture_collection
        real_run_session = searchsim.session.run_session
        started = []  # per session started: whether the SIGINT had been sent
        ended = threading.Semaphore(0)
        sent = threading.Event()
        taken = threading.Event()
        late_calls = []  # backend calls begun once the interrupt was taken

        def run_session(*args, **kwargs):
            started.append(sent.is_set())
            try:
                return real_run_session(*args, **kwargs)
            finally:
                ended.release()

        class Interrupting:
            calls = itertools.count(1)  # next() is atomic across threads
            inner = ScriptedBackend()

            def complete(self, request):
                if taken.is_set():
                    late_calls.append(request)
                call = next(self.calls)
                if call == 5:  # the first session (TTT, 10 requests) is half done
                    time.sleep(0.05)  # a backend's latency: every thread runs a session by now
                    sent.set()
                    signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
                if call >= 5:  # hold every request slot until the interrupt is taken
                    taken.wait(timeout=5)
                return self.inner.complete(request)

        monkeypatch.setattr(searchsim.session, "run_session", run_session)
        try:
            with pytest.raises(KeyboardInterrupt):
                run_campaign(topics, [UserKind.TTT, UserKind.FTTC, UserKind.CRF],
                             build_index(docs), qrels, backend=Interrupting(),
                             workers=workers)
        finally:
            taken.set()
            # wait for the workers' sessions to end: on CPython 3.11, join()
            # returns at once for the thread whose join the interrupt broke
            for _ in started:
                assert ended.acquire(timeout=10)
        assert len(topics) == 3  # 9 sessions queued
        assert 1 <= len(started) <= 2 * workers  # the queue's threads
        assert not any(started)  # no session began after the SIGINT
        assert late_calls == []  # the running sessions ended at their next request

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_requests_in_flight_reach_workers_and_never_exceed_it(self, campaign_setup,
                                                                  workers):
        topics, index, qrels, policy = campaign_setup
        kinds = [UserKind.TTT, UserKind.FTTC, UserKind.PRF, UserKind.CRF]
        assert len(topics) * len(kinds) >= 2 * workers  # a session per thread

        serial = run_campaign(topics, kinds, index, qrels, policy=policy,
                              backend=ScriptedBackend())
        slow = SlowBackend(delay=0.02)
        logs = run_campaign(topics, kinds, index, qrels, policy=policy, backend=slow,
                            workers=workers)
        assert slow.most == workers
        assert ([session_log_to_jsonl(log) for log in logs]
                == [session_log_to_jsonl(log) for log in serial])

    @pytest.mark.parametrize("workers", [1, 4])
    def test_each_temperature_0_question_is_asked_once_and_logs_match_solo_runs(
            self, fixture_collection, workers):
        config = CampaignConfig.from_file(fixture_path(CAMPAIGN))
        docs, topics, qrels = fixture_collection
        index = build_index(docs, **config.index_options())
        kinds = validate_campaign_kinds(config.users)
        assert set(kinds) == set(UserKind)
        shared = CapturingBackend(ScriptedBackend())
        logs = run_campaign(topics, kinds, index, qrels, policy=config.policy,
                            cost_model=config.cost_model, backend=shared,
                            campaign_seed=config.campaign_seed, workers=workers)
        solo_backend = CapturingBackend(ScriptedBackend())
        solo = {}
        for topic in topics:
            for kind in kinds:  # FTTC before RND_STAR, which replays its queries
                fttc = solo.get((topic.topic_id, UserKind.FTTC))
                solo[(topic.topic_id, kind)] = run_session(
                    topic, kind, index, qrels, policy=config.policy,
                    cost_model=config.cost_model, backend=solo_backend,
                    rng_seed=derive_session_seed(config.campaign_seed, topic.topic_id, kind),
                    preset_queries=fttc.initial_queries if kind is UserKind.RND_STAR else None)
        assert [session_log_to_jsonl(log) for log in logs] == [
            session_log_to_jsonl(solo[(log.topic_id, log.user_kind)]) for log in logs]

        def asked(backend, temperature_0):
            return Counter((r.tag, r.temperature, r.seed, r.messages) for r in backend.requests
                           if (r.temperature == 0) == temperature_0)
        assert set(asked(shared, True).values()) == {1}
        assert asked(shared, True).keys() == asked(solo_backend, True).keys()
        assert asked(shared, False) == asked(solo_backend, False)
        assert len(shared.requests) < len(solo_backend.requests)

    def test_unreadable_judgments_reach_the_backend_once_and_log_one_anomaly_each(
            self, fixture_collection):
        docs, topics, qrels = fixture_collection
        # "maybe" is neither yes nor no
        backend = CapturingBackend(backend_with(["beekeeping permits", "hive rules"], {
            "Would this text be useful": "maybe", "Output only the summary": "ok"}))
        policy = SessionPolicy(max_queries=5, page_size=5, queries_per_session=5,
                               stop_rule=SnippetStopRule("fixed_depth", 5))
        logs = run_campaign(topics, [UserKind.FTTC], build_index(docs), qrels,
                            policy=policy, backend=backend)
        asked = Counter(topic.topic_id for r in backend.requests for topic in topics
                        if r.tag == TAG_RELEVANCE_JUDGMENT and topic.title in r.prompt_text())
        # a snippet text seen twice in a session is sent once
        assert asked == {"801": 11, "802": 9, "803": 9}
        for log in logs:
            messages = [it.payload["message"] for it in log.interactions if it.kind == ANOMALY]
            assert messages.count("judgment reply matched neither yes nor no; treating "
                                  "as not relevant") == kinds_of(log).count(SNIPPET_VIEWED)
            assert log.anomaly_count == 11

    def test_campaign_requires_topics(self, campaign_setup):
        _, index, qrels, policy = campaign_setup
        with pytest.raises(CampaignError):
            run_campaign([], [UserKind.RND], index, qrels, policy=policy)

    def test_duplicate_topic_ids_rejected(self, campaign_setup):
        topics, index, qrels, policy = campaign_setup
        twin = Topic(topic_id=topics[0].topic_id, title="another topic with the same id")
        cases = [
            ([topics[0], twin], "duplicate topic id"),
            # both would write 401_a__FTTC.jsonl
            ([Topic(topic_id="401.a", title="first"), Topic(topic_id="401_a", title="second")],
             "'401.a' and '401_a' map to the same log file names"),
            ([topics[0], Topic(topic_id="", title="a topic without <num>")], "empty id"),
        ]
        for case_topics, message in cases:
            backend = CapturingBackend(ScriptedBackend())
            with pytest.raises(CampaignError, match=message):
                run_campaign(case_topics, [UserKind.FTTC], index, qrels, policy=policy,
                             backend=backend)
            assert backend.requests == []  # rejected before any session ran

    # distinct ids of digits and separators, then maybe the empty id or "4"
    # once more; a log file name keeps the digits and turns the rest into "_"
    @given(st.lists(st.text(alphabet="401._ ", min_size=1, max_size=2), max_size=5,
                    unique=True),
           st.sampled_from([(), ("",), ("4",)]))
    def test_topic_ids_are_refused_exactly_when_file_stems_collide(self, ids, extra):
        ids += extra
        stems = ["".join(c if c in "401" else "_" for c in topic_id) for topic_id in ids]
        topics = [Topic(topic_id=topic_id, title="a topic") for topic_id in ids]
        if "" in stems or len(set(stems)) < len(stems):
            with pytest.raises(CampaignError):
                _check_topic_ids(topics)
        else:
            _check_topic_ids(topics)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_failed_session_stops_sessions_not_yet_started(self, fixture_collection,
                                                           workers):
        docs, topics, qrels = fixture_collection
        calls = []

        class Broken:
            def complete(self, request):
                calls.append(request)  # list.append is atomic across threads
                raise RuntimeError("not a backend failure: a bug")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            with pytest.raises(RuntimeError, match="a bug"):
                run_campaign(topics, [UserKind.TTT, UserKind.FTTC, UserKind.CRF],
                             build_index(docs), qrels, backend=Broken(), workers=workers)
        finally:
            sys.setswitchinterval(interval)
        assert len(topics) == 3  # 9 sessions queued
        # each session fails on its first request; only those already running reach it
        assert 1 <= len(calls) <= workers

    def test_a_failure_other_than_a_backend_error_fails_the_campaign(self, campaign_setup):
        topics, index, qrels, policy = campaign_setup

        class BrokenSummaries:
            inner = ScriptedBackend()

            def complete(self, request):
                if request.tag == TAG_SUMMARIZATION:
                    raise RuntimeError("not a backend failure: a bug")
                return self.inner.complete(request)

        # the other sessions' next requests are refused; the campaign raises
        # the bug, not a refusal
        with pytest.raises(RuntimeError, match="a bug"):
            run_campaign(topics, [UserKind.CRF], index, qrels, policy=policy,
                         backend=BrokenSummaries(), workers=2)

    def test_failed_fttc_degrades_rnd_star_without_crashing(self, campaign_setup):
        topics, index, qrels, policy = campaign_setup
        backend = ScriptedBackend({"Output only the numbered queries": "",
                                   "exactly": ""})  # both attempts unparseable
        logs = run_campaign(topics, [UserKind.FTTC, UserKind.RND_STAR], index, qrels,
                            policy=policy, backend=backend)
        by_kind = {}
        for log in logs:
            by_kind.setdefault(log.user_kind, []).append(log)
        for log in by_kind[UserKind.FTTC]:
            assert log.end_reason == "query_generation_failure"
            assert log.initial_queries == []
        for log in by_kind[UserKind.RND_STAR]:
            assert log.end_reason == END_QUERIES_EXHAUSTED
            assert log.queries_issued == []

    def test_seed_derivation_is_stable_and_distinct(self):
        a = derive_session_seed(0, "801", UserKind.RND)
        assert a == derive_session_seed(0, "801", UserKind.RND)
        assert a != derive_session_seed(0, "801", UserKind.TTT)
        assert a != derive_session_seed(1, "801", UserKind.RND)
        assert a != derive_session_seed(0, "802", UserKind.RND)


class TestLogFiles:
    # str.splitlines breaks a line at each of these; the writer leaves the
    # first three raw inside a string and escapes the rest
    @pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85", "\x1c", "\x1d", "\x1e"])
    def test_line_boundary_characters_round_trip(self, char):
        log = make_log([(QUERY_ISSUED, 1.0, {"query": f"a{char}b"}),
                        (SNIPPET_VIEWED, 0.5, {"doc_id": "d1", "rank": 1,
                                               "snippet": f"{char}text{char}"}),
                        (SESSION_ENDED, 0.0, {"reason": END_MAX_QUERIES})])
        data = session_log_to_jsonl(log)
        restored = session_log_from_jsonl(data)
        assert restored.interactions == log.interactions
        assert restored.queries_issued == [f"a{char}b"]
        assert session_log_to_jsonl(restored) == data

    @pytest.mark.parametrize("lines, lineno", [
        (["[]"], 1),
        (["[1]"], 1),
        (["HEADER", "[1]"], 2),
        (["HEADER", "", "[]"], 3),
        (["HEADER", '{"record":"interaction","seq":0,"kind":"QueryIssued","cost":1.0,'
                    '"payload":[]}'], 2),
        (["HEADER", '{"record":"interaction","seq":0,"kind":"QueryIssued","cost":1.0,'
                    '"payload":"q"}'], 2),
        (["HEADER", '{"record":"interaction","seq":0,"kind":"QueryIssued","cost":1.0,'
                    '"payload":{}}'], 2),
    ], ids=["header_empty_array", "header_array", "record_array", "record_after_blank",
            "payload_array", "payload_string", "query_missing"])
    def test_record_that_is_not_an_object_names_its_line(self, lines, lineno):
        header = session_log_to_jsonl(make_log([])).decode("utf-8").strip()
        data = "\n".join(header if line == "HEADER" else line for line in lines)
        with pytest.raises(LogFormatError, match=f"line {lineno}: "):
            session_log_from_jsonl(data.encode("utf-8"))

    @pytest.mark.parametrize("data, lineno", [
        (b"\xff\n", 1),
        (b"HEADER\n\xc3\x28\n", 2),
    ], ids=["header_not_utf8", "record_not_utf8"])
    def test_bytes_that_are_not_utf8_name_their_line(self, data, lineno):
        header = session_log_to_jsonl(make_log([])).strip()
        with pytest.raises(LogFormatError, match=f"line {lineno}: "):
            session_log_from_jsonl(data.replace(b"HEADER", header))

    @pytest.mark.parametrize("field, value", [
        ("seq", "true"), ("seq", '"a"'), ("seq", "-1"), ("seq", "1.0"),
        ("cost", "true"), ("cost", '"1"'), ("cost", "-1"), ("cost", "NaN"),
        ("cost", "Infinity"), ("cost", "null"),
    ])
    def test_interaction_with_a_bad_seq_or_cost_is_refused(self, field, value):
        header = session_log_to_jsonl(make_log([])).decode("utf-8").strip()

        def log_with(**fields):
            values = {"seq": "0", "cost": "1.0", **fields}
            line = (f'{{"record":"interaction","seq":{values["seq"]},"kind":"SessionEnded",'
                    f'"cost":{values["cost"]},"payload":{{"reason":"max_queries_reached"}}}}')
            return f"{header}\n{line}\n".encode("utf-8")

        assert len(session_log_from_jsonl(log_with()).interactions) == 1
        with pytest.raises(LogFormatError, match=f"line 2: {field} must be"):
            session_log_from_jsonl(log_with(**{field: value}))

    def test_interaction_of_an_unknown_kind_is_refused(self):
        header = session_log_to_jsonl(make_log([])).decode("utf-8").strip()
        line = '{"record":"interaction","seq":0,"kind":"Bogus","cost":1.0,"payload":{}}'
        with pytest.raises(LogFormatError, match="line 2: unknown interaction kind 'Bogus'"):
            session_log_from_jsonl(f"{header}\n{line}\n".encode("utf-8"))

    # the header of an old log that once loaded, with initial_queries ['a', 'b', 'c']
    FOUND_HEADER = ('{"record":"session","topic_id":5,"user_kind":"RND","seed":"x",'
                    '"initial_queries":"abc","config_hash":7}')

    @pytest.mark.parametrize("field, value", [
        ("topic_id", "5"), ("topic_id", "null"), ("seed", '"x"'), ("seed", "true"),
        ("seed", "1.0"), ("initial_queries", '"abc"'), ("initial_queries", "[1]"),
        ("initial_queries", "null"), ("config_hash", "7"), ("config_hash", "[]"),
    ])
    def test_header_field_of_the_wrong_type_is_refused(self, field, value):
        fields = {"topic_id": '"t1"', "seed": "0", "initial_queries": "[]",
                  "config_hash": "null", field: value}
        header = ('{"record":"session","user_kind":"RND",'
                  + ",".join(f'"{k}":{v}' for k, v in fields.items()) + "}")
        with pytest.raises(LogFormatError, match=f"line 1: {field} must be"):
            session_log_from_jsonl(header.encode("utf-8"))

    def test_found_header_is_refused(self):
        with pytest.raises(LogFormatError, match="line 1: topic_id must be a string"):
            session_log_from_jsonl(self.FOUND_HEADER.encode("utf-8"))

    def test_header_without_initial_queries_or_config_hash_keeps_defaults(self):
        log = session_log_from_jsonl(
            b'{"record":"session","topic_id":"t1","user_kind":"RND","seed":3}\n'
            b'{"record":"interaction","seq":0,"kind":"SessionEnded","cost":0.0,'
            b'"payload":{"reason":"queries_exhausted"}}\n')
        assert (log.initial_queries, log.config_hash) == ([], None)

    @pytest.mark.parametrize("rows, lineno, message", [
        ([], 1, "the log ends without a SessionEnded record"),
        ([(QUERY_ISSUED, 1.0, {"query": "q"}), (ANOMALY, 0.0, {"message": "m"})], 3,
         "the log ends without a SessionEnded record"),
        ([(QUERY_ISSUED, 1.0, {"query": "q"}), (SESSION_ENDED, 0.0, {"reason": END_MAX_QUERIES}),
          (ANOMALY, 0.0, {"message": "m"})], 4, "a record after the SessionEnded record"),
        ([(SESSION_ENDED, 0.0, {"reason": END_BACKEND_FAILURE}),
          (SESSION_ENDED, 0.0, {"reason": END_BACKEND_FAILURE})], 3,
         "a record after the SessionEnded record"),
    ], ids=["header_only", "no_end", "record_after_the_end", "two_ends"])
    def test_log_whose_last_record_is_not_its_one_end_is_refused(self, rows, lineno, message):
        with pytest.raises(LogFormatError, match=f"line {lineno}: {message}$"):
            session_log_from_jsonl(session_log_to_jsonl(make_log(rows)))

    @pytest.mark.parametrize("payload", [
        {"reason": "done"}, {"reason": None}, {"reason": ""}, {"reason": [END_MAX_QUERIES]},
        {"reason": END_MAX_QUERIES.upper()},
    ])
    def test_end_reason_outside_the_four_is_refused(self, payload):
        data = session_log_to_jsonl(make_log([(QUERY_ISSUED, 1.0, {"query": "q"}),
                                              (SESSION_ENDED, 0.0, payload)]))
        with pytest.raises(LogFormatError, match="line 3: SessionEnded reason .* is not one "
                                                 "of max_queries_reached, queries_exhausted"):
            session_log_from_jsonl(data)

    @pytest.mark.parametrize("reason", END_REASONS)
    def test_each_end_reason_reads_back(self, reason):
        log = make_log([(QUERY_ISSUED, 1.0, {"query": "q"}),
                        (SESSION_ENDED, 0.0, {"reason": reason})])
        restored = session_log_from_jsonl(session_log_to_jsonl(log))
        assert restored == log and restored.end_reason == reason

    def test_end_reason_is_the_last_records(self):
        ended = (SESSION_ENDED, 0.0, {"reason": END_MAX_QUERIES})
        assert make_log([ended]).end_reason == END_MAX_QUERIES
        assert make_log([ended, (ANOMALY, 0.0, {"message": "m"})]).end_reason is None
        assert make_log([]).end_reason is None

    @pytest.mark.parametrize("kind, payload, key", [
        (SNIPPET_VIEWED, {"rank": 1}, "doc_id"),
        (JUDGMENT_MADE, {"relevant": True, "grade": 1}, "doc_id"),
        (JUDGMENT_MADE, {"doc_id": "d", "grade": 1}, "relevant"),
        (JUDGMENT_MADE, {"doc_id": "d", "relevant": True}, "grade"),
        (SESSION_ENDED, {}, "reason"),
    ], ids=["snippet_doc_id", "judgment_doc_id", "judgment_relevant", "judgment_grade",
            "end_reason"])
    def test_payload_without_a_key_evaluation_reads(self, kind, payload, key):
        data = session_log_to_jsonl(make_log([(QUERY_ISSUED, 1.0, {"query": "q"}),
                                              (kind, 1.0, payload)]))
        with pytest.raises(LogFormatError, match=f"line 3: {kind} payload lacks \\['{key}'\\]"):
            session_log_from_jsonl(data)

    @pytest.mark.parametrize("kind, payload", [
        (SNIPPET_VIEWED, {"doc_id": "d", "rank": 1}),
        (DOCUMENT_VIEWED, {"doc_id": "d"}),
        (JUDGMENT_MADE, {"doc_id": "d", "relevant": True, "grade": 1}),
    ], ids=["snippet", "document", "judgment"])
    def test_record_before_the_first_query_is_refused(self, kind, payload):
        rows = [(ANOMALY, 0.0, {"message": "outage"}), (kind, 1.0, payload)]
        data = session_log_to_jsonl(make_log(rows))
        with pytest.raises(LogFormatError, match=f"line 3: {kind} before the first QueryIssued"):
            session_log_from_jsonl(data)
        # an anomaly may come first: a backend can fail before any query
        rows[1] = (SESSION_ENDED, 0.0, {"reason": END_BACKEND_FAILURE})
        log = make_log(rows)
        assert session_log_from_jsonl(session_log_to_jsonl(log)) == log

    # deleting the last record leaves no gap; the manifest's count catches that
    @pytest.mark.parametrize("deleted", [0, 1, 2])
    def test_seq_that_is_not_the_record_position_is_refused(self, deleted):
        log = make_log([(QUERY_ISSUED, 1.0, {"query": "q"}),
                        (SNIPPET_VIEWED, 1.0, {"doc_id": "d", "rank": 1}),
                        (ANOMALY, 0.0, {"message": "m"}),
                        (SESSION_ENDED, 0.0, {"reason": END_MAX_QUERIES})])
        lines = session_log_to_jsonl(log).split(b"\n")
        del lines[1 + deleted]
        with pytest.raises(LogFormatError, match=f"line {2 + deleted}: seq {deleted + 1} "
                                                 f"is not the record's position {deleted}"):
            session_log_from_jsonl(b"\n".join(lines))

    # lines as a hand edit or a bad copy leaves them. Line 1 is the header,
    # lines 2-5 the records, and line 6 the empty rest after the last newline
    @pytest.mark.parametrize("edit, lineno", [
        (lambda lines: [" " + lines[0], "\t" + lines[1], *lines[2:]], None),
        (lambda lines: [lines[0] + " ", lines[1] + "\t ", *lines[2:]], None),
        (lambda lines: [line + "\r" for line in lines[:-1]] + [""], None),
        (lambda lines: ["\ufeff" + lines[0], *lines[1:]], 1),
        (lambda lines: [*lines[:2], "\ufeff" + lines[2], *lines[3:]], 3),
        (lambda lines: [*lines[:2], lines[2] + lines[3], *lines[4:]], 3),
        (lambda lines: [*lines[:2], lines[2] + " " + lines[3], *lines[4:]], 3),
        (lambda lines: [*lines[:2], lines[2] + "}", *lines[3:]], 3),
        (lambda lines: [*lines[:2], lines[2][:40], lines[2][40:], *lines[3:]], 3),
        (lambda lines: [*lines[:2], lines[2][:-1], *lines[3:]], 3),
        (lambda lines: [*lines[:4], lines[4][:-9], *lines[5:]], 5),
        (lambda lines: [*lines[:2], "{}", *lines[3:]], 3),
        (lambda lines: [*lines[:2], '{"a":1}{}', *lines[3:]], 3),
    ], ids=["leading_whitespace", "trailing_whitespace", "crlf", "bom_in_header",
            "bom_in_record", "two_records", "two_records_spaced", "extra_brace",
            "split_record", "record_without_its_brace", "last_record_cut_short",
            "empty_object", "two_objects"])
    def test_edited_lines_are_read_as_json_loads_reads_them(self, monkeypatch, edit, lineno):
        log = make_log([(QUERY_ISSUED, 1.0, {"query": "q"}),
                        (SNIPPET_VIEWED, 1.0, {"doc_id": "d", "rank": 1}),
                        (ANOMALY, 0.0, {"message": "m"}),
                        (SESSION_ENDED, 0.0, {"reason": END_MAX_QUERIES})])
        data = "\n".join(edit(session_log_to_jsonl(log).decode("utf-8").split("\n")))

        def outcome():
            try:
                return session_log_from_jsonl(data.encode("utf-8"))
            except LogFormatError as exc:
                return str(exc)

        read = outcome()
        if lineno is None:
            assert read == log
        else:
            assert read.startswith(f"bad session log, line {lineno}: ")
        monkeypatch.setattr(searchsim.session, "_record", json.loads)
        assert outcome() == read

    def test_write_read_and_manifest(self, tmp_path, twin_setup):
        _, index, topic, qrels = twin_setup
        log = run_session(topic, UserKind.RND, index, qrels,
                          policy=SessionPolicy(max_queries=1, page_size=2), rng_seed=3)
        log.config_hash = "ab" * 32
        path = write_session_log(log, tmp_path)
        assert path.name == "9__RND.jsonl"
        restored = read_session_log(path)
        assert restored.interactions == log.interactions
        manifest_path = write_campaign_manifest(tmp_path, [log], campaign_seed=0,
                                                config_hash=log.config_hash)
        assert manifest_path.is_file()
