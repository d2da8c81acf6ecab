"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 8's pinned hand value for the BM25 toy case (0.9029) is internally
inconsistent with the documented scoring formula, which gives ln 2 for those
inputs; that check is expected to fail and is kept honest rather than
adjusted. See test_criterion_08a for the arithmetic.
"""
from __future__ import annotations

import json
import math
import random
import time

import pytest

from searchsim.agents import (
    RANDOM_KINDS,
    UserKind,
    decide_relevance_random,
    generate_query_naive,
)
from searchsim.corpus import Topic
from searchsim.fixtures import fixture_path, load_fixture_collection
from searchsim.index import bm25_score, build_index, search, tokenize
from searchsim.llm import TAG_RELEVANCE_JUDGMENT, ChatResponse, ScriptedBackend
from searchsim.metrics import information_gain_curve, sdcg_curve
from searchsim.session import (
    JUDGMENT_MADE,
    SessionPolicy,
    SnippetStopRule,
    run_campaign,
    run_session,
)
from backends import CapturingBackend, QrelsOracleBackend
from oracles import fuzz_log, make_log, oracle_gain_points, oracle_sdcg_points

RELEVANT_MARKER = "Summary of the results you previously judged relevant:"
IRRELEVANT_MARKER = "Summary of the results you previously judged irrelevant:"


def report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {description}: {status}")
    assert ok, f"criterion {number}: {description} {detail}".rstrip()


@pytest.fixture(scope="module")
def collection():
    return load_fixture_collection()


class OpenAllOracle(QrelsOracleBackend):
    """Opens every snippet, then judges the full text from the qrels.

    A judgment prompt that contains a complete document body is a full-text
    view; anything shorter is a snippet and gets a Yes so the document is
    opened.
    """

    def complete(self, request):
        if request.tag == TAG_RELEVANCE_JUDGMENT:
            prompt = request.prompt_text()
            for doc in self.documents:
                if doc.body in prompt:
                    return super().complete(request)
            return ChatResponse("Yes", {"backend": "open-all"})
        return super().complete(request)


def test_criterion_01_metric_oracle_equivalence():
    rng = random.Random(1001)
    started = time.monotonic()
    for _ in range(1000):
        log = fuzz_log(rng)
        points, unjudged = oracle_gain_points(log)
        curve = information_gain_curve(log)
        assert len(curve.points) == len(points)
        for (x, y), (ex, ey) in zip(curve.points, points):
            assert abs(x - ex) <= 1e-9 and abs(y - ey) <= 1e-9
        assert curve.unjudged_relevant_count == unjudged
        sd = sdcg_curve(log, b=2.0, bq=4.0)
        expected = oracle_sdcg_points(log, 2.0, 4.0)
        assert len(sd.points) == len(expected)
        for (q, v), (eq, ev) in zip(sd.points, expected):
            assert q == eq and abs(v - ev) <= 1e-9
    elapsed = time.monotonic() - started
    report(1, "metric oracle equivalence on 1000 fuzzed logs",
           elapsed < 10.0, f"(took {elapsed:.2f}s)")


def test_criterion_02_hand_cases():
    five_step = make_log([
        ("QueryIssued", 1.0, {"query": "q"}),
        ("SnippetViewed", 1.0, {"doc_id": "d", "rank": 1}),
        ("DocumentViewed", 1.0, {"doc_id": "d"}),
        ("JudgmentMade", 1.0, {"doc_id": "d", "relevant": True, "grade": 2}),
        ("SessionEnded", 1.0, {"reason": "max_queries_reached"}),
    ])
    curve = information_gain_curve(five_step)
    gain_ok = (curve.points[-1] == (5.0, 2.0)
               and [p[1] for p in curve.points] == [0.0, 0.0, 0.0, 2.0, 2.0])

    two_queries = make_log([
        ("QueryIssued", 1.0, {"query": "a"}),
        ("JudgmentMade", 1.0, {"doc_id": "d1", "relevant": True, "grade": 1}),
        ("QueryIssued", 1.0, {"query": "b"}),
        ("JudgmentMade", 1.0, {"doc_id": "d2", "relevant": True, "grade": 1}),
    ])
    sdcg = sdcg_curve(two_queries, b=2.0, bq=4.0)
    sdcg_ok = abs(sdcg.final_value - (1.0 + 2.0 / 3.0)) <= 1e-9
    report(2, "effort/effect and session-DCG hand cases", gain_ok and sdcg_ok)


def test_criterion_03_monotonicity():
    rng = random.Random(1003)
    for _ in range(500):
        log = fuzz_log(rng)
        effects = [p[1] for p in information_gain_curve(log).points]
        assert effects == sorted(effects)
        values = [v for _, v in sdcg_curve(log).points]
        assert values == sorted(values)
    report(3, "effect and cumulative session-DCG never decrease", True)


class TestCriterion04PromptMatrix:
    POLICY = SessionPolicy(max_queries=3, page_size=5,
                           stop_rule=SnippetStopRule("fixed_depth", 5),
                           queries_per_session=3, snippet_max_chars=100)

    def run_captured(self, collection, kind, topic_index=0):
        docs, topics, qrels = collection
        index = build_index(docs)
        backend = CapturingBackend(OpenAllOracle(docs, topics, qrels))
        log = run_session(topics[topic_index], kind, index, qrels,
                          policy=self.POLICY, backend=backend)
        return log, backend, topics[topic_index]

    def test_matrix_over_all_kinds(self, collection):
        docs, topics, qrels = collection
        assert min(len(d.body) for d in docs) > 100  # snippets stay proper slices
        checks = 0
        for kind in UserKind:
            if kind in RANDOM_KINDS:
                continue
            log, backend, topic = self.run_captured(collection, kind)
            full = kind not in (UserKind.TTT, UserKind.CRF_PRIME)
            judged = [it.payload["relevant"] for it in log.interactions
                      if it.kind == JUDGMENT_MADE]
            assert judged, f"{kind.value} made no judgments; matrix not exercised"
            saw_relevant = any(judged)
            saw_irrelevant = not all(judged)
            assert saw_relevant and saw_irrelevant, \
                f"{kind.value} needs both polarities to exercise the matrix"
            want_rel = kind in (UserKind.PRF, UserKind.CRF, UserKind.CRF_PRIME)
            want_irr = kind in (UserKind.NRF, UserKind.CRF, UserKind.CRF_PRIME)
            seen_rel = seen_irr = False
            for request in backend.requests:
                prompt = request.prompt_text()
                if request.tag == "summarization":
                    continue  # summaries are the payload there, not context
                assert topic.title in prompt, kind
                assert (topic.description in prompt) is full, kind
                assert (topic.narrative in prompt) is full, kind
                if RELEVANT_MARKER in prompt:
                    assert want_rel, f"{kind.value} leaked a relevant summary"
                    seen_rel = True
                if IRRELEVANT_MARKER in prompt:
                    assert want_irr, f"{kind.value} leaked an irrelevant summary"
                    seen_irr = True
                checks += 3
            assert seen_rel is want_rel, kind
            assert seen_irr is want_irr, kind
        assert checks > 100
        report(4, "topic-context and summary inclusion matrix (6 LLM kinds)", True)

    def test_random_kinds_never_prompt(self, collection):
        docs, topics, qrels = collection
        index = build_index(docs)
        backend = CapturingBackend(ScriptedBackend())
        run_session(topics[0], UserKind.RND, index, qrels, policy=self.POLICY,
                    backend=backend)
        run_session(topics[0], UserKind.RND_STAR, index, qrels, policy=self.POLICY,
                    backend=backend, preset_queries=["beekeeping permits", "hive rules"])
        report(4, "random kinds issue no prompts", len(backend.requests) == 0)

    def test_feedback_prompts_identical_to_fttc_before_first_judgment(self, collection):
        fttc_log, fttc_backend, _ = self.run_captured(collection, UserKind.FTTC)
        first_judgment_calls = 0
        for request in fttc_backend.requests:
            first_judgment_calls += 1
            if request.tag == TAG_RELEVANCE_JUDGMENT:
                break
        fttc_prompts = fttc_backend.prompts()[:first_judgment_calls]
        for kind in (UserKind.PRF, UserKind.NRF, UserKind.CRF):
            _, backend, _ = self.run_captured(collection, kind)
            prompts = backend.prompts()[:first_judgment_calls]
            assert prompts == fttc_prompts, kind
        report(4, "pre-first-judgment feedback prompts byte-identical to FTTC", True)


def test_criterion_05_pipeline_determinism(tmp_path, collection):
    from searchsim.cli import main

    config = {
        "collection": {"name": "fixture",
                       "corpus": str(fixture_path("corpus.trectext")),
                       "format": "trectext",
                       "topics": str(fixture_path("topics.txt")),
                       "qrels": str(fixture_path("qrels.txt"))},
        "index": {"stopwords": False, "stem": False, "k1": 1.2, "b": 0.75},
        "users": ["RND", "RND_STAR", "TTT", "FTTC", "PRF", "NRF", "CRF", "CRF_PRIME"],
        "session": {"max_queries": 3, "page_size": 5, "max_pages_per_query": 1,
                    "stop_rule": {"kind": "fixed_depth", "value": 5},
                    "queries_per_session": 3},
        "costs": {"query": 10.0, "snippet": 3.0, "document": 20.0, "judgment": 5.0},
        "llm": {"backend": "scripted"},
        "campaign_seed": 0,
        "anomaly_threshold": 0,
    }
    config_file = tmp_path / "campaign.json"
    config_file.write_text(json.dumps(config), encoding="utf-8")

    def run_once(name):
        out = tmp_path / name
        assert main(["index", "--config", str(config_file), "--out", str(out)]) == 0
        assert main(["simulate", "--config", str(config_file), "--out", str(out)]) == 0
        assert main(["evaluate", "--logs", str(out / "logs"),
                     "--out", str(out / "eval")]) == 0
        return {p.relative_to(out).as_posix(): p.read_bytes()
                for p in sorted(out.rglob("*"))
                if p.is_file() and p.suffix in (".jsonl", ".csv")}

    started = time.monotonic()
    first = run_once("run1")
    second = run_once("run2")
    elapsed = time.monotonic() - started
    identical = first == second and len(first) > 30
    report(5, "index/simulate/evaluate twice gives byte-identical logs and CSVs",
           identical and elapsed < 60.0, f"(took {elapsed:.2f}s, {len(first)} files)")


def test_criterion_06_random_baseline_statistics():
    rng = random.Random(0)
    draws = 10_000
    trues = sum(decide_relevance_random(rng, 0.5) for _ in range(draws))
    bernoulli_ok = abs(trues / draws - 0.5) <= 0.015

    topic = Topic(topic_id="V", title="apple banana cherry damson elder",
                  description="fig grape honeydew kiwi lime")
    counts: dict[str, int] = {}
    anomalies: list[str] = []
    rng = random.Random(1)
    for _ in range(draws):
        for term in generate_query_naive(topic, rng, on_anomaly=anomalies.append).split():
            counts[term] = counts.get(term, 0) + 1
    vocabulary = sorted(set(tokenize(topic.all_text())))
    inclusion_ok = (len(vocabulary) == 10 and len(counts) == 10 and not anomalies
                    and all(abs(c / draws - 0.3) <= 0.03 for c in counts.values()))
    report(6, "Bernoulli(0.5) and three-term sampling statistics",
           bernoulli_ok and inclusion_ok,
           f"(true fraction {trues / draws:.4f})")


def test_criterion_07_rnd_star_reuses_fttc_queries(collection):
    docs, topics, qrels = collection
    index = build_index(docs)
    policy = SessionPolicy(max_queries=3, page_size=5,
                           stop_rule=SnippetStopRule("fixed_depth", 5),
                           queries_per_session=3)
    logs = run_campaign(topics, [UserKind.FTTC, UserKind.RND_STAR], index, qrels,
                        policy=policy, backend=ScriptedBackend(),
                        campaign_seed=0)
    by_key = {(log.topic_id, log.user_kind): log for log in logs}
    queries_equal = all(
        by_key[(t.topic_id, UserKind.RND_STAR)].queries_issued
        == by_key[(t.topic_id, UserKind.FTTC)].queries_issued
        for t in topics)

    def judgment_sequence(log):
        return [(it.payload["doc_id"], it.payload["relevant"])
                for it in log.interactions if it.kind == JUDGMENT_MADE]

    fttc_judgments = [judgment_sequence(by_key[(t.topic_id, UserKind.FTTC)])
                      for t in topics]
    star_judgments = [judgment_sequence(by_key[(t.topic_id, UserKind.RND_STAR)])
                      for t in topics]
    report(7, "RND* replays FTTC's queries while judging differently",
           queries_equal and fttc_judgments != star_judgments)


# Inputs pinned by the release checklist for the BM25 toy case.
_BM25_TOY = dict(tf=1, df=1, doc_len=10, avg_doc_len=10.0, n_docs=2, k1=1.2, b=0.75)
_PINNED_TOY_SCORE = 0.9029  # inconsistent with the formula; ln 2 is the true value


def test_criterion_08a_bm25_hand_value_as_pinned():
    score = bm25_score(**_BM25_TOY)
    detail = (f"(formula gives ln((2-1+0.5)/(1+0.5)+1) = ln 2 = {score:.6f}; "
              f"the pinned 0.9029 equals ln(2.2/1.5+1), which substitutes "
              f"k1+1 for n_docs-df+0.5 and matches no BM25 variant)")
    report(8, "BM25 toy score equals the pinned 0.9029 within 1e-4",
           abs(score - _PINNED_TOY_SCORE) <= 1e-4, detail)


def test_criterion_08b_bm25_formula_and_ranking_equivalence():
    score = bm25_score(**_BM25_TOY)
    hand_ok = abs(score - math.log(2.0)) <= 1e-12

    from test_index import brute_force_search, random_corpus
    rng = random.Random(1008)
    for _ in range(60):
        docs, words = random_corpus(rng, max_docs=50)
        index = build_index(docs)
        query = " ".join(rng.choice(words) for _ in range(rng.randrange(1, 6)))
        expected = brute_force_search(docs, query)
        got = search(index, query, 1, max(1, len(docs)))
        assert [r[1] for r in got.results] == [d for d, _ in expected]
        for (_, _, s), (_, es) in zip(got.results, expected):
            assert abs(s - es) <= 1e-9
    report(8, "BM25 hand evaluation of the stated formula and "
              "brute-force ranking equivalence", hand_ok)


def test_criterion_09_feedback_user_beats_random_mean(collection):
    docs, topics, qrels = collection
    index = build_index(docs)
    policy = SessionPolicy(max_queries=5, page_size=5,
                           stop_rule=SnippetStopRule("fixed_depth", 5),
                           queries_per_session=5, snippet_max_chars=100)
    oracle = OpenAllOracle(docs, topics, qrels)

    def final_effect(log):
        return information_gain_curve(log).final_effect

    feedback_total = sum(
        final_effect(run_session(topic, UserKind.CRF, index, qrels, policy=policy,
                                 backend=oracle))
        for topic in topics)

    random_totals = []
    for seed in range(20):
        random_totals.append(sum(
            final_effect(run_session(topic, UserKind.RND, index, qrels,
                                     policy=policy, rng_seed=seed))
            for topic in topics))
    random_mean = sum(random_totals) / len(random_totals)
    report(9, "feedback user's final effect >= mean RND final effect over 20 seeds",
           feedback_total >= random_mean,
           f"(feedback {feedback_total:.1f} vs RND mean {random_mean:.2f})")


def test_criterion_10_unjudged_accounting(collection):
    docs, topics, qrels = collection
    unjudged_doc = next(d for d in docs if d.doc_id == "FIX-801-011")
    assert qrels.grade("801", unjudged_doc.doc_id) is None
    index = build_index([unjudged_doc])
    backend = ScriptedBackend({
        "Would this text be useful": "Yes",
        "Output only the numbered queries": "1. apiary permit workshops",
        "Output only the summary": "workshops on permits",
    })
    log = run_session(topics[0], UserKind.FTTC, index, qrels,
                      policy=SessionPolicy(max_queries=1, page_size=5,
                                           queries_per_session=1),
                      backend=backend)
    judgments = [it for it in log.interactions if it.kind == JUDGMENT_MADE]
    curve = information_gain_curve(log)
    report(10, "relevant judgment of an unjudged document adds 0 effect and "
               "counts once",
           len(judgments) == 1 and judgments[0].payload["relevant"] is True
           and judgments[0].payload["grade"] is None
           and curve.final_effect == 0.0
           and curve.unjudged_relevant_count == 1)
