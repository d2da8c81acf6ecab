from __future__ import annotations

from searchsim.agents import UserKind, build_judge_prompt
from searchsim.index import build_index, make_snippet
from searchsim.llm import (
    TAG_FOLLOWUP_QUERY,
    TAG_QUERY_GENERATION,
    TAG_RELEVANCE_JUDGMENT,
    ChatMessage,
    ChatRequest,
    ScriptedBackend,
)
from backends import CapturingBackend, QrelsOracleBackend, llm_user


class TestCapturingBackend:
    def test_records_and_delegates(self):
        inner = ScriptedBackend({"PING": "pong"})
        backend = CapturingBackend(inner)
        request = ChatRequest((ChatMessage("user", "PING me"),), tag="t1")
        assert backend.complete(request).text == "pong"
        assert backend.requests == [request]
        assert backend.prompts() == ["PING me"]
        assert backend.prompts("t1") == ["PING me"]
        assert backend.prompts("other") == []


class TestQrelsOracleBackend:
    def make_oracle(self, fixture_collection):
        docs, topics, qrels = fixture_collection
        return QrelsOracleBackend(docs, topics, qrels), docs, topics, qrels

    def judge_request(self, topic, text):
        messages = build_judge_prompt(llm_user(UserKind.FTTC, topic), text)
        return ChatRequest(messages, tag=TAG_RELEVANCE_JUDGMENT)

    def test_judges_full_text_from_qrels(self, fixture_collection):
        oracle, docs, topics, qrels = self.make_oracle(fixture_collection)
        topic = topics[0]
        relevant = next(d for d in docs if qrels.grade(topic.topic_id, d.doc_id) == 2)
        graded_zero = next(d for d in docs if qrels.grade(topic.topic_id, d.doc_id) == 0)
        unjudged = next(d for d in docs if d.doc_id == "FIX-801-011")
        assert oracle.complete(self.judge_request(topic, relevant.full_text())).text == "Yes"
        assert oracle.complete(self.judge_request(topic, graded_zero.full_text())).text == "No"
        assert oracle.complete(self.judge_request(topic, unjudged.full_text())).text == "No"

    def test_judges_snippet_slices_of_known_bodies(self, fixture_collection):
        oracle, docs, topics, qrels = self.make_oracle(fixture_collection)
        topic = topics[1]
        relevant = next(d for d in docs if qrels.grade(topic.topic_id, d.doc_id) == 2)
        snippet = make_snippet(relevant, topic.title, 100)
        assert len(snippet) < len(relevant.body)
        assert oracle.complete(self.judge_request(topic, snippet)).text == "Yes"

    def test_unknown_document_is_not_relevant(self, fixture_collection):
        oracle, _, topics, _ = self.make_oracle(fixture_collection)
        reply = oracle.complete(self.judge_request(
            topics[0], "a text the collection has never seen, long enough to match"))
        assert reply.text == "No"

    def test_queries_come_from_the_detected_topic(self, fixture_collection):
        oracle, _, topics, _ = self.make_oracle(fixture_collection)
        topic = topics[2]
        prompt = (f"Title: {topic.title}\nDescription: {topic.description}\n"
                  "Write some queries.")
        request = ChatRequest((ChatMessage("user", prompt),), tag=TAG_QUERY_GENERATION)
        lines = oracle.complete(request).text.splitlines()
        assert len(lines) >= 5
        vocabulary = set(topic.all_text().lower().replace(",", " ")
                         .replace(".", " ").split())
        for line in lines:
            query = line.split(". ", 1)[1]
            for term in query.split():
                assert term in vocabulary

    def test_followup_is_deterministic(self, fixture_collection):
        oracle, _, topics, _ = self.make_oracle(fixture_collection)
        prompt = f"Title: {topics[0].title}\nGive one more query."
        request = ChatRequest((ChatMessage("user", prompt),), tag=TAG_FOLLOWUP_QUERY)
        assert oracle.complete(request).text == oracle.complete(request).text

    def test_retrieval_hits_fixture_docs(self, fixture_collection):
        docs, topics, qrels = fixture_collection
        oracle = QrelsOracleBackend(docs, topics, qrels)
        index = build_index(docs)
        prompt = f"Title: {topics[0].title}\nWrite queries."
        request = ChatRequest((ChatMessage("user", prompt),), tag=TAG_QUERY_GENERATION)
        first_query = oracle.complete(request).text.splitlines()[0].split(". ", 1)[1]
        from searchsim.index import search
        serp = search(index, first_query, 1, 5)
        assert serp.results, first_query
