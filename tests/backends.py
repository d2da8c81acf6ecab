"""Deterministic backends for the tests, and LLM users over them.

CapturingBackend records every request it forwards, which makes prompt
content assertable. SlowBackend answers late, counting its calls and the
most it answered at once. QrelsOracleBackend answers relevance prompts
straight from the qrels (recognizing the document by a line of its body
text) and writes queries from the detected topic's own vocabulary, so
simulated users driven by it behave like well-informed searchers on a known
collection.
"""
from __future__ import annotations

import hashlib
import threading
import time

from searchsim.agents import KnowledgeState, LLMUser, UserKind, default_templates
from searchsim.corpus import Document, QrelSet, Topic
from searchsim.index import ENGLISH_STOPWORDS, tokenize
from searchsim.llm import (
    TAG_FOLLOWUP_QUERY,
    TAG_QUERY_GENERATION,
    TAG_RELEVANCE_JUDGMENT,
    BackendError,
    ChatRequest,
    ChatResponse,
    ScriptedBackend,
)


def llm_user(kind: UserKind, topic: Topic, backend=None, *, state: KnowledgeState | None = None,
             templates=None, on_anomaly=None) -> LLMUser:
    """An ``LLMUser`` on the scripted backend, the shipped templates and a
    fresh knowledge state, dropping anomalies, unless told otherwise."""
    return LLMUser(kind, topic, backend or ScriptedBackend(), templates or default_templates(),
                   on_anomaly or (lambda message: None), state or KnowledgeState())


class CapturingBackend:
    """Wraps another backend and keeps every request for later inspection."""

    def __init__(self, inner):
        self.inner = inner
        self.requests: list[ChatRequest] = []

    def complete(self, request: ChatRequest) -> ChatResponse:
        self.requests.append(request)
        return self.inner.complete(request)

    def prompts(self, tag: str | None = None) -> list[str]:
        return [r.prompt_text() for r in self.requests if tag is None or r.tag == tag]


class SlowBackend:
    """Answers as the scripted backend does after ``delay`` seconds, counting
    its calls and the most it answered at once; the calls numbered in
    ``fail_on`` raise ``BackendError``."""

    def __init__(self, delay=0.0, fail_on=()):
        self.delay = delay
        self.fail_on = set(fail_on)
        self.calls = self.most = self._active = 0
        self._lock = threading.Lock()

    def complete(self, request):
        with self._lock:
            self.calls += 1
            call = self.calls
            self._active += 1
            self.most = max(self.most, self._active)
        time.sleep(self.delay)
        with self._lock:
            self._active -= 1
        if call in self.fail_on:
            raise BackendError(f"outage on call {call}")
        return ScriptedBackend().complete(request)


class QrelsOracleBackend:
    """Judges from the qrels; generates queries from the topic's vocabulary.

    Pure function of the request text, so sessions stay reproducible. The
    judged document is identified by locating a prompt line inside a known
    document body (snippets are contiguous body slices, so this covers both
    snippet and full-text judgments).
    """

    def __init__(self, documents: list[Document], topics: list[Topic], qrels: QrelSet,
                 min_match_chars: int = 25):
        self.documents = list(documents)
        self.topics = list(topics)
        self.qrels = qrels
        self.min_match_chars = min_match_chars
        self._fallback = ScriptedBackend()

    def _find_document(self, prompt: str) -> Document | None:
        for line in prompt.splitlines():
            candidate = line.strip().rstrip("…").strip()
            if len(candidate) < self.min_match_chars:
                continue
            for doc in self.documents:
                if candidate in doc.body or candidate in doc.full_text():
                    return doc
        return None

    def _find_topic(self, prompt: str) -> Topic | None:
        for topic in self.topics:
            if topic.title and topic.title in prompt:
                return topic
        return None

    def _topic_query(self, topic: Topic, digest: bytes, n_terms: int) -> str:
        pool = sorted({t for t in tokenize(topic.all_text())
                       if t not in ENGLISH_STOPWORDS and len(t) >= 3})
        if not pool:
            pool = sorted(set(tokenize(topic.title)))
        terms: list[str] = []
        slot = 0
        while len(terms) < min(n_terms, len(pool)) and slot < 32:
            value = int.from_bytes(digest[(2 * slot) % 30:(2 * slot) % 30 + 2], "big")
            term = pool[value % len(pool)]
            slot += 1
            if term not in terms:
                terms.append(term)
        return " ".join(terms)

    def complete(self, request: ChatRequest) -> ChatResponse:
        prompt = request.prompt_text()
        digest = hashlib.sha256(f"{request.seed}|{request.tag}|{prompt}".encode()).digest()
        if request.tag == TAG_RELEVANCE_JUDGMENT:
            doc = self._find_document(prompt)
            topic = self._find_topic(prompt)
            if doc is not None and topic is not None:
                grade = self.qrels.grade(topic.topic_id, doc.doc_id)
                return ChatResponse("Yes" if grade is not None and grade > 0 else "No",
                                    {"backend": "oracle"})
            return ChatResponse("No", {"backend": "oracle"})
        topic = self._find_topic(prompt)
        if topic is not None and request.tag == TAG_QUERY_GENERATION:
            lines = []
            for i in range(12):
                d = hashlib.sha256(digest + bytes([i])).digest()
                query = self._topic_query(topic, d, 2 + d[1] % 2)
                if query and query not in [l.split(". ", 1)[1] for l in lines]:
                    lines.append(f"{len(lines) + 1}. {query}")
            return ChatResponse("\n".join(lines), {"backend": "oracle"})
        if topic is not None and request.tag == TAG_FOLLOWUP_QUERY:
            return ChatResponse(self._topic_query(topic, digest, 2 + digest[1] % 2),
                                {"backend": "oracle"})
        return self._fallback.complete(request)
