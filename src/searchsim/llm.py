"""Chat-completion backends: a live HTTP client and a deterministic scripted stand-in,
plus ``ReplyMemo``, which a campaign's sessions share to ask each temperature-0
question once and to bound the requests in flight.

The scripted backend is a pure function of (messages, seed): it first tries a
reply table (keys matched as substrings of the rendered prompt), then falls
back to a hash-driven synthesizer shaped by the request tag.
"""
from __future__ import annotations

import hashlib
import http.client
import json
import logging
import os
import re
import ssl
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

from .index import ENGLISH_STOPWORDS

logger = logging.getLogger(__name__)

ROLES = ("system", "user", "assistant")

# Request tags: routing hints for scripted backends, never sent over the wire.
TAG_QUERY_GENERATION = "query_generation"
TAG_FOLLOWUP_QUERY = "followup_query"
TAG_RELEVANCE_JUDGMENT = "relevance_judgment"
TAG_SUMMARIZATION = "summarization"


class BackendError(RuntimeError):
    """Transport failure after retries, or a malformed completion body."""


class RequestRefused(BackendError):
    """A request not sent because its campaign is stopping."""


@dataclass(frozen=True)
class ChatMessage:
    role: str
    content: str

    def __post_init__(self):
        if self.role not in ROLES:
            raise ValueError(f"unknown role {self.role!r}")


@dataclass(frozen=True)
class ChatRequest:
    messages: tuple[ChatMessage, ...]
    temperature: float = 0.0
    seed: int = 0
    tag: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "messages", tuple(self.messages))
        if not self.messages:
            raise ValueError("a request needs at least one message")
        if not 0.0 <= self.temperature <= 2.0:
            raise ValueError("temperature must be in [0, 2]")

    def prompt_text(self) -> str:
        return "\n".join(m.content for m in self.messages)


@dataclass
class ChatResponse:
    text: str
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class BackendConfig:
    """Settings of the HTTP client, fixed for a campaign and checked when built."""

    endpoint: str | None = None
    model: str | None = None
    api_key_env: str = "SEARCHSIM_API_KEY"
    timeout: float = 60.0
    retries: int = 2
    max_tokens: int | None = None  # sent with every request when set

    def __post_init__(self):
        optional_str = (str, type(None))
        for name, kind in (("endpoint", optional_str), ("model", optional_str),
                           ("api_key_env", str)):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise ValueError(f"{name} must be a string, not {type(value).__name__}")
        # a socket refuses a longer timeout, but only when a request is sent
        if not 0 < self.timeout <= threading.TIMEOUT_MAX:
            raise ValueError(f"timeout must be in (0, {threading.TIMEOUT_MAX:.0f}] seconds, "
                             f"got {self.timeout!r}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries!r}")
        if self.max_tokens is not None and (isinstance(self.max_tokens, bool)
                                            or not isinstance(self.max_tokens, int)
                                            or self.max_tokens < 1):
            raise ValueError(f"max_tokens must be an integer >= 1 or null, "
                             f"got {self.max_tokens!r}")


def default_params(task: str) -> tuple[float, int]:
    """(temperature, seed) per task: creative query generation at 1.0, fully
    context-driven judgments and summaries at 0, fixed seed 0 throughout."""
    table = {
        TAG_QUERY_GENERATION: (1.0, 0),
        TAG_FOLLOWUP_QUERY: (1.0, 0),
        TAG_RELEVANCE_JUDGMENT: (0.0, 0),
        TAG_SUMMARIZATION: (0.0, 0),
    }
    if task not in table:
        raise ValueError(f"unknown task {task!r}")
    return table[task]


# what a failed attempt can raise short of an HTTP status: a refused or reset
# connection or a timeout (OSError, URLError), an unparsable status line
# (HTTPException, which is not an OSError), or a malformed URL (ValueError)
_TRANSPORT_ERRORS = (OSError, http.client.HTTPException, ValueError)


class _RefuseRedirects(urllib.request.HTTPRedirectHandler):
    """Turns every 3xx into an ``HTTPError`` rather than following it, so a
    request, and its ``Authorization`` header, never leaves the endpoint."""

    def redirect_request(self, req, fp, code, msg, headers, newurl):
        return None


class HttpBackend:
    """Client for an OpenAI-style chat-completions endpoint.

    Each attempt is one POST on a new connection (urllib sends ``Connection:
    close``) through an opener built once per backend, so the ``*_proxy``
    variables are read when the backend is built (with a proxy set, urllib
    checks ``no_proxy`` on each request). A redirect is never followed. An
    ``https`` endpoint also gets one TLS context, verifying against the
    system CA store, since building a context reads the whole store.
    """

    def __init__(self, config: BackendConfig):
        self.config = config
        handlers = []
        if (config.endpoint or "").lower().startswith("https:"):
            context = ssl.create_default_context()
            context.set_alpn_protocols(["http/1.1"])  # as http.client sets on its own
            handlers.append(urllib.request.HTTPSHandler(context=context))
        self._opener = urllib.request.build_opener(_RefuseRedirects, *handlers)

    def complete(self, request: ChatRequest) -> ChatResponse:
        payload: dict = {
            "model": self.config.model,
            "messages": [{"role": m.role, "content": m.content} for m in request.messages],
            "temperature": request.temperature,
            "seed": request.seed,
            "n": 1,
        }
        if self.config.max_tokens is not None:
            payload["max_tokens"] = self.config.max_tokens
        body = json.dumps(payload, allow_nan=False).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(self.config.api_key_env, "")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"

        last_error: str = ""
        attempts = self.config.retries + 1
        started = time.monotonic()
        for attempt in range(attempts):
            if attempt:
                time.sleep(min(0.2 * 2 ** (attempt - 1), 2.0))
            try:
                http_request = urllib.request.Request(self.config.endpoint, data=body,
                                                      headers=headers, method="POST")
                with self._opener.open(http_request, timeout=self.config.timeout) as resp:
                    raw = resp.read()
            except urllib.error.HTTPError as exc:
                with exc:
                    if exc.code < 500:
                        try:
                            detail = exc.read().decode("utf-8", "replace")[:200]
                        except _TRANSPORT_ERRORS:
                            detail = ""
                        raise BackendError(f"endpoint rejected request: HTTP {exc.code} "
                                           f"{detail}") from None
                last_error = f"HTTP {exc.code}"
                logger.warning("chat request attempt %d/%d got %s", attempt + 1, attempts, last_error)
                continue
            except _TRANSPORT_ERRORS as exc:
                last_error = str(exc)
                logger.warning("chat request attempt %d/%d failed: %s", attempt + 1, attempts, exc)
                continue
            try:
                data = json.loads(raw)
                text = data["choices"][0]["message"]["content"]
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                raise BackendError(f"malformed completion body: {exc}") from exc
            meta = {"model": data.get("model", self.config.model),
                    "usage": data.get("usage", {}),
                    "latency_s": time.monotonic() - started}
            return ChatResponse(text="" if text is None else str(text), meta=meta)
        raise BackendError(f"transport failure after {attempts} attempts: {last_error}")


def probe_endpoint(config: BackendConfig) -> bool:
    """Cheap reachability check: does the endpoint answer a HEAD with any status?
    A redirect counts as an answer and is not followed."""
    try:
        with urllib.request.build_opener(_RefuseRedirects).open(
                urllib.request.Request(config.endpoint, method="HEAD"), timeout=config.timeout):
            pass
    except urllib.error.HTTPError as exc:
        exc.close()  # an error status is still an answer
    except _TRANSPORT_ERRORS:
        return False
    return True


class _InFlight:
    """A request its first caller has sent; ``response`` stays None if it fails."""

    def __init__(self):
        self.done = threading.Event()
        self.response: ChatResponse | None = None


class ReplyMemo:
    """Wraps a backend and asks it each temperature-0 question once.

    Judgments and summaries run at temperature 0 with a fixed seed, so the
    first reply serves every identical request; a request at any other
    temperature is always forwarded. A request that arrives while the same
    one is in flight waits for that reply instead of sending its own, so each
    question reaches the backend once however the callers interleave. A
    failure is never kept: its waiters and every later caller send their own.

    At most ``slots`` requests are forwarded at once. A forwarded request
    holds its slot only while the inner backend answers, never while it waits
    for another caller's reply. A request that would be forwarded once
    ``stop`` is set is refused with ``RequestRefused``; a forwarded request
    that fails other than with a ``BackendError`` sets ``stop`` before it
    gives its slot back.
    """

    def __init__(self, inner, slots: int, stop: threading.Event):
        self.inner = inner
        self._slots = threading.BoundedSemaphore(slots)
        self._stop = stop
        self._lock = threading.Lock()
        self._replies: dict[bytes, ChatResponse | _InFlight] = {}

    def _forward(self, request: ChatRequest) -> ChatResponse:
        with self._slots:
            if self._stop.is_set():
                raise RequestRefused("not sent: the campaign is stopping")
            try:
                return self.inner.complete(request)
            except BackendError:
                raise
            except BaseException:
                self._stop.set()  # before the slot is given back: no request starts unseen
                raise

    @staticmethod
    def _key(request: ChatRequest) -> bytes:
        # a digest, so memory does not grow with the prompts' length
        material = [request.tag, request.temperature, request.seed,
                    [[m.role, m.content] for m in request.messages]]
        return hashlib.sha256(json.dumps(material).encode("ascii")).digest()

    def complete(self, request: ChatRequest) -> ChatResponse:
        if request.temperature != 0:
            return self._forward(request)
        key = self._key(request)
        with self._lock:
            entry = self._replies.get(key)
            if entry is None:
                flight = self._replies[key] = _InFlight()
        if entry is None:
            try:
                flight.response = self._forward(request)
            except BaseException:
                with self._lock:
                    del self._replies[key]
                raise
            else:
                with self._lock:  # only the reply is kept; waiters hold the flight
                    self._replies[key] = flight.response
            finally:
                flight.done.set()
            return flight.response
        if isinstance(entry, _InFlight):
            entry.done.wait()
            entry = entry.response
        return entry if entry is not None else self._forward(request)


# --- scripted backend ----------------------------------------------------------

_WORD_RE = re.compile(r"[a-z]{4,}")


class ScriptedBackend:
    """Deterministic stand-in for a live endpoint.

    Reply-table keys are matched as substrings of the rendered prompt (longest
    key first); without a match, a reply is synthesized from a SHA-256 digest
    of (seed, tag, prompt), so identical requests always produce identical
    text, in any process.
    """

    def __init__(self, replies: dict[str, str] | None = None):
        self.replies = dict(replies or {})
        self._key_order = sorted(self.replies, key=lambda k: (-len(k), k))

    def complete(self, request: ChatRequest) -> ChatResponse:
        prompt = request.prompt_text()
        for key in self._key_order:
            if key and key in prompt:
                return ChatResponse(self.replies[key],
                                    {"backend": "scripted", "matched_key": key})
        return ChatResponse(self._synthesize(request, prompt), {"backend": "scripted"})

    @staticmethod
    def _digest(request: ChatRequest, prompt: str) -> bytes:
        material = f"{request.seed}|{request.tag or ''}|{prompt}"
        return hashlib.sha256(material.encode("utf-8")).digest()

    @staticmethod
    def _pick(pool: list[str], digest: bytes, slot: int) -> str:
        value = int.from_bytes(digest[(2 * slot) % 30:(2 * slot) % 30 + 2], "big")
        return pool[value % len(pool)]

    def _term_pool(self, prompt: str) -> list[str]:
        terms = sorted({t for t in _WORD_RE.findall(prompt.lower())
                        if t not in ENGLISH_STOPWORDS})
        return terms or ["records"]

    def _synthesize(self, request: ChatRequest, prompt: str) -> str:
        digest = self._digest(request, prompt)
        pool = self._term_pool(prompt)
        tag = request.tag
        if tag == TAG_RELEVANCE_JUDGMENT:
            return "Yes" if digest[0] % 2 == 0 else "No"
        if tag == TAG_QUERY_GENERATION:
            lines = []
            seen: set[str] = set()
            i = 0
            while len(lines) < 12 and i < 64:
                d = hashlib.sha256(digest + bytes([i]))
                query = self._make_query(pool, d.digest())
                i += 1
                if query in seen:
                    continue
                seen.add(query)
                lines.append(f"{len(lines) + 1}. {query}")
            return "\n".join(lines)
        if tag == TAG_FOLLOWUP_QUERY:
            return self._make_query(pool, digest)
        if tag == TAG_SUMMARIZATION:
            picks = []
            for slot in range(6):
                term = self._pick(pool, digest, slot)
                if term not in picks:
                    picks.append(term)
            return ("The collected material repeatedly covers "
                    + ", ".join(picks[:-1]) + " and " + picks[-1] + ".")
        return f"ok {digest[:4].hex()}"

    def _make_query(self, pool: list[str], digest: bytes) -> str:
        n = 2 + digest[1] % 2
        terms = []
        for slot in range(n):
            term = self._pick(pool, digest, slot)
            if term not in terms:
                terms.append(term)
        return " ".join(terms)


def load_reply_table(path: str | Path) -> dict[str, str]:
    """Read a plain-text reply table: one ``key<TAB>value`` pair per line.

    Blank lines and ``#`` comments are ignored; ``\\n`` escapes in the value
    are decoded so replies can span lines.
    """
    replies: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if "\t" not in line:
            raise ValueError(f"reply table line {lineno} has no tab separator")
        key, value = line.split("\t", 1)
        replies[key] = value.replace("\\n", "\n")
    return replies
