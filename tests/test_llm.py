from __future__ import annotations

import json
import math
import os
import random
import socket
import ssl
import sys
import threading
import time
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from searchsim.llm import (
    TAG_FOLLOWUP_QUERY,
    TAG_QUERY_GENERATION,
    TAG_RELEVANCE_JUDGMENT,
    TAG_SUMMARIZATION,
    BackendConfig,
    BackendError,
    ChatMessage,
    ChatRequest,
    HttpBackend,
    ReplyMemo,
    RequestRefused,
    ScriptedBackend,
    default_params,
    load_reply_table,
    probe_endpoint,
)
from backends import CapturingBackend, SlowBackend


def request_of(text, tag=None, seed=0, temperature=0.0):
    return ChatRequest((ChatMessage("user", text),), temperature=temperature,
                       seed=seed, tag=tag)


class TestChatTypes:
    def test_request_needs_messages(self):
        with pytest.raises(ValueError):
            ChatRequest(())

    def test_temperature_bounds(self):
        with pytest.raises(ValueError):
            request_of("x", temperature=2.5)
        request_of("x", temperature=2.0)

    def test_unknown_role_rejected(self):
        with pytest.raises(ValueError):
            ChatMessage("tool", "x")

    def test_backend_config_validation(self):
        with pytest.raises(ValueError):
            BackendConfig(endpoint="http://x", model="m", timeout=0)
        with pytest.raises(ValueError):
            BackendConfig(endpoint="http://x", model="m", retries=-1)


class TestDefaultParams:
    def test_query_generation_temperature(self):
        assert default_params("query_generation") == (1.0, 0)

    def test_relevance_judgment_temperature(self):
        assert default_params("relevance_judgment") == (0.0, 0)

    def test_summarization_temperature_and_seeds(self):
        assert default_params("summarization") == (0.0, 0)
        for task in ("query_generation", "relevance_judgment", "summarization"):
            assert default_params(task)[1] == 0

    def test_unknown_task(self):
        with pytest.raises(ValueError):
            default_params("poetry")


class TestScriptedBackend:
    def test_same_request_twice_identical(self):
        backend = ScriptedBackend()
        req = request_of("judge this snippet", tag=TAG_RELEVANCE_JUDGMENT)
        assert backend.complete(req).text == backend.complete(req).text

    def test_pure_across_instances(self):
        req = request_of("anything at all", tag=TAG_SUMMARIZATION)
        assert ScriptedBackend().complete(req).text == ScriptedBackend().complete(req).text

    def test_reply_table_key_matched_in_prompt(self):
        backend = ScriptedBackend({"QUERY_GEN_1": "tax evasion prosecutions"})
        reply = backend.complete(request_of("please handle QUERY_GEN_1 now"))
        assert reply.text == "tax evasion prosecutions"

    def test_longest_key_wins(self):
        backend = ScriptedBackend({"MARK": "short", "MARK_LONG": "long"})
        assert backend.complete(request_of("x MARK_LONG x")).text == "long"

    def test_seed_changes_synthesized_reply(self):
        prompt = ("offshore turbine permits fisheries coastal review harbor "
                  "substation auction seabed survey")
        a = ScriptedBackend().complete(request_of(prompt, tag=TAG_FOLLOWUP_QUERY, seed=0))
        b = ScriptedBackend().complete(request_of(prompt, tag=TAG_FOLLOWUP_QUERY, seed=1))
        assert a.text != b.text

    def test_judgment_shape(self):
        reply = ScriptedBackend().complete(
            request_of("decide about this", tag=TAG_RELEVANCE_JUDGMENT))
        assert reply.text in ("Yes", "No")

    def test_query_generation_shape(self):
        reply = ScriptedBackend().complete(
            request_of("make queries about offshore wind turbines", tag=TAG_QUERY_GENERATION))
        lines = reply.text.splitlines()
        assert len(lines) >= 10
        assert lines[0].startswith("1. ")
        assert len(set(lines)) == len(lines)

    def test_frozen_value_for_regression(self):
        # frozen output guards against accidental synthesizer drift
        reply = ScriptedBackend().complete(request_of("fixed prompt", tag=None, seed=0))
        assert reply.text == ScriptedBackend().complete(
            request_of("fixed prompt", tag=None, seed=0)).text
        assert reply.text.startswith("ok ")


class TestReplyTableFile:
    def test_load_and_use(self, tmp_path):
        path = tmp_path / "replies.tsv"
        path.write_text("# comment\nKEY_A\tfirst reply\nKEY_B\tline one\\nline two\n",
                        encoding="utf-8")
        table = load_reply_table(path)
        assert table == {"KEY_A": "first reply", "KEY_B": "line one\nline two"}
        backend = ScriptedBackend(table)
        assert backend.complete(request_of("xx KEY_B yy")).text == "line one\nline two"

    def test_missing_tab_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("no separator here\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_reply_table(path)


def ask_together(backend, request, callers=2):
    """Each caller's reply text, or the BackendError it got; all start at once."""
    barrier = threading.Barrier(callers)
    results = [None] * callers

    def ask(i):
        barrier.wait(timeout=5)
        try:
            results[i] = backend.complete(request).text
        except BackendError as exc:
            results[i] = exc

    threads = [threading.Thread(target=ask, args=(i,)) for i in range(callers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    return results


def memo_over(inner, slots=1):
    return ReplyMemo(inner, slots=slots, stop=threading.Event())


class TestReplyMemo:
    JUDGE = ChatRequest((ChatMessage("system", "You judge relevance."),
                         ChatMessage("user", "Is this relevant? yes or no")),
                        tag=TAG_RELEVANCE_JUDGMENT)

    def test_a_question_asked_twice_at_once_reaches_the_backend_once(self):
        inner = SlowBackend(delay=0.2)
        texts = ask_together(memo_over(inner), self.JUDGE)
        assert inner.calls == 1
        assert texts == [ScriptedBackend().complete(self.JUDGE).text] * 2

    def test_many_callers_in_any_order_send_each_question_once(self):
        inner = CapturingBackend(ScriptedBackend())
        memo = memo_over(inner)
        requests = [request_of(f"question {i}", tag=TAG_RELEVANCE_JUDGMENT) for i in range(40)]
        expected = [ScriptedBackend().complete(r).text for r in requests]
        answers = {}

        def ask(seed):
            order = random.Random(seed).sample(range(len(requests)), len(requests))
            answers[seed] = {i: memo.complete(requests[i]).text for i in order}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            threads = [threading.Thread(target=ask, args=(seed,)) for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert sorted(r.prompt_text() for r in inner.requests) == sorted(
            r.prompt_text() for r in requests)
        assert all(answers[seed] == dict(enumerate(expected)) for seed in range(8))

    def test_temperature_one_is_always_forwarded(self):
        inner = SlowBackend()
        memo = memo_over(inner)
        hot = replace(self.JUDGE, temperature=1.0, tag=TAG_QUERY_GENERATION)
        memo.complete(hot)
        memo.complete(hot)
        assert inner.calls == 2

    def test_requests_that_differ_in_any_part_are_all_forwarded(self):
        inner = SlowBackend()
        memo = memo_over(inner)
        system, user = self.JUDGE.messages
        requests = [self.JUDGE,
                    replace(self.JUDGE, tag=TAG_SUMMARIZATION),
                    replace(self.JUDGE, seed=1),
                    replace(self.JUDGE, messages=(ChatMessage("user", system.content), user)),
                    replace(self.JUDGE, messages=(system, ChatMessage("user", "Is it? yes"))),
                    replace(self.JUDGE, temperature=0.5)]
        for request in requests + requests:
            memo.complete(request)
        assert inner.calls == len(requests) + 1  # only temperature 0.5 goes again

    def test_a_failure_is_not_remembered(self):
        inner = SlowBackend(delay=0.2, fail_on={1})
        memo = memo_over(inner)
        expected = ScriptedBackend().complete(self.JUDGE).text
        first, waiter = sorted(ask_together(memo, self.JUDGE), key=lambda r: r == expected)
        assert isinstance(first, BackendError) and waiter == expected
        assert inner.calls == 2  # the waiter sent its own request
        assert memo.complete(self.JUDGE).text == expected
        assert inner.calls == 3  # and so did the next caller
        assert memo.complete(self.JUDGE).text == expected
        assert inner.calls == 3  # whose reply is kept

    def test_a_request_waiting_for_another_holds_no_slot(self):
        inner = SlowBackend(delay=0.3)
        memo = memo_over(inner, slots=2)
        first = threading.Thread(target=memo.complete, args=(self.JUDGE,))
        waiter = threading.Thread(target=memo.complete, args=(self.JUDGE,))
        first.start()
        time.sleep(0.05)
        waiter.start()  # waits for the first caller's reply
        time.sleep(0.05)
        memo.complete(request_of("another question", tag=TAG_RELEVANCE_JUDGMENT))
        for thread in (first, waiter):
            thread.join(timeout=10)
        assert inner.calls == 2
        assert inner.most == 2  # the other question took the second slot at once

    def test_slots_bound_the_requests_forwarded_at_once(self):
        inner = SlowBackend(delay=0.02)
        memo = memo_over(inner, slots=2)
        hot = replace(self.JUDGE, temperature=1.0, tag=TAG_QUERY_GENERATION)
        assert ask_together(memo, hot, callers=6) == [ScriptedBackend().complete(hot).text] * 6
        assert (inner.calls, inner.most) == (6, 2)

    def test_once_stopped_a_request_is_refused_unsent_and_a_kept_reply_still_served(self):
        inner = SlowBackend()
        stop = threading.Event()
        memo = ReplyMemo(inner, slots=1, stop=stop)
        kept = memo.complete(self.JUDGE).text
        stop.set()
        with pytest.raises(RequestRefused, match="the campaign is stopping"):
            memo.complete(request_of("another question", tag=TAG_RELEVANCE_JUDGMENT))
        with pytest.raises(RequestRefused):
            memo.complete(replace(self.JUDGE, temperature=1.0))
        assert memo.complete(self.JUDGE).text == kept
        assert inner.calls == 1
        assert issubclass(RequestRefused, BackendError)  # a session ends on it

    def test_a_failure_other_than_a_backend_error_stops(self):
        class Broken:
            def complete(self, request):
                raise RuntimeError("a bug")

        stop = threading.Event()
        memo = ReplyMemo(Broken(), slots=1, stop=stop)
        with pytest.raises(RuntimeError, match="a bug"):
            memo.complete(self.JUDGE)
        assert stop.is_set()
        with pytest.raises(RequestRefused):
            memo.complete(self.JUDGE)

    def test_a_backend_error_does_not_stop(self):
        stop = threading.Event()
        memo = ReplyMemo(SlowBackend(fail_on={1}), slots=1, stop=stop)
        with pytest.raises(BackendError):
            memo.complete(self.JUDGE)
        assert not stop.is_set()
        assert memo.complete(self.JUDGE).text == ScriptedBackend().complete(self.JUDGE).text


class _MockChatHandler(BaseHTTPRequestHandler):
    """Scriptable chat-completions endpoint; per-server behavior queue."""

    behaviors: list[str] = []
    requests_seen: list[dict] = []
    headers_seen: list = []  # the request headers, one message per request
    paths_seen: list[str] = []  # the request targets as sent

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length) or b"{}")
        type(self).requests_seen.append(body)
        type(self).headers_seen.append(self.headers)
        type(self).paths_seen.append(self.path)
        behavior = type(self).behaviors.pop(0) if type(self).behaviors else "ok"
        if self._redirect(behavior):
            return
        if behavior == "500":
            self.send_response(500)
            self.end_headers()
            self.wfile.write(b"server exploded")
            return
        if behavior == "404":
            self.send_response(404)
            self.end_headers()
            self.wfile.write(b"no such model")
            return
        if behavior == "garbage":
            payload = b"{not json"
        else:
            payload = json.dumps({
                "model": "mock-model",
                "choices": [{"message": {"role": "assistant",
                                         "content": "mocked completion text"}}],
                "usage": {"prompt_tokens": 5, "completion_tokens": 3},
            }).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(payload)

    def do_HEAD(self):
        behavior = type(self).behaviors.pop(0) if type(self).behaviors else "ok"
        if not self._redirect(behavior):
            self.send_response(200)
            self.end_headers()

    def do_GET(self):  # only a followed redirect sends one
        type(self).headers_seen.append(self.headers)
        type(self).paths_seen.append(self.path)
        self.send_response(200)
        self.end_headers()

    def _redirect(self, behavior: str) -> bool:
        """Answers a ``"<3xx code> <location>"`` behavior; False for any other."""
        if not behavior.startswith("3"):
            return False
        code, location = behavior.split(" ", 1)
        self.send_response(int(code))
        self.send_header("Location", location)
        self.end_headers()
        return True

    def log_message(self, *args):
        pass


@pytest.fixture
def mock_server():
    _MockChatHandler.behaviors = []
    _MockChatHandler.requests_seen = []
    _MockChatHandler.headers_seen = []
    _MockChatHandler.paths_seen = []
    server = HTTPServer(("127.0.0.1", 0), _MockChatHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions", _MockChatHandler
    server.shutdown()
    thread.join(timeout=5)


class TestHttpBackend:
    def test_text_extracted_from_first_choice(self, mock_server):
        url, handler = mock_server
        backend = HttpBackend(BackendConfig(endpoint=url, model="mock-model", retries=0))
        reply = backend.complete(request_of("hello", tag=TAG_QUERY_GENERATION,
                                            temperature=1.0, seed=0))
        assert reply.text == "mocked completion text"
        assert reply.meta["model"] == "mock-model"
        wire = handler.requests_seen[0]
        assert wire["temperature"] == 1.0
        assert wire["seed"] == 0
        assert wire["n"] == 1
        assert wire["messages"] == [{"role": "user", "content": "hello"}]
        assert "tag" not in wire

    def test_the_longest_timeout_accepted_is_one_a_request_can_use(self, mock_server):
        url, _ = mock_server
        longest = BackendConfig(endpoint=url, model="m", retries=0,
                                timeout=threading.TIMEOUT_MAX)
        assert HttpBackend(longest).complete(request_of("hi")).text == "mocked completion text"
        for timeout in (math.nextafter(threading.TIMEOUT_MAX, math.inf), math.inf, math.nan):
            with pytest.raises(ValueError, match="timeout must be in"):
                replace(longest, timeout=timeout)

    def test_max_tokens_forwarded_when_set(self, mock_server):
        url, handler = mock_server
        for cap in (32, None):
            backend = HttpBackend(BackendConfig(endpoint=url, model="m", retries=0,
                                                max_tokens=cap))
            backend.complete(ChatRequest((ChatMessage("user", "x"),)))
        assert handler.requests_seen[0]["max_tokens"] == 32
        assert "max_tokens" not in handler.requests_seen[1]

    def test_config_level_max_tokens_default(self, mock_server):
        url, handler = mock_server
        backend = HttpBackend(BackendConfig(endpoint=url, model="m", retries=0,
                                            max_tokens=64))
        for tag in (TAG_QUERY_GENERATION, TAG_RELEVANCE_JUDGMENT):
            backend.complete(ChatRequest((ChatMessage("user", "x"),), tag=tag))
        assert [r["max_tokens"] for r in handler.requests_seen] == [64, 64]

    def test_retry_then_success_is_single_completion(self, mock_server):
        url, handler = mock_server
        handler.behaviors = ["500"]
        backend = HttpBackend(BackendConfig(endpoint=url, model="m", retries=2))
        reply = backend.complete(request_of("retry me"))
        assert reply.text == "mocked completion text"
        assert len(handler.requests_seen) == 2

    def test_exhausted_retries_raise(self, mock_server):
        url, handler = mock_server
        handler.behaviors = ["500", "500", "500"]
        backend = HttpBackend(BackendConfig(endpoint=url, model="m", retries=2))
        with pytest.raises(BackendError, match="transport failure"):
            backend.complete(request_of("always failing"))
        assert len(handler.requests_seen) == 3

    def test_client_error_fails_without_retry(self, mock_server):
        url, handler = mock_server
        handler.behaviors = ["404"]
        backend = HttpBackend(BackendConfig(endpoint=url, model="m", retries=3))
        with pytest.raises(BackendError, match="404"):
            backend.complete(request_of("bad request"))
        assert len(handler.requests_seen) == 1

    def test_malformed_body_raises_decode_error(self, mock_server):
        url, handler = mock_server
        handler.behaviors = ["garbage"]
        backend = HttpBackend(BackendConfig(endpoint=url, model="m", retries=0))
        with pytest.raises(BackendError, match="malformed"):
            backend.complete(request_of("x"))

    def test_api_key_header_from_env(self, mock_server, monkeypatch):
        url, handler = mock_server
        monkeypatch.setenv("SEARCHSIM_API_KEY", "sk-test")
        backend = HttpBackend(BackendConfig(endpoint=url, model="m", retries=0))
        backend.complete(request_of("x"))
        assert handler.headers_seen[0]["Authorization"] == "Bearer sk-test"
        assert handler.headers_seen[0]["Content-Type"] == "application/json"
        monkeypatch.delenv("SEARCHSIM_API_KEY")
        backend.complete(request_of("x"))
        assert "Authorization" not in handler.headers_seen[1]

    @pytest.mark.parametrize("code", [301, 302, 303, 307, 308])
    def test_redirect_is_refused_and_the_key_stays_put(self, mock_server, monkeypatch, code):
        url, handler = mock_server
        monkeypatch.setenv("SEARCHSIM_API_KEY", "sk-test")
        # the same server under another host name: a followed redirect would reach it
        elsewhere = url.replace("127.0.0.1", "localhost").replace("/v1/", "/moved/")
        handler.behaviors = [f"{code} {elsewhere}"]
        backend = HttpBackend(BackendConfig(endpoint=url, model="m", retries=2))
        with pytest.raises(BackendError, match=f"endpoint rejected request: HTTP {code}"):
            backend.complete(request_of("x"))
        assert handler.paths_seen == ["/v1/chat/completions"]
        assert len(handler.headers_seen) == 1

    def test_one_request_per_connection_with_the_json_dumps_body(self, mock_server):
        url, handler = mock_server
        backend = HttpBackend(BackendConfig(endpoint=url, model="m", retries=0))
        backend.complete(request_of("caf\u00e9 \u2028"))
        assert handler.headers_seen[0]["Connection"] == "close"
        wire = {"model": "m", "messages": [{"role": "user", "content": "caf\u00e9 \u2028"}],
                "temperature": 0.0, "seed": 0, "n": 1}
        assert int(handler.headers_seen[0]["Content-Length"]) == len(json.dumps(wire))
        assert handler.requests_seen[0] == wire

    def test_unreachable_endpoint(self):
        config = BackendConfig(endpoint="http://127.0.0.1:9/v1/chat/completions",
                               model="m", timeout=0.5, retries=0)
        with pytest.raises(BackendError):
            HttpBackend(config).complete(request_of("x"))
        assert probe_endpoint(config) is False

    def test_probe_reachable(self, mock_server):
        url, _ = mock_server
        assert probe_endpoint(BackendConfig(endpoint=url, model="m", timeout=5)) is True

    def test_probe_counts_a_redirect_as_reachable_without_following_it(self, mock_server):
        url, handler = mock_server
        # nothing listens on port 9: following the redirect would find no server
        handler.behaviors = ["302 http://127.0.0.1:9/v1/chat/completions"]
        assert probe_endpoint(BackendConfig(endpoint=url, model="m", timeout=5)) is True

    def test_probe_counts_an_error_status_as_reachable(self):
        server = HTTPServer(("127.0.0.1", 0), _NoHeadHandler)  # answers HEAD with 501
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            url = f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
            assert probe_endpoint(BackendConfig(endpoint=url, model="m", timeout=5)) is True
        finally:
            server.shutdown()
            thread.join(timeout=5)

    @pytest.mark.parametrize("reply", [b"garbage status line\r\n\r\n", b""],
                             ids=["bad_status_line", "closed_without_reply"])
    def test_broken_reply_is_retried_then_a_transport_failure(self, reply):
        with _RawReplyServer(reply) as server:
            backend = HttpBackend(BackendConfig(endpoint=server.url, model="m", retries=1,
                                                timeout=5))
            with pytest.raises(BackendError, match="transport failure after 2 attempts"):
                backend.complete(request_of("x"))
        assert server.connections == 2

    def test_https_backend_reads_the_ca_store_once(self, monkeypatch):
        loads = []
        original = ssl.SSLContext.load_default_certs
        monkeypatch.setattr(ssl.SSLContext, "load_default_certs",
                            lambda self, *a: loads.append(1) or original(self, *a))
        # nothing listens on port 9: each attempt fails before a handshake
        backend = HttpBackend(BackendConfig(endpoint="https://127.0.0.1:9/v1/chat/completions",
                                            model="m", retries=1, timeout=5))
        with pytest.raises(BackendError, match="transport failure after 2 attempts"):
            backend.complete(request_of("x"))
        assert len(loads) == 1

    def test_malformed_url_is_a_transport_failure(self):
        backend = HttpBackend(BackendConfig(endpoint="not a url", model="m", retries=0))
        with pytest.raises(BackendError, match="transport failure after 1 attempts"):
            backend.complete(request_of("x"))


class TestProxyEnvironment:
    @pytest.fixture
    def proxy_env(self, monkeypatch, mock_server):
        for name in list(os.environ):
            if name.lower().endswith("_proxy"):
                monkeypatch.delenv(name)
        url, handler = mock_server
        monkeypatch.setenv("http_proxy", url.rsplit("/v1/", 1)[0])
        return monkeypatch, handler

    def test_request_goes_through_the_proxy(self, proxy_env):
        _, handler = proxy_env
        # nothing listens on port 9, so only the proxy can answer
        target = "http://127.0.0.1:9/v1/chat/completions"
        backend = HttpBackend(BackendConfig(endpoint=target, model="m", retries=0))
        assert backend.complete(request_of("x")).text == "mocked completion text"
        assert handler.paths_seen == [target]  # the absolute-form target a proxy receives

    def test_no_proxy_host_is_reached_directly(self, proxy_env, mock_server):
        monkeypatch, handler = proxy_env
        monkeypatch.setenv("no_proxy", "127.0.0.1")
        url, _ = mock_server
        HttpBackend(BackendConfig(endpoint=url, model="m", retries=0)).complete(request_of("x"))
        assert handler.paths_seen == ["/v1/chat/completions"]


class _NoHeadHandler(BaseHTTPRequestHandler):
    def log_message(self, *args):
        pass


class _RawReplyServer:
    """Accepts connections on a raw socket, reads each request, answers ``reply``
    verbatim (empty: nothing) and closes; counts the connections."""

    def __init__(self, reply: bytes):
        self.reply = reply
        self.connections = 0
        self.stopping = False
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.url = f"http://127.0.0.1:{self.sock.getsockname()[1]}/v1/chat/completions"
        self.thread = threading.Thread(target=self._serve, daemon=True)

    def _serve(self):
        while True:
            conn, _ = self.sock.accept()
            with conn:
                if self.stopping:
                    return
                self.connections += 1
                received = b""
                while b"\r\n\r\n" not in received:
                    chunk = conn.recv(65536)
                    if not chunk:
                        break
                    received += chunk
                head, _, body = received.partition(b"\r\n\r\n")
                length = next((int(line.split(b":", 1)[1]) for line in head.split(b"\r\n")
                               if line.lower().startswith(b"content-length:")), 0)
                while len(body) < length:
                    chunk = conn.recv(65536)
                    if not chunk:
                        break
                    body += chunk
                conn.sendall(self.reply)

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.stopping = True
        socket.create_connection(self.sock.getsockname()).close()  # wakes accept()
        self.thread.join(timeout=5)
        self.sock.close()
