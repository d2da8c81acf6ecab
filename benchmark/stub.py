#!/usr/bin/env python3
"""OpenAI-style chat-completions stub for the ``http-feedback`` workload.

Runs as its own process on localhost. Each POST waits a fixed service delay,
then answers with the text the in-process ``ScriptedBackend`` would give for
the same request, so a campaign run over HTTP logs exactly what a scripted
campaign logs. The request tag, which never goes over the wire, is inferred
from the first line of the user prompt. ``HEAD`` answers the simulator's
reachability probe; ``GET /stats`` returns the requests served so far, the
connections that carried them, and the requests it could not parse.

    python3 benchmark/stub.py --delay 0.005   # prints "PORT <n>" once listening
"""
from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from searchsim.llm import (  # noqa: E402
    TAG_FOLLOWUP_QUERY,
    TAG_QUERY_GENERATION,
    TAG_RELEVANCE_JUDGMENT,
    TAG_SUMMARIZATION,
    ChatMessage,
    ChatRequest,
    ScriptedBackend,
)

# first words of each prompt template -> request tag
TAG_BY_OPENING = (
    ("You are preparing", TAG_QUERY_GENERATION),
    ("You are continuing", TAG_FOLLOWUP_QUERY),
    ("You are assessing", TAG_RELEVANCE_JUDGMENT),
    ("Summarize", TAG_SUMMARIZATION),
)


def infer_tag(user_prompt: str) -> str | None:
    for opening, tag in TAG_BY_OPENING:
        if user_prompt.startswith(opening):
            return tag
    return None


class Stats:
    """Served-traffic counters, updated from the server's handler threads."""

    def __init__(self):
        self._lock = threading.Lock()
        self.counts: Counter[str] = Counter()

    def add(self, **deltas: int) -> None:
        with self._lock:
            self.counts.update(deltas)

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self.counts)


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # lets a client keep its connection open
    server: "StubServer"

    def setup(self) -> None:
        super().setup()
        self.completions = 0  # requests served on this connection

    def log_message(self, format, *args) -> None:  # keep stderr quiet
        pass

    def _send(self, status: int, body: bytes = b"") -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if body:
            self.wfile.write(body)

    def do_HEAD(self) -> None:
        self._send(200)

    def do_GET(self) -> None:
        if self.path != "/stats":
            self._send(404)
            return
        self._send(200, json.dumps(self.server.stats.snapshot()).encode())

    def do_POST(self) -> None:
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        try:
            payload = json.loads(body)
            messages = tuple(ChatMessage(m["role"], m["content"]) for m in payload["messages"])
            tag = infer_tag(messages[-1].content)
            request = ChatRequest(messages, temperature=float(payload["temperature"]),
                                  seed=int(payload["seed"]), tag=tag)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            self.server.stats.add(bad_requests=1)
            self._send(400, json.dumps({"error": str(exc)}).encode())
            return
        time.sleep(self.server.delay)
        text = self.server.backend.complete(request).text
        self.server.stats.add(requests=1, connections=int(self.completions == 0))
        self.completions += 1
        reply = {
            "object": "chat.completion",
            "model": payload.get("model"),
            "choices": [{"index": 0, "finish_reason": "stop",
                         "message": {"role": "assistant", "content": text}}],
            "usage": {},
        }
        self._send(200, json.dumps(reply).encode())


class StubServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, delay: float):
        super().__init__(("127.0.0.1", 0), Handler)  # any free port
        self.delay = delay
        self.backend = ScriptedBackend()
        self.stats = Stats()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--delay", type=float, default=0.005,
                        help="service delay per completion, in seconds")
    args = parser.parse_args(argv)
    with StubServer(args.delay) as server:
        print(f"PORT {server.server_address[1]}", flush=True)
        server.serve_forever()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
