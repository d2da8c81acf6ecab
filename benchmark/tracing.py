"""Spans and counters around the simulator's module-level calls.

The simulator carries no instrumentation of its own. ``Tracer.install``
replaces the names that ``cli``, ``config``, ``session`` and ``index`` look up
at call time with wrappers that record one span per call (name, start, end,
parent span, session id) and update counters under a lock, because sessions
run on worker threads. Spans stay in memory; ``layer_metrics`` derives the
per-layer figures from them, self time included, and ``write_spans`` writes
them out once the pipeline is over.
"""
from __future__ import annotations

import hashlib
import json
import threading
import time
from collections import Counter
from pathlib import Path

from figures import percentile
from searchsim import cli, config, index, session
from searchsim.agents import LLM_KINDS, SUMMARY_SIDES, UserKind
from searchsim.index import tokenize

# (module, attribute, span name); the attribute is looked up by its callers at
# call time, so replacing it on the module routes every call through the span
WRAPPED = (
    (cli, "cmd_index", "cli.index"),
    (cli, "cmd_simulate", "cli.simulate"),
    (cli, "cmd_evaluate", "cli.evaluate"),
    (config, "parse_trectext", "corpus.parse"),
    (cli, "build_index", "index.build"),
    (cli, "save_index", "index.save"),
    (cli, "load_index", "index.load"),
    (session, "search", "index.search"),
    (index, "make_snippet", "index.snippet"),
    (cli, "run_campaign", "session.campaign"),
    (session, "run_session", "session.run"),
    (session, "generate_initial_queries", "agents.initial_queries"),
    (session, "decide_relevance_llm", "agents.judge"),
    (session, "generate_followup_query", "agents.followup"),
    (session, "update_knowledge_state", "agents.summarize"),
    (cli, "write_session_log", "session.write_logs"),
    (cli, "write_campaign_manifest", "session.write_logs"),
    (cli, "read_session_log", "metrics.read_logs"),
    (cli, "information_gain_curve", "metrics.ig"),
    (cli, "sdcg_curve", "metrics.sdcg"),
    (cli, "aggregate_curves", "metrics.aggregate"),
    (cli, "write_csv", "metrics.write_csv"),
)
AGENT_OPS = ("initial_queries", "judge", "followup", "summarize")
LLM_TAGS = ("query_generation", "followup_query", "relevance_judgment", "summarization")
END_REASONS = (session.END_MAX_QUERIES, session.END_QUERIES_EXHAUSTED,
               session.END_BACKEND_FAILURE, session.END_QUERY_GENERATION_FAILURE)
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)


def tail_percentile(n: int) -> float:
    """Highest percentile with at least ten of ``n`` samples beyond it."""
    for pct in TAIL_PERCENTILES:
        if n * (100 - pct) / 100 >= 10:
            return pct
    return 50.0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, session id]
        self.counters: Counter[str] = Counter()
        self._llm_requests: set[bytes] = set()  # digests of (tag, temperature, seed, messages)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._originals: list[tuple] = []

    # --- recording -----------------------------------------------------------

    def add(self, **deltas: float) -> None:
        with self._lock:
            self.counters.update(deltas)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, after=None):
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            session_id = self.spans[parent][4] if parent is not None else None
            if name == "session.run":
                session_id = f"{args[0].topic_id}/{UserKind(args[1]).value}"
            with self._lock:
                span_id = len(self.spans)
                self.spans.append([name, time.perf_counter(), None, parent, session_id])
            stack.append(span_id)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.add(**{f"{name}.errors": 1})
                raise
            finally:
                self.spans[span_id][2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        after = {
            "corpus.parse": self._after_parse,
            "index.build": self._after_build,
            "index.search": self._after_search,
            "metrics.aggregate": lambda a, k, rows: self.add(grid_points=len(rows)),
        }
        for module, attr, name in WRAPPED:
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, after.get(name)))
        make_backend = config.CampaignConfig.make_backend
        self._originals.append((config.CampaignConfig, "make_backend", make_backend))

        def traced_make_backend(cfg):
            backend = make_backend(cfg)
            backend.complete = self.wrap(backend.complete, "llm.complete", self._after_llm)
            return backend
        config.CampaignConfig.make_backend = traced_make_backend

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def _after_parse(self, args, kwargs, documents) -> None:
        report = kwargs.get("report")
        self.add(docs=len(documents), skipped=report.skipped if report else 0)

    def _after_build(self, args, kwargs, built) -> None:
        self.add(vocab=built.vocabulary_size,
                 postings=sum(len(p) for p in built.postings.values()))

    def _after_search(self, args, kwargs, serp) -> None:
        searched, query = args[0], args[1]
        terms = tokenize(query, searched.stopwords, searched.stem)
        self.add(search_postings=sum(searched.df(t) for t in terms),
                 empty_searches=0 if serp.results else 1)

    def _after_llm(self, args, kwargs, response) -> None:
        request = args[0]
        key = hashlib.sha256(repr((request.tag, request.temperature, request.seed,
                                   request.messages)).encode()).digest()
        with self._lock:
            duplicate = key in self._llm_requests
            self._llm_requests.add(key)
            self.counters.update({f"llm.calls.{request.tag}": 1,
                                  f"llm.prompt_chars.{request.tag}": len(request.prompt_text()),
                                  "llm.duplicate_calls": int(duplicate)})

    # --- analysis --------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, (name, start, end, parent, session_id) in enumerate(self.spans):
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "session": session_id}) + "\n")

    def layer_metrics(self, logs_dir: Path, workers: int) -> dict[str, float]:
        """Per-layer figures from the spans, the counters and the written logs."""
        durations: dict[str, list[float]] = {}
        self_time: Counter[str] = Counter()
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for span_id, (name, start, end, _, _) in enumerate(self.spans):
            durations.setdefault(name, []).append(end - start)
            self_time[name] += end - start - child_time[span_id]

        def total(name: str) -> float:
            return sum(durations.get(name, ()))

        def ms(name: str, pct: float) -> float:
            return 1000 * percentile(durations.get(name, []), pct)

        c = self.counters
        searches = len(durations.get("index.search", ()))
        sessions = [(s[4], s[2] - s[1]) for s in self.spans if s[0] == "session.run"]
        runs = [d for _, d in sessions]
        tail = tail_percentile(len(runs))
        llm_calls = sum(c[f"llm.calls.{tag}"] for tag in LLM_TAGS)
        prompt_chars = sum(c[f"llm.prompt_chars.{tag}"] for tag in LLM_TAGS)
        manifest = session.read_campaign_manifest(logs_dir)
        ends = Counter(s["end_reason"] for s in manifest["sessions"])
        out = {
            "corpus.parse_s": total("corpus.parse"),
            "corpus.docs": c["docs"],
            "corpus.skipped": c["skipped"],
            "index.build_s": total("index.build"),
            "index.save_s": total("index.save"),
            "index.vocab": c["vocab"],
            "index.postings": c["postings"],
            "index.load_s": total("index.load"),
            "index.search_calls": searches,
            "index.search_p50_ms": ms("index.search", 50),
            "index.search_p99_ms": ms("index.search", 99),
            "index.search_self_s": self_time["index.search"],
            "index.postings_per_search": c["search_postings"] / searches if searches else 0.0,
            "index.empty_searches": c["empty_searches"],
            "index.snippet_calls": len(durations.get("index.snippet", ())),
            "index.snippet_s": total("index.snippet"),
            "llm.duplicate_calls": c["llm.duplicate_calls"],
            "llm.complete_s": total("llm.complete"),
            "llm.complete_p50_ms": ms("llm.complete", 50),
            "llm.complete_p99_ms": ms("llm.complete", 99),
            "llm.failures": c["llm.complete.errors"],
            "agents.self_s": sum(self_time[f"agents.{op}"] for op in AGENT_OPS),
            "agents.summary_read_ratio": summary_read_ratio(logs_dir),
            "session.count": len(runs),
            "session.run_p50_s": percentile(runs, 50),
            "session.run_tail_s": percentile(runs, tail),
            "session.run_tail_pct": tail,
            "session.self_s": self_time["session.run"],
            "session.anomalies": sum(s["anomalies"] for s in manifest["sessions"]),
            "session.write_logs_s": total("session.write_logs"),
            "session.parallel_efficiency": (sum(runs) / (total("session.campaign") * workers)
                                            if runs else 0.0),
            "metrics.read_logs_s": total("metrics.read_logs"),
            "metrics.ig_s": total("metrics.ig"),
            "metrics.sdcg_s": total("metrics.sdcg"),
            "metrics.aggregate_s": total("metrics.aggregate"),
            "metrics.grid_points": c["grid_points"],
            "metrics.write_csv_s": total("metrics.write_csv"),
            "cli.self_s": sum(self_time[f"cli.{cmd}"] for cmd in ("index", "simulate", "evaluate")),
            "llm_calls_per_session": llm_calls / len(runs) if runs else 0.0,
            "prompt_kchars_per_session": prompt_chars / 1000 / len(runs) if runs else 0.0,
        }
        for tag in LLM_TAGS:
            out[f"llm.calls.{tag}"] = c[f"llm.calls.{tag}"]
            out[f"llm.prompt_kchars.{tag}"] = c[f"llm.prompt_chars.{tag}"] / 1000
        for op in AGENT_OPS:
            out[f"agents.{op}_calls"] = len(durations.get(f"agents.{op}", ()))
            out[f"agents.{op}_s"] = total(f"agents.{op}")
        for kind in UserKind:
            out[f"session.{kind.value}_s"] = sum(d for sid, d in sessions
                                                 if sid.endswith("/" + kind.value))
        for reason in END_REASONS:
            out[f"session.end.{reason}"] = ends[reason]
        return out


def summary_read_ratio(logs_dir: Path) -> float:
    """Share of summaries that a later prompt of the session reads.

    Every judgment of an LLM user regenerates the summary of its side. The
    next prompt of the session (a snippet judgment or a follow-up query)
    carries that summary only if the user kind reads that side, and the last
    summary of a session is read only if some prompt follows it.
    """
    made = read = 0
    for path in sorted(Path(logs_dir).glob("*.jsonl")):
        log = session.read_session_log(path)
        if log.user_kind not in LLM_KINDS:
            continue
        sides = SUMMARY_SIDES[log.user_kind]
        later_prompt = False
        for it in reversed(log.interactions):
            if it.kind in (session.SNIPPET_VIEWED, session.QUERY_ISSUED):
                later_prompt = True
            elif it.kind == session.JUDGMENT_MADE:
                made += 1
                read += int(later_prompt and sides[0 if it.payload["relevant"] else 1])
    return read / made if made else 0.0
