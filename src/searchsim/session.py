"""Search-session loop and campaign driver.

One session walks the classic searcher loop: issue a query, inspect snippets
top-down, open promising documents, judge them, fold the judgment into the
user's knowledge state, and move to the next query until the budget runs out.
Every step is logged with its cost so the logs alone support evaluation.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from . import index as index_module
from .agents import (
    FEEDBACK_KINDS,
    LLM_KINDS,
    SUMMARY_SIDES,
    KnowledgeState,
    LLMUser,
    PromptTemplates,
    QueryGenerationError,
    UserKind,
    decide_relevance_llm,
    decide_relevance_random,
    default_templates,
    generate_initial_queries,
    generate_query_naive,
    generate_followup_query,
    update_knowledge_state,
)
from .corpus import QrelSet, Topic
from .index import MIN_SNIPPET_CHARS, InvertedIndex, search
from .llm import BackendError, ReplyMemo

# Interaction kinds
QUERY_ISSUED = "QueryIssued"
SNIPPET_VIEWED = "SnippetViewed"
DOCUMENT_VIEWED = "DocumentViewed"
JUDGMENT_MADE = "JudgmentMade"
SESSION_ENDED = "SessionEnded"
ANOMALY = "Anomaly"
INTERACTION_KINDS = (QUERY_ISSUED, SNIPPET_VIEWED, DOCUMENT_VIEWED,
                     JUDGMENT_MADE, SESSION_ENDED, ANOMALY)

# SessionEnded reasons
END_MAX_QUERIES = "max_queries_reached"
END_QUERIES_EXHAUSTED = "queries_exhausted"
END_BACKEND_FAILURE = "backend_failure"
END_QUERY_GENERATION_FAILURE = "query_generation_failure"
END_REASONS = (END_MAX_QUERIES, END_QUERIES_EXHAUSTED, END_BACKEND_FAILURE,
               END_QUERY_GENERATION_FAILURE)

# Snippet stop rules
FIXED_DEPTH = "fixed_depth"
CONSECUTIVE_IRRELEVANT = "consecutive_irrelevant"


class CampaignError(ValueError):
    """Invalid campaign setup, reported before any session runs."""


class Interaction(NamedTuple):
    """One logged step. ``run_session`` builds it from a ``CostModel``'s
    costs, and ``session_log_from_jsonl`` checks each field it reads."""

    seq: int
    kind: str
    cost: float
    payload: dict


def _is_cost(value) -> bool:
    """A finite int or float >= 0, as ``CostModel`` takes and a log holds; a
    bool is an int, and true would be logged as a cost the reader refuses."""
    return type(value) is not bool and isinstance(value, (int, float)) and 0 <= value < math.inf


@dataclass(frozen=True)
class CostModel:
    """Per-action costs in seconds; defaults are configurable stand-ins."""

    query_cost: float = 10.0
    snippet_cost: float = 3.0
    document_cost: float = 20.0
    judgment_cost: float = 5.0

    def __post_init__(self):
        for name in ("query_cost", "snippet_cost", "document_cost", "judgment_cost"):
            value = getattr(self, name)
            if not _is_cost(value):
                raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")


def _check_int(name: str, value, minimum: int = 1) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


@dataclass(frozen=True)
class SnippetStopRule:
    """fixed_depth: view at most ``value`` snippets per query.

    consecutive_irrelevant: stop scanning a query's results after ``value``
    consecutive results that produced no relevant judgment (not opened, or
    opened and judged irrelevant); a relevant judgment resets the count.
    """

    kind: str = FIXED_DEPTH
    value: int = 10

    def __post_init__(self):
        if self.kind not in (FIXED_DEPTH, CONSECUTIVE_IRRELEVANT):
            raise ValueError(f"kind must be {FIXED_DEPTH!r} or {CONSECUTIVE_IRRELEVANT!r}, "
                             f"got {self.kind!r}")
        _check_int("value", self.value)


@dataclass(frozen=True)
class SessionPolicy:
    """The settings every session of a campaign shares, checked once when built.

    Defaults: 10 queries, one 10-result page per query, a fixed depth of 10
    (or of the reachable results, if fewer), 10 pre-generated queries,
    Bernoulli(0.5) random users, 160-character snippets, 200-word summaries.
    """

    max_queries: int = 10
    page_size: int = 10
    max_pages_per_query: int = 1
    stop_rule: SnippetStopRule | None = None  # None: fixed depth min(10, reachable results)
    queries_per_session: int = 10  # initial queries an LLM user asks for
    p_random: float = 0.5  # relevance probability of RND and RND_STAR
    snippet_max_chars: int = 160
    max_summary_words: int = 200

    def __post_init__(self):
        for name in ("max_queries", "page_size", "max_pages_per_query",
                     "queries_per_session", "max_summary_words"):
            _check_int(name, getattr(self, name))
        if (isinstance(self.p_random, bool) or not isinstance(self.p_random, (int, float))
                or not 0 <= self.p_random <= 1):
            raise ValueError(f"p_random must be a number in [0, 1], got {self.p_random!r}")
        _check_int("snippet_max_chars", self.snippet_max_chars, MIN_SNIPPET_CHARS)
        reachable = self.page_size * self.max_pages_per_query
        if self.stop_rule is None:
            object.__setattr__(self, "stop_rule", SnippetStopRule(FIXED_DEPTH, min(10, reachable)))
        if self.stop_rule.kind == FIXED_DEPTH and self.stop_rule.value > reachable:
            raise ValueError(f"stop_rule.value {self.stop_rule.value} exceeds the {reachable} "
                             "results that page_size and max_pages_per_query reach")


@dataclass
class SessionLog:
    topic_id: str
    user_kind: UserKind
    seed: int
    interactions: list[Interaction] = field(default_factory=list)
    initial_queries: list[str] = field(default_factory=list)
    config_hash: str | None = None

    @property
    def queries_issued(self) -> list[str]:
        return [it.payload["query"] for it in self.interactions if it.kind == QUERY_ISSUED]

    @property
    def end_reason(self) -> str | None:
        """The reason its last record gives, if that record ends the session."""
        last = self.interactions[-1] if self.interactions else None
        return last.payload.get("reason") if last and last.kind == SESSION_ENDED else None

    @property
    def anomaly_count(self) -> int:
        return sum(1 for it in self.interactions if it.kind == ANOMALY)

    def total_cost(self) -> float:
        return sum(it.cost for it in self.interactions)


def run_session(topic: Topic, kind: UserKind, index: InvertedIndex, qrels: QrelSet, *,
                policy: SessionPolicy | None = None,
                cost_model: CostModel | None = None,
                backend=None,
                rng_seed: int = 0,
                templates: PromptTemplates | None = None,
                preset_queries: list[str] | None = None) -> SessionLog:
    """Run one simulated session and return its interaction log.

    The snippet-level open/skip decision uses the same relevance mechanism as
    the document judgment, applied to the snippet text. Only the LLM kinds
    read a document, to build that snippet and the judged text; RND and
    RND_STAR draw without reading. Documents already judged in this session
    are skipped without cost when they reappear in a later result list.
    Backend failures end the session with a marked, partial log.
    """
    policy = policy or SessionPolicy()
    cost = cost_model or CostModel()
    kind = UserKind(kind)
    if kind is UserKind.RND_STAR and preset_queries is None:
        raise ValueError("RND_STAR requires preset_queries (FTTC's query list)")

    rng = random.Random(rng_seed)
    log = SessionLog(topic_id=topic.topic_id, user_kind=kind, seed=rng_seed)

    def _log(kind_: str, cost_: float, **payload) -> None:
        log.interactions.append(Interaction(len(log.interactions), kind_, cost_, payload))

    def _anomaly(message: str) -> None:
        _log(ANOMALY, 0.0, message=message)

    user = (LLMUser(kind, topic, backend, templates or default_templates(), _anomaly)
            if kind in LLM_KINDS else None)
    state = user.state if user else KnowledgeState()

    def _decide(read) -> bool:  # a random user draws and never calls read()
        if user:
            return decide_relevance_llm(user, read())
        return decide_relevance_random(rng, policy.p_random)

    def _next_query(position: int) -> str | None:
        if kind is UserKind.RND:
            return generate_query_naive(topic, rng, on_anomaly=_anomaly)
        if kind in FEEDBACK_KINDS and state.judged:
            return generate_followup_query(user, log.queries_issued)
        if position < len(log.initial_queries):
            return log.initial_queries[position]
        return None

    def _scan(query: str) -> None:
        rule = policy.stop_rule
        viewed = 0
        consecutive = 0
        # one ranked list, as deep as the policy's pages reach
        serp = search(index, query, 1, policy.page_size * policy.max_pages_per_query)
        for rank, doc_id, _score in serp.results:
            if doc_id in state.judged:
                continue  # re-encountered in a later SERP: skip without cost
            if (viewed if rule.kind == FIXED_DEPTH else consecutive) >= rule.value:
                return
            _log(SNIPPET_VIEWED, cost.snippet_cost, doc_id=doc_id, rank=rank)
            viewed += 1
            relevant = False
            document = index.document(doc_id) if user else None
            # looked up on its module, so a replacement there sees every call
            if _decide(lambda: index_module.make_snippet(document, query,
                                                         policy.snippet_max_chars)):
                text = document.full_text() if user else None
                _log(DOCUMENT_VIEWED, cost.document_cost, doc_id=doc_id)
                relevant = _decide(lambda: text)
                grade = qrels.grade(topic.topic_id, doc_id)
                _log(JUDGMENT_MADE, cost.judgment_cost, doc_id=doc_id,
                     relevant=relevant, grade=grade)
                # summarize only a side that the kind's prompts read; only
                # such a side keeps its texts
                if SUMMARY_SIDES[kind][0 if relevant else 1]:
                    update_knowledge_state(user, doc_id, text, relevant,
                                           policy.max_summary_words)
                else:
                    state.record(doc_id, relevant)
            consecutive = 0 if relevant else consecutive + 1

    reason = END_MAX_QUERIES
    try:
        if kind is UserKind.RND_STAR:
            # an empty preset (degraded FTTC run) exhausts immediately
            log.initial_queries = list(preset_queries)
        elif kind is not UserKind.RND:
            log.initial_queries = generate_initial_queries(user, policy.queries_per_session)
        for position in range(policy.max_queries):
            query = _next_query(position)
            if query is None:
                reason = END_QUERIES_EXHAUSTED
                break
            _log(QUERY_ISSUED, cost.query_cost, query=query)
            _scan(query)
    except BackendError as exc:
        where = "" if log.queries_issued else " before the first query"
        _anomaly(f"backend failure{where}: {exc}")
        reason = END_BACKEND_FAILURE
    except QueryGenerationError as exc:
        _anomaly(str(exc))
        reason = END_QUERY_GENERATION_FAILURE
    _log(SESSION_ENDED, 0.0, reason=reason)
    return log


# --- campaigns ------------------------------------------------------------------

def derive_session_seed(campaign_seed: int, topic_id: str, kind: UserKind) -> int:
    """Stable per-session seed; adding topics or kinds never shifts the others."""
    material = f"{campaign_seed}|{topic_id}|{UserKind(kind).value}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")


def validate_campaign_kinds(kinds: list[UserKind]) -> list[UserKind]:
    """Deduplicate, check RND_STAR's dependency, and order FTTC before RND_STAR."""
    ordered = list(dict.fromkeys(UserKind(k) for k in kinds))
    if not ordered:
        raise CampaignError("at least one user kind is required")
    if UserKind.RND_STAR in ordered:
        if UserKind.FTTC not in ordered:
            raise CampaignError("RND_STAR reuses FTTC's queries; add FTTC to the campaign")
        fttc, star = ordered.index(UserKind.FTTC), ordered.index(UserKind.RND_STAR)
        if star < fttc:
            ordered.insert(star, ordered.pop(fttc))
    return ordered


def _file_stem(topic_id: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in topic_id)


def _check_topic_ids(topics: list[Topic]) -> None:
    """Each topic needs an id of its own in the log file names."""
    owners: dict[str, str] = {}
    for topic in topics:
        stem = _file_stem(topic.topic_id)
        if not stem:
            raise CampaignError("a topic has an empty id; give every topic a <num>")
        if stem in owners:
            if owners[stem] == topic.topic_id:
                raise CampaignError(f"duplicate topic id {topic.topic_id!r}; each topic "
                                    "needs its own id, or one session would replace another")
            raise CampaignError(f"topic ids {owners[stem]!r} and {topic.topic_id!r} map to "
                                f"the same log file names ({stem}__<kind>.jsonl)")
        owners[stem] = topic.topic_id


def run_campaign(topics: list[Topic], kinds: list[UserKind], index: InvertedIndex,
                 qrels: QrelSet, *,
                 policy: SessionPolicy | None = None,
                 cost_model: CostModel | None = None,
                 backend=None,
                 templates: PromptTemplates | None = None,
                 campaign_seed: int = 0,
                 workers: int = 1) -> list[SessionLog]:
    """Run every (topic, kind) session; topics outer, kinds inner.

    Per-session seeds derive from (campaign_seed, topic_id, kind). The
    sessions share one ``ReplyMemo`` over ``backend``, which asks each
    temperature-0 question once per campaign (the kinds' prompts coincide
    until feedback tells them apart) and keeps at most ``workers`` requests
    in flight. One queue of ``2 * workers`` threads runs the sessions, so
    that another session has its request ready whenever a slot frees. The
    queue goes topic by topic, RND_STAR's last: each waits for its topic's
    FTTC session, already started by then, and replays its query list. The
    returned order is deterministic regardless of workers.

    A failed session, a backend call that fails other than with a
    ``BackendError``, or an interrupt stops the campaign: no session that
    has not started runs, and a running session's next request is refused,
    which ends it. The first failure in returned order is raised, or the
    interrupt.
    """
    kinds = validate_campaign_kinds(list(kinds))
    if not topics:
        raise CampaignError("at least one topic is required")
    _check_topic_ids(topics)
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise CampaignError(f"workers must be an integer >= 1, got {workers!r}")
    stop = threading.Event()
    backend = ReplyMemo(backend, slots=workers, stop=stop)
    futures = {}

    def _run(topic: Topic, kind: UserKind) -> SessionLog | None:
        try:
            fttc = (futures[topic.topic_id, UserKind.FTTC].result()
                    if kind is UserKind.RND_STAR else None)
            if stop.is_set():  # checked after the wait: a stopped FTTC session returns None
                return None
            # a degraded FTTC run leaves RND_STAR nothing to replay: it exhausts at once
            return run_session(topic, kind, index, qrels, policy=policy,
                               cost_model=cost_model, backend=backend,
                               rng_seed=derive_session_seed(campaign_seed, topic.topic_id, kind),
                               templates=templates, preset_queries=fttc and fttc.initial_queries)
        except BaseException:
            stop.set()
            raise

    try:
        # the main thread waits in the pool's shutdown, where an interrupt
        # reaches it; Future.result() would hold it until the session ends
        with ThreadPoolExecutor(max_workers=2 * workers) as pool:
            for topic, kind in sorted(((t, k) for t in topics for k in kinds),
                                      key=lambda job: job[1] is UserKind.RND_STAR):
                futures[topic.topic_id, kind] = pool.submit(_run, topic, kind)
    except BaseException:
        stop.set()
        raise
    return [futures[t.topic_id, k].result() for t in topics for k in kinds]


# --- log serialization ------------------------------------------------------------

# one encoder for every record: json.dumps with non-default keywords builds a new one per call
_dumps = json.JSONEncoder(sort_keys=True, ensure_ascii=False, separators=(",", ":")).encode


def _number(value: int | float) -> str:
    """A finite int or float as json writes it, a subclass included."""
    return (float.__repr__ if isinstance(value, float) else int.__repr__)(value)


def session_log_to_jsonl(log: SessionLog) -> bytes:
    header = {
        "record": "session",
        "topic_id": log.topic_id,
        "user_kind": log.user_kind.value,
        "seed": log.seed,
        "initial_queries": log.initial_queries,
        "config_hash": log.config_hash,
    }
    lines = [_dumps(header)]
    # the line _dumps writes for {"record": "interaction", "seq": ..., "kind": ...,
    # "cost": ..., "payload": ...}, keys sorted, with one encoder call per record:
    # CostModel admits no bool, nan or inf as a cost, and a kind out of
    # INTERACTION_KINDS needs no escape
    lines += [f'{{"cost":{_number(it.cost)},"kind":"{it.kind}","payload":{_dumps(it.payload)},'
              f'"record":"interaction","seq":{it.seq}}}' for it in log.interactions]
    return ("\n".join(lines) + "\n").encode("utf-8")


class LogFormatError(ValueError):
    pass


# the payload keys that evaluation reads, by interaction kind
_PAYLOAD_KEYS = {QUERY_ISSUED: frozenset({"query"}), SNIPPET_VIEWED: frozenset({"doc_id"}),
                 JUDGMENT_MADE: frozenset({"doc_id", "relevant", "grade"}),
                 SESSION_ENDED: frozenset({"reason"})}
_AFTER_QUERY = frozenset({SNIPPET_VIEWED, DOCUMENT_VIEWED, JUDGMENT_MADE})


def _header(record: dict) -> SessionLog:
    log = SessionLog(record["topic_id"], UserKind(record["user_kind"]), record["seed"],
                     initial_queries=record.get("initial_queries", []),
                     config_hash=record.get("config_hash"))
    for name, ok, wanted in (
            ("topic_id", isinstance(log.topic_id, str), "a string"),
            ("seed", type(log.seed) is int, "an integer"),
            ("initial_queries", isinstance(log.initial_queries, list)
             and all(isinstance(q, str) for q in log.initial_queries), "a list of strings"),
            ("config_hash", isinstance(log.config_hash, (str, type(None))), "a string or null")):
        if not ok:
            raise ValueError(f"{name} must be {wanted}, got {getattr(log, name)!r}")
    return log


_raw_decode = json.JSONDecoder().raw_decode


def _record(line: str):
    """``json.loads(line)``, with one scan for a line that holds one object
    and nothing around it, as the writer writes them."""
    if line[:1] == "{" and line[-1:] == "}":
        try:
            record, end = _raw_decode(line)
        except ValueError:
            pass  # json.loads raises the same error
        else:
            if end == len(line):
                return record
    return json.loads(line)


def session_log_from_jsonl(data: bytes) -> SessionLog:
    """Parse a session log; a record that evaluation could not read, or a
    log whose last record is not its one ``SessionEnded``, is a
    ``LogFormatError`` naming its line."""
    # records end at "\n" only: the writer leaves U+2028, U+0085 and the like
    # raw inside strings, where str.splitlines would break them
    try:
        text = data.decode("utf-8")  # at once: decoding line by line is slower
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise LogFormatError(f"bad session log, line {lineno}: {exc}") from exc
    log = None
    queried = ended = False
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            record = _record(line)
            expected = "session" if log is None else "interaction"
            if not isinstance(record, dict) or record.get("record") != expected:
                raise ValueError(f"not a JSON object with record {expected!r}")
            if log is None:
                log = _header(record)
                continue
            if ended:
                raise ValueError(f"a record after the {SESSION_ENDED} record")
            seq, kind, cost, payload = (record["seq"], record["kind"], record["cost"],
                                        record["payload"])
            if not isinstance(payload, dict):
                raise ValueError("payload is not a JSON object")
            keys = _PAYLOAD_KEYS.get(kind)
            if keys and not payload.keys() >= keys:
                raise ValueError(f"{kind} payload lacks {sorted(keys - payload.keys())}")
            if kind not in INTERACTION_KINDS:
                raise ValueError(f"unknown interaction kind {kind!r}")
            # `type(seq) is int` refuses a bool
            if type(seq) is not int or seq < 0:
                raise ValueError(f"seq must be an integer >= 0, got {seq!r}")
            if not _is_cost(cost):
                raise ValueError(f"cost must be a finite number >= 0, got {cost!r}")
            if seq != len(log.interactions):
                raise ValueError(f"seq {seq} is not the record's position "
                                 f"{len(log.interactions)}")
            if kind == QUERY_ISSUED:
                queried = True
            elif not queried and kind in _AFTER_QUERY:
                raise ValueError(f"{kind} before the first {QUERY_ISSUED}")
            elif kind == SESSION_ENDED:
                if payload["reason"] not in END_REASONS:
                    raise ValueError(f"{SESSION_ENDED} reason {payload['reason']!r} is not "
                                     f"one of {', '.join(END_REASONS)}")
                ended = True
            log.interactions.append(Interaction(seq, kind, cost, payload))
        except (ValueError, KeyError, TypeError) as exc:
            raise LogFormatError(f"bad session log, line {lineno}: {exc}") from exc
    if log is None:
        raise LogFormatError("empty session log")
    if not ended:
        lineno = text.rstrip().count("\n") + 1  # the last record's line
        raise LogFormatError(f"bad session log, line {lineno}: the log ends without "
                             f"a {SESSION_ENDED} record")
    return log


def session_log_filename(log: SessionLog) -> str:
    return f"{_file_stem(log.topic_id)}__{log.user_kind.value}.jsonl"


def write_session_log(log: SessionLog, directory: str | Path) -> Path:
    path = Path(directory) / session_log_filename(log)
    path.write_bytes(session_log_to_jsonl(log))
    return path


def read_session_log(path: str | Path) -> SessionLog:
    try:
        return session_log_from_jsonl(Path(path).read_bytes())
    except LogFormatError as exc:
        raise LogFormatError(f"{path}: {exc}") from exc


def write_campaign_manifest(directory: str | Path, logs: list[SessionLog], *,
                            campaign_seed: int, config_hash: str | None) -> Path:
    manifest = {
        "record": "campaign",
        "campaign_seed": campaign_seed,
        "config_hash": config_hash,
        "sessions": [
            {
                "topic_id": log.topic_id,
                "user_kind": log.user_kind.value,
                "seed": log.seed,
                "file": session_log_filename(log),
                "interactions": len(log.interactions),
                "anomalies": log.anomaly_count,
                "end_reason": log.end_reason,
            }
            for log in logs
        ],
    }
    path = Path(directory) / "manifest.json"
    path.write_text(json.dumps(manifest, sort_keys=True, ensure_ascii=False, indent=2) + "\n",
                    encoding="utf-8")
    return path


def read_campaign_manifest(directory: str | Path) -> dict:
    return json.loads((Path(directory) / "manifest.json").read_text(encoding="utf-8"))
