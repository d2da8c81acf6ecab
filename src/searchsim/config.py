"""Campaign configuration: file schema, validation, and the semantic hash.

A campaign config is a JSON file; paths inside it resolve relative to the
file's directory. The semantic hash covers everything that can change the
produced logs (including the referenced file contents) and excludes purely
operational settings such as the output directory, worker count, endpoint
URL, and API key variable, so identical inputs hash identically on any
machine.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from pathlib import Path

from .agents import Persona, PromptTemplates, UserKind
from .corpus import (
    DEFAULT_FIELD_MAP,
    ParseReport,
    QrelSet,
    Topic,
    parse_jsonl_corpus,
    parse_qrels,
    parse_topics,
    parse_trectext,
)
from .index import DEFAULT_B, DEFAULT_K1, ENGLISH_STOPWORDS, InvertedIndex
from .llm import BackendConfig, HttpBackend, ScriptedBackend, load_reply_table
from .session import CostModel, SessionPolicy, SnippetStopRule, validate_campaign_kinds

BACKEND_SCRIPTED = "scripted"
BACKEND_HTTP = "http"


class ConfigError(ValueError):
    pass


def _convert(value, key: str, convert):
    """``convert(value)``; a value it refuses is a ConfigError naming ``key``."""
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _string(value, key: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string, not {type(value).__name__}")
    return value


@dataclass
class CampaignConfig:
    # collection
    corpus_path: Path
    topics_path: Path
    qrels_path: Path
    corpus_format: str = "trectext"  # trectext | jsonl
    field_map: dict | None = None
    collection_name: str = "collection"
    # index options
    stopwords: bool = False
    stem: bool = False
    k1: float = DEFAULT_K1
    b: float = DEFAULT_B
    # users and session behavior
    users: list[UserKind] = field(default_factory=lambda: [UserKind.FTTC])
    policy: SessionPolicy = field(default_factory=SessionPolicy)
    cost_model: CostModel = field(default_factory=CostModel)
    # llm backend
    backend_kind: str = BACKEND_SCRIPTED
    reply_table_path: Path | None = None
    endpoint: str | None = None
    model: str | None = None
    api_key_env: str = "SEARCHSIM_API_KEY"
    timeout: float = 60.0
    retries: int = 2
    max_tokens: int | None = None
    # prompts
    templates_dir: Path | None = None
    persona: Persona = field(default_factory=Persona)
    # campaign
    campaign_seed: int = 0
    anomaly_threshold: int = 0
    output_dir: Path = Path("out")

    # --- loading -------------------------------------------------------------

    @classmethod
    def from_file(cls, path: str | Path) -> "CampaignConfig":
        path = Path(path)
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        base = path.parent

        def _path(value: str | None) -> Path | None:
            if value is None:
                return None
            p = Path(value)
            return p if p.is_absolute() else base / p

        collection = raw.get("collection", {})
        for key in ("corpus", "topics", "qrels"):
            if key not in collection:
                raise ConfigError(f"config is missing collection.{key}")
        index_opts = raw.get("index", {})
        session_opts = raw.get("session", {})
        costs = raw.get("costs", {})
        llm_opts = raw.get("llm", {})
        persona_opts = raw.get("persona", {})
        try:
            users = [UserKind(u) for u in raw.get("users", ["FTTC"])]
        except ValueError as exc:
            raise ConfigError(f"unknown user kind: {exc}") from exc
        k1 = _convert(index_opts.get("k1", DEFAULT_K1), "index.k1", float)
        b = _convert(index_opts.get("b", DEFAULT_B), "index.b", float)
        timeout = _convert(llm_opts.get("timeout", 60.0), "llm.timeout", float)
        retries = _convert(llm_opts.get("retries", 2), "llm.retries", int)
        campaign_seed = _convert(raw.get("campaign_seed", 0), "campaign_seed", int)
        anomaly_threshold = _convert(raw.get("anomaly_threshold", 0), "anomaly_threshold", int)
        try:
            # only the keys the file sets; SessionPolicy holds the defaults
            policy_opts = {f.name: session_opts[f.name] for f in fields(SessionPolicy)
                           if f.name in session_opts}
            if "p_random" in policy_opts:
                policy_opts["p_random"] = _convert(policy_opts["p_random"],
                                                   "session.p_random", float)
            if "stop_rule" in policy_opts:
                policy_opts["stop_rule"] = SnippetStopRule(**policy_opts["stop_rule"])
            policy = SessionPolicy(**policy_opts)
            cost_model = CostModel(
                query_cost=_convert(costs.get("query", 10.0), "costs.query", float),
                snippet_cost=_convert(costs.get("snippet", 3.0), "costs.snippet", float),
                document_cost=_convert(costs.get("document", 20.0), "costs.document", float),
                judgment_cost=_convert(costs.get("judgment", 5.0), "costs.judgment", float),
            )
            persona = Persona(**{f.name: _string(persona_opts[f.name], f"persona.{f.name}")
                                 for f in fields(Persona) if f.name in persona_opts})
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        output = raw.get("output_dir", "out")
        return cls(
            corpus_path=_path(collection["corpus"]),
            topics_path=_path(collection["topics"]),
            qrels_path=_path(collection["qrels"]),
            corpus_format=collection.get("format", "trectext"),
            field_map=collection.get("field_map"),
            collection_name=collection.get("name", "collection"),
            stopwords=bool(index_opts.get("stopwords", False)),
            stem=bool(index_opts.get("stem", False)),
            k1=k1,
            b=b,
            users=users,
            policy=policy,
            cost_model=cost_model,
            backend_kind=llm_opts.get("backend", BACKEND_SCRIPTED),
            reply_table_path=_path(llm_opts.get("reply_table")),
            endpoint=llm_opts.get("endpoint"),
            model=llm_opts.get("model"),
            api_key_env=llm_opts.get("api_key_env", "SEARCHSIM_API_KEY"),
            timeout=timeout,
            retries=retries,
            max_tokens=llm_opts.get("max_tokens"),
            templates_dir=_path(raw.get("templates_dir")),
            persona=persona,
            campaign_seed=campaign_seed,
            anomaly_threshold=anomaly_threshold,
            output_dir=Path(output),
        )

    # --- validation ------------------------------------------------------------

    def validate(self, *, simulate: bool = True) -> list[str]:
        """Return problem descriptions; empty means the config is usable.

        ``simulate=False`` checks only what indexing needs (the collection);
        the full check also covers users, backend, and prompt resources.
        """
        problems: list[str] = []
        for label, p in (("corpus", self.corpus_path), ("topics", self.topics_path),
                         ("qrels", self.qrels_path)):
            if not p or not Path(p).is_file():
                problems.append(f"{label} file not found: {p}")
        if self.corpus_format not in ("trectext", "jsonl"):
            problems.append(f"unknown corpus format {self.corpus_format!r}")
        if not simulate:
            return problems
        if not self.users:
            problems.append("no user kinds configured")
        if UserKind.RND_STAR in self.users and UserKind.FTTC not in self.users:
            problems.append("RND_STAR requires FTTC in the same campaign")
        if self.backend_kind not in (BACKEND_SCRIPTED, BACKEND_HTTP):
            problems.append(f"unknown backend {self.backend_kind!r}")
        if self.backend_kind == BACKEND_HTTP and not (self.endpoint and self.model):
            problems.append("http backend needs llm.endpoint and llm.model")
        if self.reply_table_path and not self.reply_table_path.is_file():
            problems.append(f"reply table not found: {self.reply_table_path}")
        if self.templates_dir and not self.templates_dir.is_dir():
            problems.append(f"templates dir not found: {self.templates_dir}")
        return problems

    # --- builders ---------------------------------------------------------------

    def load_documents(self, report: ParseReport | None = None):
        data = Path(self.corpus_path).read_bytes()
        if self.corpus_format == "jsonl":
            return parse_jsonl_corpus(data, self.field_map or DEFAULT_FIELD_MAP,
                                      report=report)
        return parse_trectext(data, report=report)

    def load_topics(self, report: ParseReport | None = None) -> list[Topic]:
        return parse_topics(Path(self.topics_path).read_bytes(), report=report)

    def load_qrels(self, report: ParseReport | None = None) -> QrelSet:
        return parse_qrels(Path(self.qrels_path).read_bytes(), report=report)

    def index_options(self) -> dict:
        """Keyword arguments of ``build_index``; a built index keeps them."""
        return {"stopwords": ENGLISH_STOPWORDS if self.stopwords else None,
                "stem": self.stem, "k1": self.k1, "b": self.b}

    def index_mismatches(self, index: InvertedIndex) -> list[str]:
        """Index options on which a built index disagrees with this config."""
        found = []
        for name, wanted in self.index_options().items():
            built = getattr(index, name)
            if built != wanted:
                if name == "stopwords":
                    built, wanted = built is not None, wanted is not None
                found.append(f"{name} (index {built}, config {wanted})")
        return found

    def make_backend(self):
        if self.backend_kind == BACKEND_SCRIPTED:
            replies = load_reply_table(self.reply_table_path) if self.reply_table_path else None
            return ScriptedBackend(replies)
        return HttpBackend(BackendConfig(endpoint=self.endpoint, model=self.model,
                                         api_key_env=self.api_key_env,
                                         timeout=self.timeout, retries=self.retries,
                                         max_tokens=self.max_tokens))

    def make_templates(self) -> PromptTemplates:
        if self.templates_dir:
            return PromptTemplates.load_dir(self.templates_dir)
        return PromptTemplates.default()

    def ordered_users(self) -> list[UserKind]:
        return validate_campaign_kinds(list(self.users))

    # --- semantic hash -------------------------------------------------------------

    def semantic_hash(self) -> str:
        def _file_digest(p: Path | None) -> str | None:
            if p is None:
                return None
            return hashlib.sha256(Path(p).read_bytes()).hexdigest()

        templates = self.make_templates()
        semantic = {
            "collection": {
                "name": self.collection_name,
                "format": self.corpus_format,
                "field_map": self.field_map,
                "corpus_sha256": _file_digest(self.corpus_path),
                "topics_sha256": _file_digest(self.topics_path),
                "qrels_sha256": _file_digest(self.qrels_path),
            },
            "index": {"stopwords": self.stopwords, "stem": self.stem,
                      "k1": self.k1, "b": self.b},
            "users": [u.value for u in self.users],
            "session": {
                "max_queries": self.policy.max_queries,
                "page_size": self.policy.page_size,
                "max_pages_per_query": self.policy.max_pages_per_query,
                "stop_rule": [self.policy.stop_rule.kind, self.policy.stop_rule.value],
                "queries_per_session": self.policy.queries_per_session,
                "snippet_max_chars": self.policy.snippet_max_chars,
                "p_random": self.policy.p_random,
                "max_summary_words": self.policy.max_summary_words,
            },
            "costs": [self.cost_model.query_cost, self.cost_model.snippet_cost,
                      self.cost_model.document_cost, self.cost_model.judgment_cost],
            "llm": {
                "backend": self.backend_kind,
                "model": self.model,
                "max_tokens": self.max_tokens,
                "reply_table_sha256": _file_digest(self.reply_table_path),
            },
            "persona": [self.persona.role_name, self.persona.instruction_preamble],
            "templates": {name: templates.mapping[name]
                          for name in sorted(templates.mapping)},
            "campaign_seed": self.campaign_seed,
        }
        canonical = json.dumps(semantic, sort_keys=True, ensure_ascii=False,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
