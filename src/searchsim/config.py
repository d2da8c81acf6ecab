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
from dataclasses import asdict, astuple, dataclass, field, fields
from pathlib import Path

from .agents import Persona, PromptTemplates, UserKind
from .corpus import (
    ParseReport,
    QrelSet,
    Topic,
    parse_jsonl_corpus,
    parse_qrels,
    parse_topics,
    parse_trectext,
)
from .index import DEFAULT_B, DEFAULT_K1, ENGLISH_STOPWORDS, InvertedIndex, check_bm25_parameters
from .llm import BackendConfig, HttpBackend, ScriptedBackend, load_reply_table
from .session import (
    CampaignError,
    CostModel,
    SessionPolicy,
    SnippetStopRule,
    validate_campaign_kinds,
)

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


def _checked(section: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``; a ValueError it raises is a ConfigError led by ``section.``"""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{section}.{exc}") from exc


_JSON_NAMES = {dict: "a JSON object", list: "a JSON array", str: "a string",
               bool: "true or false"}


def _typed(value, key: str, kind: type):
    """``value`` if it is a ``kind``; otherwise a ConfigError naming ``key``."""
    if not isinstance(value, kind):
        raise ConfigError(f"{key} must be {_JSON_NAMES[kind]}, not {type(value).__name__}")
    return value


def _given(cls, opts: dict, suffix: str = "") -> dict:
    """The values ``opts`` sets for fields of dataclass ``cls``, keyed by field
    name and taken out of ``opts``.

    A field's key in ``opts`` is its name without ``suffix``; ``cls`` holds the
    defaults of the fields ``opts`` leaves out.
    """
    return {f.name: opts.pop(f.name.removesuffix(suffix)) for f in fields(cls)
            if f.name.removesuffix(suffix) in opts}


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
    llm: BackendConfig = field(default_factory=BackendConfig)
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
        raw = _typed(raw, "config", dict)
        base = path.parent

        def _path(value, key: str) -> Path | None:
            if value is None:
                return None
            p = Path(_typed(value, key, str))
            return p if p.is_absolute() else base / p

        # each read takes its key out, so what is left at the end is unknown
        sections = {name: _typed(raw.pop(name, {}), name, dict)
                    for name in ("collection", "index", "session", "costs", "llm", "persona")}
        collection, index_opts, session_opts, costs, llm_opts, persona_opts = sections.values()
        for key in ("corpus", "topics", "qrels"):
            if key not in collection:
                raise ConfigError(f"config is missing collection.{key}")
        field_map = collection.pop("field_map", None)
        if field_map is not None:
            for name, value in _typed(field_map, "collection.field_map", dict).items():
                _typed(value, f"collection.field_map.{name}", str)
        users = _typed(raw.pop("users", ["FTTC"]), "users", list)
        try:
            users = [UserKind(u) for u in users]
        except ValueError as exc:
            raise ConfigError(f"unknown user kind: {exc}") from exc
        k1, b = (_convert(index_opts.pop(name, default), f"index.{name}", float)
                 for name, default in (("k1", DEFAULT_K1), ("b", DEFAULT_B)))
        _checked("index", check_bm25_parameters, k1, b)
        campaign_seed = _convert(raw.pop("campaign_seed", 0), "campaign_seed", int)
        anomaly_threshold = _convert(raw.pop("anomaly_threshold", 0), "anomaly_threshold", int)
        if anomaly_threshold < 0:
            raise ConfigError(f"anomaly_threshold must be an integer >= 0, got {anomaly_threshold}")
        llm_values = _given(BackendConfig, llm_opts)
        for name, convert in (("timeout", float), ("retries", int)):
            if name in llm_values:
                llm_values[name] = _convert(llm_values[name], f"llm.{name}", convert)
        llm = _checked("llm", BackendConfig, **llm_values)
        cost_model = _checked("costs", CostModel, **{
            name: _convert(value, f"costs.{name.removesuffix('_cost')}", float)
            for name, value in _given(CostModel, costs, "_cost").items()})
        try:
            policy_opts = _given(SessionPolicy, session_opts)
            if "p_random" in policy_opts:
                policy_opts["p_random"] = _convert(policy_opts["p_random"],
                                                   "session.p_random", float)
            if "stop_rule" in policy_opts:
                policy_opts["stop_rule"] = SnippetStopRule(
                    **_typed(policy_opts["stop_rule"], "session.stop_rule", dict))
            policy = SessionPolicy(**policy_opts)
            persona = Persona(**{name: _typed(value, f"persona.{name}", str)
                                 for name, value in _given(Persona, persona_opts).items()})
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        config = cls(
            corpus_path=_path(collection.pop("corpus"), "collection.corpus"),
            topics_path=_path(collection.pop("topics"), "collection.topics"),
            qrels_path=_path(collection.pop("qrels"), "collection.qrels"),
            corpus_format=collection.pop("format", "trectext"),
            field_map=field_map,
            collection_name=collection.pop("name", "collection"),
            stopwords=_typed(index_opts.pop("stopwords", False), "index.stopwords", bool),
            stem=_typed(index_opts.pop("stem", False), "index.stem", bool),
            k1=k1,
            b=b,
            users=users,
            policy=policy,
            cost_model=cost_model,
            backend_kind=llm_opts.pop("backend", BACKEND_SCRIPTED),
            reply_table_path=_path(llm_opts.pop("reply_table", None), "llm.reply_table"),
            llm=llm,
            templates_dir=_path(raw.pop("templates_dir", None), "templates_dir"),
            persona=persona,
            campaign_seed=campaign_seed,
            anomaly_threshold=anomaly_threshold,
            output_dir=Path(_typed(raw.pop("output_dir", "out"), "output_dir", str)),
        )
        unknown = [*raw, *(f"{name}.{key}" for name, section in sections.items()
                           for key in section)]
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        return config

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
        try:
            validate_campaign_kinds(self.users)
        except CampaignError as exc:
            problems.append(str(exc))
        if self.backend_kind not in (BACKEND_SCRIPTED, BACKEND_HTTP):
            problems.append(f"unknown backend {self.backend_kind!r}")
        if self.backend_kind == BACKEND_HTTP and not (self.llm.endpoint and self.llm.model):
            problems.append("http backend needs llm.endpoint and llm.model")
        if self.reply_table_path and not self.reply_table_path.is_file():
            problems.append(f"reply table not found: {self.reply_table_path}")
        if self.templates_dir and not self.templates_dir.is_dir():
            problems.append(f"templates dir not found: {self.templates_dir}")
        else:
            try:
                self.make_templates()
            except (OSError, ValueError) as exc:
                problems.append(f"templates: {exc}")
        return problems

    # --- builders ---------------------------------------------------------------

    def load_documents(self, report: ParseReport | None = None):
        data = Path(self.corpus_path).read_bytes()
        if self.corpus_format == "jsonl":
            return parse_jsonl_corpus(data, self.field_map, report=report)
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
                    found.append(f"stopwords (the index holds a different stopword list: "
                                 f"size {len(built or ())} in the index, "
                                 f"{len(wanted or ())} in the config)")
                else:
                    found.append(f"{name} (index {built}, config {wanted})")
        return found

    def make_backend(self):
        if self.backend_kind == BACKEND_SCRIPTED:
            replies = load_reply_table(self.reply_table_path) if self.reply_table_path else None
            return ScriptedBackend(replies)
        return HttpBackend(self.llm)

    def make_templates(self) -> PromptTemplates:
        if self.templates_dir:
            return PromptTemplates.load_dir(self.templates_dir, self.persona)
        return PromptTemplates.default(self.persona)

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
            "session": {**asdict(self.policy),
                        "stop_rule": list(astuple(self.policy.stop_rule))},
            "costs": list(astuple(self.cost_model)),
            "llm": {
                "backend": self.backend_kind,
                "model": self.llm.model,
                "max_tokens": self.llm.max_tokens,
                "reply_table_sha256": _file_digest(self.reply_table_path),
            },
            "persona": list(astuple(self.persona)),
            "templates": {name: templates.mapping[name]
                          for name in sorted(templates.mapping)},
            "campaign_seed": self.campaign_seed,
        }
        canonical = json.dumps(semantic, sort_keys=True, ensure_ascii=False,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
