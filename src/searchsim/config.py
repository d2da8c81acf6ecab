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


_REQUIRED = object()
_KINDS = {dict: "a JSON object", list: "a JSON array", str: "a string",
          bool: "true or false", float: "a number", int: "a number"}


def _read(opts: dict, section: str, key: str, kind: type, default=_REQUIRED):
    """``key`` taken out of the JSON object ``opts`` at ``section``, as a ``kind``.

    Null is taken only where ``default`` is None. A number is ``kind(value)``
    (``"7"`` converts, ``int`` truncates), never true or false.
    """
    path = f"{section}.{key}" if section else key
    if key not in opts:
        if default is _REQUIRED:
            raise ConfigError(f"config is missing {path}")
        return default
    value = opts.pop(key)
    if value is None and default is None:
        return None
    number = kind in (int, float)
    if number and isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            return kind(value)
        except (ValueError, OverflowError):
            pass
    elif not number and isinstance(value, kind):
        return value
    raise ConfigError(f"{path} must be {_KINDS[kind]}, "
                      f"not {json.dumps(value) if number else type(value).__name__}")


def _build(cls, opts: dict, section: str, kinds: dict, suffix: str = ""):
    """Dataclass ``cls`` of the fields ``opts`` sets (keyed by name without
    ``suffix``), each taken out; ``kinds`` types some, ``cls`` checks all and
    starts a refusal with the field name, which loses ``suffix`` here, so it
    reads ``section.key ...`` (``costs.query``, not ``costs.query_cost``)."""
    values = {f.name: _read(opts, section, key, kinds[f.name], f.default)
              if f.name in kinds else opts.pop(key)
              for f in fields(cls) if (key := f.name.removesuffix(suffix)) in opts}
    try:
        return cls(**values)
    except ValueError as exc:
        name, space, rest = str(exc).partition(" ")
        raise ConfigError(f"{section}.{name.removesuffix(suffix)}{space}{rest}") from exc


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
        """The campaign a JSON config file sets. A value of the wrong kind, or
        one its owner refuses, is a ConfigError led by its key path
        (``session.stop_rule.kind must be ...``). Each key is taken out as it
        is read, and the keys left at the end are refused together as unknown."""
        path = Path(path)
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        raw = _read({"config": raw}, "", "config", dict)

        def _path(opts: dict, section: str, key: str, default=_REQUIRED) -> Path | None:
            value = _read(opts, section, key, str, default)
            return None if value is None else path.parent / value

        sections = {name: _read(raw, "", name, dict, {})
                    for name in ("collection", "index", "session", "costs", "llm", "persona")}
        collection, index, session, costs, llm, persona = sections.values()
        field_map = _read(collection, "collection", "field_map", dict, None)
        for name in list(field_map or ()):  # each is taken out and put back, in order
            field_map[name] = _read(field_map, "collection.field_map", name, str)
        users = _read(raw, "", "users", list, ["FTTC"])
        known = [kind.value for kind in UserKind]
        for user in users:
            if user not in known:
                raise ConfigError(f"users must hold user kinds out of {', '.join(known)}, "
                                  f"not {json.dumps(user)}")
        if "stop_rule" in session:  # SessionPolicy takes the built rule in its object's place
            rule = sections["session.stop_rule"] = _read(session, "session", "stop_rule", dict)
            session["stop_rule"] = _build(SnippetStopRule, rule, "session.stop_rule", {})
        config = cls(
            corpus_path=_path(collection, "collection", "corpus"),
            topics_path=_path(collection, "collection", "topics"),
            qrels_path=_path(collection, "collection", "qrels"),
            corpus_format=_read(collection, "collection", "format", str, "trectext"),
            field_map=field_map,
            collection_name=_read(collection, "collection", "name", str, "collection"),
            stopwords=_read(index, "index", "stopwords", bool, False),
            stem=_read(index, "index", "stem", bool, False),
            k1=_read(index, "index", "k1", float, DEFAULT_K1),
            b=_read(index, "index", "b", float, DEFAULT_B),
            users=[UserKind(u) for u in users],
            policy=_build(SessionPolicy, session, "session", {"p_random": float}),
            cost_model=_build(CostModel, costs, "costs", {f.name: float for f in fields(CostModel)},
                              "_cost"),
            backend_kind=_read(llm, "llm", "backend", str, BACKEND_SCRIPTED),
            reply_table_path=_path(llm, "llm", "reply_table", None),
            llm=_build(BackendConfig, llm, "llm", {"timeout": float, "retries": int}),
            templates_dir=_path(raw, "", "templates_dir", None),
            persona=_build(Persona, persona, "persona", {f.name: str for f in fields(Persona)}),
            campaign_seed=_read(raw, "", "campaign_seed", int, 0),
            anomaly_threshold=_read(raw, "", "anomaly_threshold", int, 0),
            output_dir=Path(_read(raw, "", "output_dir", str, "out")),
        )
        try:
            check_bm25_parameters(config.k1, config.b)
        except ValueError as exc:
            raise ConfigError(f"index.{exc}") from exc
        if config.anomaly_threshold < 0:
            raise ConfigError(f"anomaly_threshold must be an integer >= 0, "
                              f"got {config.anomaly_threshold}")
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
