"""The eight simulated user configurations.

Two random baselines (RND, RND_STAR) decide relevance by a Bernoulli draw;
the six LLM-backed users differ in how much topic context their prompts carry
and in which knowledge-state summaries they receive:

    kind       topic fields            summaries in prompt
    RND        (no prompts)            -
    RND_STAR   (no prompts)            -
    TTT        title                   -
    FTTC       title, desc, narrative  -
    PRF        title, desc, narrative  relevant side only
    NRF        title, desc, narrative  irrelevant side only
    CRF        title, desc, narrative  both sides
    CRF_PRIME  title                   both sides

Feedback users (PRF/NRF/CRF/CRF_PRIME) behave exactly like FTTC until their
first judgment; from then on summaries of the seen documents enter every
prompt and follow-up queries replace the pre-generated ones.
"""
from __future__ import annotations

import functools
import logging
import re
import string
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Callable

from .corpus import Topic
from .index import ENGLISH_STOPWORDS, tokenize
from .llm import (
    TAG_FOLLOWUP_QUERY,
    TAG_QUERY_GENERATION,
    TAG_RELEVANCE_JUDGMENT,
    TAG_SUMMARIZATION,
    BackendError,
    ChatMessage,
    ChatRequest,
    default_params,
)

logger = logging.getLogger(__name__)

AnomalySink = Callable[[str], None]


class UserKind(str, Enum):
    RND = "RND"
    RND_STAR = "RND_STAR"
    TTT = "TTT"
    FTTC = "FTTC"
    PRF = "PRF"
    NRF = "NRF"
    CRF = "CRF"
    CRF_PRIME = "CRF_PRIME"


RANDOM_KINDS = frozenset({UserKind.RND, UserKind.RND_STAR})
LLM_KINDS = frozenset(UserKind) - RANDOM_KINDS
# prompts show the topic title only; every other kind adds description and narrative
TITLE_ONLY_KINDS = frozenset({UserKind.TTT, UserKind.CRF_PRIME})

# kind -> (relevant summary in prompt, irrelevant summary in prompt)
SUMMARY_SIDES: dict[UserKind, tuple[bool, bool]] = {
    UserKind.RND: (False, False),
    UserKind.RND_STAR: (False, False),
    UserKind.TTT: (False, False),
    UserKind.FTTC: (False, False),
    UserKind.PRF: (True, False),
    UserKind.NRF: (False, True),
    UserKind.CRF: (True, True),
    UserKind.CRF_PRIME: (True, True),
}
FEEDBACK_KINDS = frozenset(kind for kind, sides in SUMMARY_SIDES.items() if any(sides))

DEFAULT_PERSONA_PREAMBLE = (
    "You research news archives to collect material for in-depth reporting, "
    "and you can quickly tell whether an article serves the story you are working on."
)


@dataclass(frozen=True)
class Persona:
    role_name: str = "journalist"
    instruction_preamble: str = DEFAULT_PERSONA_PREAMBLE

    def __post_init__(self):
        for name in ("role_name", "instruction_preamble"):
            if not getattr(self, name).strip():
                raise ValueError(f"{name} must be non-empty")


class QueryGenerationError(RuntimeError):
    """The backend's reply could not be parsed into queries, even on retry."""


def _placeholders(template: str):
    """The field names of a format string, with those nested in format specs."""
    for _, name, spec, _ in string.Formatter().parse(template):
        if name is not None:
            yield name
        if spec:
            yield from _placeholders(spec)


class PromptTemplates:
    """Plain-text prompt templates with named placeholders, for one persona.

    Optional blocks (topic fields, summaries) arrive pre-rendered with their
    labels, or as empty strings when excluded, so a single template serves
    every user kind. The system message depends only on the persona (default:
    ``Persona()``), so it is rendered once, into ``system``. A missing
    template or a placeholder outside ``FIELDS``, also one nested in a
    format spec, raises ``ValueError``.
    """

    _CONTEXT = ("title", "description", "narrative", "relevant_summary", "irrelevant_summary")
    # template -> the placeholders it may use
    FIELDS = {
        "system": frozenset({"role_name", "instruction_preamble"}),
        "initial_queries": frozenset({*_CONTEXT, "n_queries"}),
        "judge": frozenset({*_CONTEXT, "document"}),
        "followup_query": frozenset({*_CONTEXT, "past_queries"}),
        "summarize": frozenset({"polarity", "max_words", "documents"}),
    }
    REQUIRED = tuple(FIELDS)

    def __init__(self, mapping: dict[str, str], persona: Persona | None = None):
        missing = [name for name in self.REQUIRED if name not in mapping]
        if missing:
            raise ValueError(f"missing templates: {', '.join(missing)}")
        for name, allowed in self.FIELDS.items():
            try:
                used = set(_placeholders(mapping[name]))
            except ValueError as exc:  # an unmatched brace
                raise ValueError(f"template {name!r}: {exc}") from exc
            unknown = sorted(used - allowed)
            if unknown:
                raise ValueError(f"template {name!r} has unknown placeholders: "
                                 f"{', '.join(unknown)}")
        self.mapping = dict(mapping)
        persona = persona or Persona()
        self.system = self.render("system", role_name=persona.role_name,
                                  instruction_preamble=persona.instruction_preamble).strip()

    @classmethod
    def load_dir(cls, path: str | Path, persona: Persona | None = None) -> "PromptTemplates":
        """The templates named in ``FIELDS`` from ``<name>.txt`` files in ``path``."""
        path = Path(path)
        mapping = {name: (path / f"{name}.txt").read_text(encoding="utf-8")
                   for name in cls.FIELDS if (path / f"{name}.txt").is_file()}
        return cls(mapping, persona)

    @classmethod
    def default(cls, persona: Persona | None = None) -> "PromptTemplates":
        return cls.load_dir(resources.files(__package__) / "templates", persona)

    def render(self, name: str, **values: str) -> str:
        return self.mapping[name].format(**values)


@functools.cache
def default_templates() -> PromptTemplates:
    return PromptTemplates.default()


@dataclass
class KnowledgeState:
    """What the user has judged so far, plus running summaries per side."""

    relevant_summary: str | None = None
    irrelevant_summary: str | None = None
    judged: dict[str, bool] = field(default_factory=dict)  # doc_id -> relevant, in judgment order
    _texts: dict[str, str] = field(default_factory=dict, repr=False)  # summarized sides only

    def record(self, doc_id: str, relevant: bool, text: str | None = None) -> None:
        """Add a judgment, keeping ``text`` when given: for a side that is summarized."""
        if doc_id in self.judged:
            raise ValueError(f"document {doc_id!r} was already judged")
        self.judged[doc_id] = relevant
        if text is not None:
            self._texts[doc_id] = text

    def texts_for(self, relevant: bool) -> list[str]:
        """The texts kept for one side, in judgment order."""
        return [text for d, text in self._texts.items() if self.judged[d] == relevant]


@dataclass
class LLMUser:
    """One LLM-backed user for one session: what its prompts show and where
    they go are fixed when the session starts; ``state`` grows as it judges."""

    kind: UserKind
    topic: Topic
    backend: object
    templates: PromptTemplates
    on_anomaly: AnomalySink
    state: KnowledgeState = field(default_factory=KnowledgeState)

    def __post_init__(self):
        self.kind = UserKind(self.kind)
        if self.kind not in LLM_KINDS:
            raise ValueError(f"{self.kind.value} decides relevance randomly, not via the LLM")
        if self.backend is None:
            raise ValueError(f"{self.kind.value} requires a chat backend")


# --- prompt assembly ----------------------------------------------------------

def _context(user: LLMUser) -> dict[str, str]:
    """The topic and summary placeholders of the user's prompts, labelled or empty."""
    topic = user.topic
    full = user.kind not in TITLE_ONLY_KINDS
    values = {
        "title": f"Title: {topic.title}\n",
        "description": f"Description: {topic.description}\n"
                       if full and topic.description else "",
        "narrative": f"Narrative: {topic.narrative}\n" if full and topic.narrative else "",
    }
    for side, wanted in zip(("relevant", "irrelevant"), SUMMARY_SIDES[user.kind]):
        summary = wanted and getattr(user.state, f"{side}_summary")
        values[f"{side}_summary"] = (
            f"Summary of the results you previously judged {side}:\n{summary}\n"
            if summary else "")
    return values


def _messages(templates: PromptTemplates, name: str,
              values: dict[str, str]) -> tuple[ChatMessage, ChatMessage]:
    return (ChatMessage("system", templates.system),
            ChatMessage("user", templates.render(name, **values)))


def build_initial_queries_prompt(user: LLMUser, n_queries: int) -> tuple[ChatMessage, ...]:
    # run_session builds it before any judgment, so both summaries are empty
    return _messages(user.templates, "initial_queries",
                     {**_context(user), "n_queries": str(n_queries)})


def build_judge_prompt(user: LLMUser, document_text: str) -> tuple[ChatMessage, ...]:
    return _messages(user.templates, "judge", {**_context(user), "document": document_text})


def build_followup_prompt(user: LLMUser, past_queries: list[str]) -> tuple[ChatMessage, ...]:
    numbered = "\n".join(f"{i}. {q}" for i, q in enumerate(past_queries, 1))
    return _messages(user.templates, "followup_query",
                     {**_context(user), "past_queries": numbered})


def build_summarize_prompt(templates: PromptTemplates, texts: list[str], relevant: bool,
                           max_words: int) -> tuple[ChatMessage, ...]:
    blocks = "\n\n".join(f"Article {i}:\n{t}" for i, t in enumerate(texts, 1))
    polarity = "relevant" if relevant else "irrelevant"
    return _messages(templates, "summarize",
                     {"polarity": polarity, "max_words": str(max_words), "documents": blocks})


# --- reply parsing --------------------------------------------------------------

_LINE_PREFIX_RE = re.compile(r"^\s*(?:\d+\s*[\.\):-]\s*|[-*•]\s*)?")


def _clean_query_line(line: str) -> str:
    return _LINE_PREFIX_RE.sub("", line).strip().strip('"“”').strip()


def parse_query_list(text: str) -> list[str]:
    """Numbered or bulleted lines to a deduplicated list of query strings."""
    queries: list[str] = []
    for raw in text.splitlines():
        q = _clean_query_line(raw)
        if q and q not in queries:
            queries.append(q)
    return queries


_YES_TOKENS = frozenset({"yes", "y", "relevant", "useful"})
_NO_TOKENS = frozenset({"no", "n", "irrelevant", "not"})


def parse_yes_no(text: str) -> bool | None:
    """Case-insensitive yes/no extraction; None when neither can be read."""
    tokens = re.findall(r"[a-z]+", text.lower())
    if not tokens:
        return None
    if tokens[0] in _YES_TOKENS:
        return True
    if tokens[0] in _NO_TOKENS:
        return False
    token_set = set(tokens)
    if "irrelevant" in token_set or ("not" in token_set and "relevant" in token_set):
        return False
    if "yes" in token_set and "no" not in token_set:
        return True
    if "no" in token_set and "yes" not in token_set:
        return False
    if "relevant" in token_set:
        return True
    return None


# --- operations -----------------------------------------------------------------

def _ask(backend, messages: tuple[ChatMessage, ...], tag: str) -> str:
    """The reply text to ``messages``, sent with the task's default parameters."""
    temperature, seed = default_params(tag)
    return backend.complete(ChatRequest(messages, temperature=temperature, seed=seed,
                                        tag=tag)).text


def _stricter(messages: tuple[ChatMessage, ...], instruction: str) -> tuple[ChatMessage, ...]:
    """``messages`` with ``instruction`` appended to the last (user) message."""
    return messages[:-1] + (ChatMessage("user", messages[-1].content + instruction),)


def generate_initial_queries(user: LLMUser, n_queries: int) -> list[str]:
    """One up-front LLM call producing the session's query list.

    Feedback users start from the same kind of list as FTTC; only the amount
    of topic context in the prompt differs (per TITLE_ONLY_KINDS).
    """
    messages = build_initial_queries_prompt(user, n_queries)
    queries = parse_query_list(_ask(user.backend, messages, TAG_QUERY_GENERATION))[:n_queries]
    if len(queries) < n_queries:
        retry = _stricter(messages, f"\nReturn exactly {n_queries} numbered queries "
                                    "and nothing else.")
        queries = parse_query_list(_ask(user.backend, retry, TAG_QUERY_GENERATION))[:n_queries]
    if not queries:
        raise QueryGenerationError(
            f"no queries could be parsed from the backend reply for topic {user.topic.topic_id}")
    if len(queries) < n_queries:
        user.on_anomaly(f"initial query list has {len(queries)} of {n_queries} requested queries")
    return queries


def generate_query_naive(topic: Topic, rng, *, on_anomaly: AnomalySink) -> str:
    """Sample three distinct terms uniformly from the topic's vocabulary.

    The vocabulary is the alphabetically sorted set of non-stopword tokens in
    the topic's title, description, and narrative. Draw order: repeated
    uniform index picks over the remaining sorted vocabulary (without
    replacement), so a fixed rng seed reproduces the query exactly. When the
    vocabulary has fewer than three entries the sampling falls back to
    drawing with replacement and reports a warning.
    """
    n_terms = 3
    vocabulary = sorted(set(tokenize(topic.all_text(), stopwords=ENGLISH_STOPWORDS)))
    if not vocabulary:
        vocabulary = sorted(set(tokenize(topic.all_text())))
    if not vocabulary:
        raise ValueError(f"topic {topic.topic_id} has no usable vocabulary")
    if len(vocabulary) >= n_terms:
        remaining = list(vocabulary)
        picks = [remaining.pop(rng.randrange(len(remaining))) for _ in range(n_terms)]
    else:
        message = (f"topic {topic.topic_id} vocabulary has {len(vocabulary)} < "
                   f"{n_terms} terms; sampling with replacement")
        logger.warning(message)
        on_anomaly(message)
        picks = [vocabulary[rng.randrange(len(vocabulary))] for _ in range(n_terms)]
    return " ".join(picks)


def decide_relevance_random(rng, p: float = 0.5) -> bool:
    """Bernoulli(p) relevance decision, shared by RND and RND_STAR."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    return rng.random() < p


def decide_relevance_llm(user: LLMUser, text: str) -> bool:
    """Binary LLM judgment of a text at temperature 0.

    The judgment is asked once: at temperature 0 the same request gets the
    same reply. An unreadable reply is treated as not relevant with a
    reported anomaly.
    """
    verdict = parse_yes_no(_ask(user.backend, build_judge_prompt(user, text),
                                TAG_RELEVANCE_JUDGMENT))
    if verdict is None:
        user.on_anomaly("judgment reply matched neither yes nor no; treating as not relevant")
    return bool(verdict)


def update_knowledge_state(user: LLMUser, doc_id: str, text: str, relevant: bool,
                           max_words: int) -> None:
    """Absorb a fresh judgment and regenerate that side's summary.

    The summary is rebuilt from scratch over all documents judged on the same
    side so far. If the summarization request fails with a ``BackendError``,
    the previous summary is kept and the failure reported; the judgment
    itself is never rolled back. Any other exception propagates.
    """
    state = user.state
    state.record(doc_id, relevant, text)
    messages = build_summarize_prompt(user.templates, state.texts_for(relevant), relevant,
                                      max_words)
    try:
        summary = _ask(user.backend, messages, TAG_SUMMARIZATION).strip()
    except BackendError as exc:  # backend failure must not lose the judgment
        message = f"summarization failed, keeping previous summary: {exc}"
        logger.warning(message)
        user.on_anomaly(message)
        return
    if relevant:
        state.relevant_summary = summary
    else:
        state.irrelevant_summary = summary


def generate_followup_query(user: LLMUser, past_queries: list[str]) -> str:
    """One new query informed by the kind's summaries, at temperature 1.0.

    A reply duplicating a past query is retried once and then accepted with a
    reported anomaly.
    """
    if user.kind not in FEEDBACK_KINDS:
        raise ValueError(f"{user.kind.value} never reformulates queries")
    if not user.state.judged:
        raise ValueError("no judgments yet; the pre-generated queries still apply")
    messages = build_followup_prompt(user, past_queries)
    query = ""
    for attempt in range(2):
        lines = parse_query_list(_ask(user.backend, messages, TAG_FOLLOWUP_QUERY))
        query = lines[0] if lines else ""
        if query and query not in past_queries:
            return query
        if attempt == 0:
            messages = _stricter(messages, "\nDo not repeat any earlier query.")
    if not query:
        raise QueryGenerationError(
            f"no follow-up query could be parsed for topic {user.topic.topic_id}")
    user.on_anomaly(f"follow-up query duplicates a past query: {query!r}")
    return query
