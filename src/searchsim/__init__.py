"""searchsim: simulated interactive search sessions over a built-in BM25 index,
with relevance-feedback user agents and session-level evaluation."""

from .agents import (
    FEEDBACK_KINDS,
    LLM_KINDS,
    RANDOM_KINDS,
    KnowledgeState,
    LLMUser,
    Persona,
    PromptTemplates,
    UserKind,
)
from .corpus import (
    Document,
    ParseReport,
    QrelSet,
    Topic,
    parse_jsonl_corpus,
    parse_qrels,
    parse_topics,
    parse_trectext,
)
from .index import (
    InvertedIndex,
    Serp,
    bm25_score,
    build_index,
    load_index,
    make_snippet,
    save_index,
    search,
    tokenize,
)
from .llm import (
    BackendConfig,
    BackendError,
    ChatMessage,
    ChatRequest,
    ChatResponse,
    HttpBackend,
    ScriptedBackend,
    default_params,
    load_reply_table,
)
from .metrics import (
    GainCurve,
    SdcgCurve,
    aggregate_curves,
    information_gain_curve,
    sdcg_curve,
)
from .session import (
    CostModel,
    Interaction,
    SessionLog,
    SessionPolicy,
    SnippetStopRule,
    run_campaign,
    run_session,
)

__version__ = "0.1.0"
