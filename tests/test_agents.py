from __future__ import annotations

import hashlib
import json
import random
import re
from pathlib import Path

import pytest

import searchsim
from searchsim.agents import (
    FEEDBACK_KINDS,
    LLM_KINDS,
    RANDOM_KINDS,
    TITLE_ONLY_KINDS,
    KnowledgeState,
    Persona,
    PromptTemplates,
    QueryGenerationError,
    UserKind,
    build_followup_prompt,
    build_initial_queries_prompt,
    build_judge_prompt,
    build_summarize_prompt,
    decide_relevance_llm,
    decide_relevance_random,
    generate_followup_query,
    generate_initial_queries,
    generate_query_naive,
    parse_query_list,
    parse_yes_no,
    update_knowledge_state,
)
from searchsim.corpus import Document, Topic
from searchsim.llm import (
    TAG_QUERY_GENERATION,
    TAG_RELEVANCE_JUDGMENT,
    TAG_SUMMARIZATION,
    BackendError,
    ChatResponse,
    ScriptedBackend,
)
from searchsim.testing import CapturingBackend


class ConstantBackend:
    def __init__(self, text):
        self.text = text

    def complete(self, request):
        return ChatResponse(self.text)


class SequenceBackend:
    def __init__(self, texts):
        self.texts = list(texts)

    def complete(self, request):
        return ChatResponse(self.texts.pop(0) if self.texts else "")


class FailingBackend:
    def complete(self, request):
        raise BackendError("wire down")


class TestParsing:
    def test_numbered_list(self):
        assert parse_query_list("1. a b\n2. c d") == ["a b", "c d"]

    def test_bullets_quotes_and_duplicates(self):
        text = '- "alpha beta"\n* gamma\n3) alpha beta\n\n'
        assert parse_query_list(text) == ["alpha beta", "gamma"]

    def test_yes_no_variants(self):
        assert parse_yes_no("RELEVANT") is True
        assert parse_yes_no("Yes, definitely.") is True
        assert parse_yes_no("no") is False
        assert parse_yes_no("Irrelevant") is False
        assert parse_yes_no("This is not relevant to the story.") is False
        assert parse_yes_no("The text is relevant.") is True
        assert parse_yes_no("maybe?") is None
        assert parse_yes_no("") is None


class TestInitialQueries:
    def test_parse_from_scripted_reply(self, toy_topic):
        backend = ConstantBackend("1. a b\n2. c d")
        queries = generate_initial_queries(backend, toy_topic, UserKind.FTTC, n_queries=2)
        assert queries == ["a b", "c d"]

    def test_ttt_prompt_contains_title_only(self, toy_topic):
        backend = CapturingBackend(ConstantBackend("1. q1\n2. q2"))
        generate_initial_queries(backend, toy_topic, UserKind.TTT, n_queries=2)
        prompt = backend.prompts()[0]
        assert toy_topic.title in prompt
        assert toy_topic.description not in prompt
        assert toy_topic.narrative not in prompt

    def test_fttc_prompt_contains_all_fields_verbatim(self, toy_topic):
        backend = CapturingBackend(ConstantBackend("1. q1\n2. q2"))
        generate_initial_queries(backend, toy_topic, UserKind.FTTC, n_queries=2)
        prompt = backend.prompts()[0]
        for fieldtext in (toy_topic.title, toy_topic.description, toy_topic.narrative):
            assert fieldtext in prompt

    def test_truncates_to_requested_count(self, toy_topic):
        backend = ConstantBackend("\n".join(f"{i}. query {i}" for i in range(1, 13)))
        queries = generate_initial_queries(backend, toy_topic, UserKind.FTTC, n_queries=5)
        assert len(queries) == 5

    def test_unparseable_retries_once_then_raises(self, toy_topic):
        backend = CapturingBackend(ConstantBackend(""))
        with pytest.raises(QueryGenerationError):
            generate_initial_queries(backend, toy_topic, UserKind.FTTC, n_queries=3)
        assert len(backend.requests) == 2
        assert "exactly 3" in backend.requests[1].prompt_text()

    def test_short_list_accepted_after_retry_with_anomaly(self, toy_topic):
        backend = SequenceBackend(["1. only one", "1. only one"])
        anomalies = []
        queries = generate_initial_queries(backend, toy_topic, UserKind.FTTC,
                                           n_queries=4, on_anomaly=anomalies.append)
        assert queries == ["only one"]
        assert len(anomalies) == 1

    def test_random_kinds_rejected(self, toy_topic):
        with pytest.raises(ValueError):
            generate_initial_queries(ConstantBackend("1. x"), toy_topic, UserKind.RND)

    def test_request_uses_query_generation_params(self, toy_topic):
        backend = CapturingBackend(ConstantBackend("1. a\n2. b"))
        generate_initial_queries(backend, toy_topic, UserKind.FTTC, n_queries=2)
        request = backend.requests[0]
        assert request.temperature == 1.0
        assert request.seed == 0
        assert request.tag == TAG_QUERY_GENERATION


class TestNaiveQueries:
    def test_three_term_vocabulary_forced(self):
        topic = Topic(topic_id="1", title="alpha beta gamma")
        query = generate_query_naive(topic, random.Random(0))
        assert sorted(query.split()) == ["alpha", "beta", "gamma"]

    def test_fixed_seed_reproducible(self, toy_topic):
        q1 = generate_query_naive(toy_topic, random.Random(42))
        q2 = generate_query_naive(toy_topic, random.Random(42))
        assert q1 == q2

    def test_terms_are_distinct_and_from_topic(self, toy_topic):
        query = generate_query_naive(toy_topic, random.Random(3)).split()
        assert len(set(query)) == 3
        vocabulary = set(toy_topic.all_text().lower().replace("?", " ").split())
        for term in query:
            assert term in vocabulary

    def test_small_vocabulary_falls_back_with_warning(self):
        topic = Topic(topic_id="2", title="solo solo solo")
        anomalies = []
        query = generate_query_naive(topic, random.Random(1), on_anomaly=anomalies.append)
        assert query.split() == ["solo", "solo", "solo"]
        assert anomalies

    def test_inclusion_frequency_uniform_over_ten_terms(self):
        topic = Topic(topic_id="3", title="apple banana cherry damson elder",
                      description="fig grape honeydew kiwi lime")
        rng = random.Random(0)
        counts = {}
        draws = 10_000
        for _ in range(draws):
            for term in generate_query_naive(topic, rng).split():
                counts[term] = counts.get(term, 0) + 1
        assert len(counts) == 10
        for term, count in counts.items():
            assert abs(count / draws - 0.3) <= 0.03, (term, count)


class TestRandomDecision:
    def test_p_zero_and_one(self):
        rng = random.Random(5)
        assert not any(decide_relevance_random(rng, 0.0) for _ in range(100))
        assert all(decide_relevance_random(rng, 1.0) for _ in range(100))

    def test_p_half_statistics(self):
        rng = random.Random(123)
        draws = 10_000
        trues = sum(decide_relevance_random(rng, 0.5) for _ in range(draws))
        assert abs(trues / draws - 0.5) <= 0.015

    def test_p_out_of_range(self):
        with pytest.raises(ValueError):
            decide_relevance_random(random.Random(0), 1.5)


class TestJudgePrompts:
    def test_scripted_relevant_parses_true(self, toy_topic):
        verdict = decide_relevance_llm(ConstantBackend("RELEVANT"), toy_topic,
                                       UserKind.FTTC, None, "some document")
        assert verdict is True

    def test_prf_empty_state_prompt_identical_to_fttc(self, toy_topic):
        fttc = build_judge_prompt(toy_topic, UserKind.FTTC, None, "doc text")
        prf = build_judge_prompt(toy_topic, UserKind.PRF, KnowledgeState(), "doc text")
        assert [m.content for m in fttc] == [m.content for m in prf]

    def test_crf_with_both_sides_has_both_sections(self, toy_topic):
        state = KnowledgeState()
        state.record("r1", "relevant doc text", True)
        state.relevant_summary = "summary of the good ones"
        state.record("i1", "irrelevant doc text", False)
        state.irrelevant_summary = "summary of the bad ones"
        prompt = "\n".join(m.content for m in
                           build_judge_prompt(toy_topic, UserKind.CRF, state, "doc"))
        assert "summary of the good ones" in prompt
        assert "summary of the bad ones" in prompt

    def test_unreadable_reply_retries_then_defaults_false(self, toy_topic):
        backend = CapturingBackend(ConstantBackend("hmm, unclear"))
        anomalies = []
        verdict = decide_relevance_llm(backend, toy_topic, UserKind.FTTC, None, "doc",
                                       on_anomaly=anomalies.append)
        assert verdict is False
        assert len(backend.requests) == 2
        assert anomalies

    def test_judgment_request_params(self, toy_topic):
        backend = CapturingBackend(ConstantBackend("yes"))
        decide_relevance_llm(backend, toy_topic, UserKind.FTTC, None, "doc")
        request = backend.requests[0]
        assert request.temperature == 0.0
        assert request.tag == TAG_RELEVANCE_JUDGMENT

    def test_random_kinds_rejected(self, toy_topic):
        with pytest.raises(ValueError):
            decide_relevance_llm(ConstantBackend("yes"), toy_topic, UserKind.RND,
                                 None, "doc")


def seen(state, relevant):
    """The documents judged on one side, in judgment order."""
    return [d for d, r in state.judged.items() if r == relevant]


class TestKnowledgeState:
    def doc(self, doc_id, body):
        return Document(doc_id=doc_id, body=body)

    def test_first_relevant_doc_creates_relevant_summary_only(self):
        state = KnowledgeState()
        update_knowledge_state(ConstantBackend("a tidy summary"), state,
                               self.doc("d1", "body one"), True)
        assert state.relevant_summary == "a tidy summary"
        assert state.irrelevant_summary is None
        assert seen(state, True) == ["d1"]
        assert seen(state, False) == []
        assert state.judged == {"d1": True}

    def test_double_judgment_rejected(self):
        state = KnowledgeState()
        backend = ConstantBackend("s")
        update_knowledge_state(backend, state, self.doc("d1", "b"), True)
        with pytest.raises(ValueError):
            update_knowledge_state(backend, state, self.doc("d1", "b"), False)

    def test_summarization_prompt_contains_all_same_side_texts(self):
        state = KnowledgeState()
        backend = CapturingBackend(ConstantBackend("s"))
        bodies = [f"unique body text number {i}" for i in range(3)]
        for i, body in enumerate(bodies):
            update_knowledge_state(backend, state, self.doc(f"d{i}", body), True)
        final_prompt = backend.prompts(TAG_SUMMARIZATION)[-1]
        for body in bodies:
            assert body in final_prompt

    def test_sides_are_independent(self):
        state = KnowledgeState()
        backend = CapturingBackend(SequenceBackend(["rel summary", "irr summary"]))
        update_knowledge_state(backend, state, self.doc("r", "good text"), True)
        update_knowledge_state(backend, state, self.doc("i", "bad text"), False)
        assert state.relevant_summary == "rel summary"
        assert state.irrelevant_summary == "irr summary"
        irr_prompt = backend.prompts(TAG_SUMMARIZATION)[-1]
        assert "bad text" in irr_prompt
        assert "good text" not in irr_prompt

    def test_backend_failure_keeps_previous_summary_and_judgment(self):
        state = KnowledgeState()
        update_knowledge_state(ConstantBackend("first summary"), state,
                               self.doc("d1", "b1"), True)
        anomalies = []
        update_knowledge_state(FailingBackend(), state, self.doc("d2", "b2"), True,
                               on_anomaly=anomalies.append)
        assert state.relevant_summary == "first summary"
        assert seen(state, True) == ["d1", "d2"]
        assert anomalies

    def test_seen_lists_disjoint_and_order_preserving_fuzzed(self):
        rng = random.Random(77)
        for _ in range(30):
            state = KnowledgeState()
            backend = ConstantBackend("s")
            expected_rel, expected_irr = [], []
            for i in range(rng.randrange(0, 12)):
                relevant = rng.random() < 0.5
                doc_id = f"d{i}"
                (expected_rel if relevant else expected_irr).append(doc_id)
                update_knowledge_state(backend, state, self.doc(doc_id, f"b{i}"), relevant)
            assert seen(state, True) == expected_rel
            assert seen(state, False) == expected_irr
            assert not set(seen(state, True)) & set(seen(state, False))
            assert set(state.judged) == set(expected_rel) | set(expected_irr)


class TestFollowupQueries:
    def make_state(self):
        state = KnowledgeState()
        state.record("d1", "text one", True)
        state.relevant_summary = "the relevant summary text"
        state.record("d2", "text two", False)
        state.irrelevant_summary = "the irrelevant summary text"
        return state

    def test_distinct_reply_returned_verbatim(self, toy_topic):
        query = generate_followup_query(ConstantBackend("fresh new angle"), toy_topic,
                                        UserKind.CRF, self.make_state(), ["old query"])
        assert query == "fresh new angle"

    def test_crf_prime_prompt_title_and_summaries_only(self, toy_topic):
        backend = CapturingBackend(ConstantBackend("next query"))
        generate_followup_query(backend, toy_topic, UserKind.CRF_PRIME,
                                self.make_state(), ["q1"])
        prompt = backend.prompts()[0]
        assert toy_topic.title in prompt
        assert toy_topic.description not in prompt
        assert toy_topic.narrative not in prompt
        assert "the relevant summary text" in prompt
        assert "the irrelevant summary text" in prompt

    def test_nrf_prompt_has_irrelevant_summary_only(self, toy_topic):
        backend = CapturingBackend(ConstantBackend("next query"))
        generate_followup_query(backend, toy_topic, UserKind.NRF,
                                self.make_state(), ["q1"])
        prompt = backend.prompts()[0]
        assert "the irrelevant summary text" in prompt
        assert "the relevant summary text" not in prompt

    def test_past_queries_listed_in_prompt(self, toy_topic):
        backend = CapturingBackend(ConstantBackend("brand new"))
        generate_followup_query(backend, toy_topic, UserKind.PRF,
                                self.make_state(), ["first query", "second query"])
        prompt = backend.prompts()[0]
        assert "first query" in prompt
        assert "second query" in prompt

    def test_duplicate_retried_then_accepted_with_anomaly(self, toy_topic):
        backend = CapturingBackend(ConstantBackend("old query"))
        anomalies = []
        query = generate_followup_query(backend, toy_topic, UserKind.CRF,
                                        self.make_state(), ["old query"],
                                        on_anomaly=anomalies.append)
        assert query == "old query"
        assert len(backend.requests) == 2
        assert anomalies

    def test_requires_a_judgment_and_feedback_kind(self, toy_topic):
        with pytest.raises(ValueError):
            generate_followup_query(ConstantBackend("x"), toy_topic, UserKind.CRF,
                                    KnowledgeState(), [])
        with pytest.raises(ValueError):
            generate_followup_query(ConstantBackend("x"), toy_topic, UserKind.FTTC,
                                    self.make_state(), [])

    def test_followup_temperature_is_one(self, toy_topic):
        backend = CapturingBackend(ConstantBackend("something else"))
        generate_followup_query(backend, toy_topic, UserKind.CRF,
                                self.make_state(), ["q"])
        assert backend.requests[0].temperature == 1.0


class TestTemplates:
    def test_default_templates_complete(self):
        templates = PromptTemplates.default()
        for name in PromptTemplates.REQUIRED:
            assert name in templates.mapping

    def test_missing_template_rejected(self):
        with pytest.raises(ValueError, match="judge"):
            PromptTemplates({"system": "x"})

    def test_packaged_template_set_is_exactly_the_required_one(self):
        root = Path(searchsim.__file__).parent / "templates"
        assert sorted(f.name for f in root.iterdir() if f.is_file()) == \
            sorted(f"{name}.txt" for name in PromptTemplates.REQUIRED)
        assert PromptTemplates.default().mapping == PromptTemplates.load_dir(root).mapping

    @pytest.mark.parametrize("name,text,message", [
        ("initial_queries", "{title}{document}{n_queries}",
         "template 'initial_queries' has unknown placeholders: document"),
        ("system", "You are a {role_name} {}", "template 'system' has unknown placeholders: "),
        ("followup_query", "{title\n{past_queries}", "template 'followup_query': "),
        ("judge", "{title}{document:{width}}", "template 'judge' has unknown placeholders: width"),
    ], ids=["task_field_of_another_template", "positional", "unmatched_brace",
            "nested_in_format_spec"])
    def test_bad_placeholder_rejected(self, name, text, message):
        mapping = dict(PromptTemplates.default().mapping)
        mapping[name] = text
        with pytest.raises(ValueError, match=re.escape(message)):
            PromptTemplates(mapping)

    def test_topic_templates_may_use_every_context_placeholder(self, toy_topic):
        mapping = dict(PromptTemplates.default().mapping)
        mapping["initial_queries"] = ("{title}{description}{narrative}{relevant_summary}"
                                      "{irrelevant_summary}{n_queries}")
        messages = build_initial_queries_prompt(toy_topic, UserKind.CRF, 2,
                                                templates=PromptTemplates(mapping))
        # no judgment precedes the initial prompt, so its summary fields are empty
        assert messages[-1].content == (f"Title: {toy_topic.title}\n"
                                        f"Description: {toy_topic.description}\n"
                                        f"Narrative: {toy_topic.narrative}\n2")

    def test_load_dir_roundtrip(self, tmp_path):
        defaults = PromptTemplates.default()
        for name, text in defaults.mapping.items():
            (tmp_path / f"{name}.txt").write_text(text, encoding="utf-8")
        loaded = PromptTemplates.load_dir(tmp_path)
        assert loaded.mapping == defaults.mapping

    def test_custom_template_changes_prompt(self, toy_topic, tmp_path):
        defaults = PromptTemplates.default()
        mapping = dict(defaults.mapping)
        mapping["judge"] = "CUSTOM MARKER\n{title}{description}{narrative}" \
                           "{relevant_summary}{irrelevant_summary}\n{document}"
        templates = PromptTemplates(mapping)
        messages = build_judge_prompt(toy_topic, UserKind.TTT, None, "doc",
                                      templates=templates)
        assert "CUSTOM MARKER" in messages[-1].content

    def test_persona_in_system_message(self, toy_topic):
        persona = Persona(role_name="archivist", instruction_preamble="You file things.")
        messages = build_initial_queries_prompt(toy_topic, UserKind.FTTC, 3,
                                                templates=PromptTemplates.default(persona))
        assert messages[0].role == "system"
        assert "archivist" in messages[0].content
        assert "You file things." in messages[0].content

    def test_persona_validation(self):
        with pytest.raises(ValueError):
            Persona(role_name=" ")


class TestKindTables:
    def test_topic_context_table(self):
        assert TITLE_ONLY_KINDS == {UserKind.TTT, UserKind.CRF_PRIME}

    def test_kind_partitions(self):
        assert len(UserKind) == 8
        assert RANDOM_KINDS == {UserKind.RND, UserKind.RND_STAR}
        assert LLM_KINDS == {UserKind.TTT, UserKind.FTTC, UserKind.PRF, UserKind.NRF,
                             UserKind.CRF, UserKind.CRF_PRIME}
        assert FEEDBACK_KINDS == {UserKind.PRF, UserKind.NRF, UserKind.CRF,
                                  UserKind.CRF_PRIME}

    def test_scripted_end_to_end_determinism(self, toy_topic):
        backend = ScriptedBackend()
        a = generate_initial_queries(backend, toy_topic, UserKind.CRF, n_queries=5)
        b = generate_initial_queries(ScriptedBackend(), toy_topic, UserKind.CRF, n_queries=5)
        assert a == b


class TestPromptMatrixPin:
    """One sha256 over every prompt the builders make for the six LLM kinds.

    Each kind is rendered against four knowledge states (no summary, relevant
    only, irrelevant only, both), so a summary the kind does not read is
    covered too, and against a topic with and one without description and
    narrative. The summarization prompt is included for both polarities.
    """

    DIGEST = "84fd92fb7028ed535cc81b502b86b2a0e3d0be5c368885a2ee48c47d17465856"

    def states(self):
        states = []
        for rel, irr in ((None, None), ("rel summary", None), (None, "irr summary"),
                         ("rel summary", "irr summary")):
            state = KnowledgeState()
            state.record("d1", "text one", True)
            state.record("d2", "text two", False)
            state.relevant_summary, state.irrelevant_summary = rel, irr
            states.append(state)
        return states

    def test_prompt_matrix_is_pinned(self, toy_topic):
        bare = Topic(topic_id="402", title="hive permits", description="", narrative="")
        llm_kinds = [k for k in UserKind if k not in (UserKind.RND, UserKind.RND_STAR)]
        prompts = []
        for topic in (toy_topic, bare):
            for kind in llm_kinds:
                prompts.append(build_initial_queries_prompt(topic, kind, 4))
                prompts.append(build_judge_prompt(topic, kind, None, "the document"))
                prompts.append(build_followup_prompt(topic, kind, KnowledgeState(), ["q1"]))
                for state in self.states():
                    prompts.append(build_judge_prompt(topic, kind, state, "the document"))
                    prompts.append(build_followup_prompt(topic, kind, state,
                                                         ["q1", "q2"]))
        for relevant in (True, False):
            prompts.append(build_summarize_prompt(["one", "two"], relevant, max_words=50))
        payload = json.dumps([[[m.role, m.content] for m in p] for p in prompts])
        assert len(prompts) == 2 * 6 * 11 + 2
        assert hashlib.sha256(payload.encode("utf-8")).hexdigest() == self.DIGEST
