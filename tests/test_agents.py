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
    LLMUser,
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
from searchsim.corpus import Topic
from searchsim.llm import (
    TAG_QUERY_GENERATION,
    TAG_RELEVANCE_JUDGMENT,
    TAG_SUMMARIZATION,
    BackendError,
    ChatResponse,
    ScriptedBackend,
)
from backends import CapturingBackend, llm_user


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
        queries = generate_initial_queries(llm_user(UserKind.FTTC, toy_topic, backend), 2)
        assert queries == ["a b", "c d"]

    def test_ttt_prompt_contains_title_only(self, toy_topic):
        backend = CapturingBackend(ConstantBackend("1. q1\n2. q2"))
        generate_initial_queries(llm_user(UserKind.TTT, toy_topic, backend), 2)
        prompt = backend.prompts()[0]
        assert toy_topic.title in prompt
        assert toy_topic.description not in prompt
        assert toy_topic.narrative not in prompt

    def test_fttc_prompt_contains_all_fields_verbatim(self, toy_topic):
        backend = CapturingBackend(ConstantBackend("1. q1\n2. q2"))
        generate_initial_queries(llm_user(UserKind.FTTC, toy_topic, backend), 2)
        prompt = backend.prompts()[0]
        for fieldtext in (toy_topic.title, toy_topic.description, toy_topic.narrative):
            assert fieldtext in prompt

    def test_truncates_to_requested_count(self, toy_topic):
        backend = ConstantBackend("\n".join(f"{i}. query {i}" for i in range(1, 13)))
        queries = generate_initial_queries(llm_user(UserKind.FTTC, toy_topic, backend), 5)
        assert len(queries) == 5

    def test_unparseable_retries_once_then_raises(self, toy_topic):
        backend = CapturingBackend(ConstantBackend(""))
        with pytest.raises(QueryGenerationError):
            generate_initial_queries(llm_user(UserKind.FTTC, toy_topic, backend), 3)
        assert len(backend.requests) == 2
        assert "exactly 3" in backend.requests[1].prompt_text()

    def test_short_list_accepted_after_retry_with_anomaly(self, toy_topic):
        backend = SequenceBackend(["1. only one", "1. only one"])
        anomalies = []
        user = llm_user(UserKind.FTTC, toy_topic, backend, on_anomaly=anomalies.append)
        queries = generate_initial_queries(user, 4)
        assert queries == ["only one"]
        assert len(anomalies) == 1

    def test_random_kinds_rejected(self, toy_topic):
        for kind in RANDOM_KINDS:
            with pytest.raises(ValueError, match="randomly"):
                llm_user(kind, toy_topic, ConstantBackend("1. x"))

    def test_request_uses_query_generation_params(self, toy_topic):
        backend = CapturingBackend(ConstantBackend("1. a\n2. b"))
        generate_initial_queries(llm_user(UserKind.FTTC, toy_topic, backend), 2)
        request = backend.requests[0]
        assert request.temperature == 1.0
        assert request.seed == 0
        assert request.tag == TAG_QUERY_GENERATION


class TestNaiveQueries:
    def test_three_term_vocabulary_forced(self):
        topic = Topic(topic_id="1", title="alpha beta gamma")
        query = generate_query_naive(topic, random.Random(0), on_anomaly=pytest.fail)
        assert sorted(query.split()) == ["alpha", "beta", "gamma"]

    def test_fixed_seed_reproducible(self, toy_topic):
        q1 = generate_query_naive(toy_topic, random.Random(42), on_anomaly=pytest.fail)
        q2 = generate_query_naive(toy_topic, random.Random(42), on_anomaly=pytest.fail)
        assert q1 == q2

    def test_terms_are_distinct_and_from_topic(self, toy_topic):
        query = generate_query_naive(toy_topic, random.Random(3), on_anomaly=pytest.fail).split()
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
            for term in generate_query_naive(topic, rng, on_anomaly=pytest.fail).split():
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
        verdict = decide_relevance_llm(
            llm_user(UserKind.FTTC, toy_topic, ConstantBackend("RELEVANT")), "some document")
        assert verdict is True

    def test_prf_empty_state_prompt_identical_to_fttc(self, toy_topic):
        fttc = build_judge_prompt(llm_user(UserKind.FTTC, toy_topic), "doc text")
        prf = build_judge_prompt(llm_user(UserKind.PRF, toy_topic), "doc text")
        assert [m.content for m in fttc] == [m.content for m in prf]

    def test_crf_with_both_sides_has_both_sections(self, toy_topic):
        state = KnowledgeState()
        state.record("r1", True, "relevant doc text")
        state.relevant_summary = "summary of the good ones"
        state.record("i1", False, "irrelevant doc text")
        state.irrelevant_summary = "summary of the bad ones"
        user = llm_user(UserKind.CRF, toy_topic, state=state)
        prompt = "\n".join(m.content for m in build_judge_prompt(user, "doc"))
        assert "summary of the good ones" in prompt
        assert "summary of the bad ones" in prompt

    def test_unreadable_reply_asks_once_then_defaults_false(self, toy_topic):
        backend = CapturingBackend(ConstantBackend("hmm, unclear"))
        anomalies = []
        user = llm_user(UserKind.FTTC, toy_topic, backend, on_anomaly=anomalies.append)
        verdict = decide_relevance_llm(user, "doc")
        assert verdict is False
        assert len(backend.requests) == 1
        assert anomalies == ["judgment reply matched neither yes nor no; "
                             "treating as not relevant"]

    def test_judgment_request_params(self, toy_topic):
        backend = CapturingBackend(ConstantBackend("yes"))
        decide_relevance_llm(llm_user(UserKind.FTTC, toy_topic, backend), "doc")
        request = backend.requests[0]
        assert request.temperature == 0.0
        assert request.tag == TAG_RELEVANCE_JUDGMENT

    def test_random_kinds_rejected(self, toy_topic):
        for kind in RANDOM_KINDS:
            with pytest.raises(ValueError, match="randomly"):
                LLMUser(kind, toy_topic, ConstantBackend("yes"), PromptTemplates.default(),
                        pytest.fail)

    def test_a_user_without_a_backend_is_refused(self, toy_topic):
        for kind in LLM_KINDS:
            with pytest.raises(ValueError, match="requires a chat backend"):
                LLMUser(kind, toy_topic, None, PromptTemplates.default(), pytest.fail)


def seen(state, relevant):
    """The documents judged on one side, in judgment order."""
    return [d for d, r in state.judged.items() if r == relevant]


class TestKnowledgeState:
    def user(self, backend, **kwargs):
        return llm_user(UserKind.CRF, Topic(topic_id="1", title="t"), backend, **kwargs)

    def test_first_relevant_doc_creates_relevant_summary_only(self):
        user = self.user(ConstantBackend("a tidy summary"))
        update_knowledge_state(user, "d1", "body one", True, 200)
        state = user.state
        assert state.relevant_summary == "a tidy summary"
        assert state.irrelevant_summary is None
        assert seen(state, True) == ["d1"]
        assert seen(state, False) == []
        assert state.judged == {"d1": True}

    def test_double_judgment_rejected(self):
        user = self.user(ConstantBackend("s"))
        update_knowledge_state(user, "d1", "b", True, 200)
        with pytest.raises(ValueError):
            update_knowledge_state(user, "d1", "b", False, 200)

    def test_summarization_prompt_contains_all_same_side_texts(self):
        backend = CapturingBackend(ConstantBackend("s"))
        user = self.user(backend)
        bodies = [f"unique body text number {i}" for i in range(3)]
        for i, body in enumerate(bodies):
            update_knowledge_state(user, f"d{i}", body, True, 200)
        final_prompt = backend.prompts(TAG_SUMMARIZATION)[-1]
        for body in bodies:
            assert body in final_prompt

    def test_sides_are_independent(self):
        backend = CapturingBackend(SequenceBackend(["rel summary", "irr summary"]))
        user = self.user(backend)
        update_knowledge_state(user, "r", "good text", True, 200)
        update_knowledge_state(user, "i", "bad text", False, 200)
        assert user.state.relevant_summary == "rel summary"
        assert user.state.irrelevant_summary == "irr summary"
        irr_prompt = backend.prompts(TAG_SUMMARIZATION)[-1]
        assert "bad text" in irr_prompt
        assert "good text" not in irr_prompt

    def test_backend_failure_keeps_previous_summary_and_judgment(self):
        anomalies = []
        user = self.user(ConstantBackend("first summary"), on_anomaly=anomalies.append)
        update_knowledge_state(user, "d1", "b1", True, 200)
        user.backend = FailingBackend()
        update_knowledge_state(user, "d2", "b2", True, 200)
        assert user.state.relevant_summary == "first summary"
        assert seen(user.state, True) == ["d1", "d2"]
        assert anomalies

    def test_a_failure_other_than_a_backend_error_propagates(self):
        class Broken:
            def complete(self, request):
                raise RuntimeError("a bug")

        user = self.user(Broken())
        with pytest.raises(RuntimeError, match="a bug"):
            update_knowledge_state(user, "d1", "b1", True, 200)
        assert seen(user.state, True) == ["d1"]  # the judgment is kept

    def test_seen_lists_disjoint_and_order_preserving_fuzzed(self):
        rng = random.Random(77)
        for _ in range(30):
            user = self.user(ConstantBackend("s"))
            state = user.state
            expected_rel, expected_irr = [], []
            for i in range(rng.randrange(0, 12)):
                relevant = rng.random() < 0.5
                doc_id = f"d{i}"
                (expected_rel if relevant else expected_irr).append(doc_id)
                update_knowledge_state(user, doc_id, f"b{i}", relevant, 200)
            assert seen(state, True) == expected_rel
            assert seen(state, False) == expected_irr
            assert not set(seen(state, True)) & set(seen(state, False))
            assert set(state.judged) == set(expected_rel) | set(expected_irr)

    def test_a_judgment_recorded_without_text_keeps_none(self):
        state = KnowledgeState()
        state.record("r1", True, "kept text")
        state.record("i1", False)
        state.record("r2", True, "second text")
        assert state.judged == {"r1": True, "i1": False, "r2": True}
        assert state.texts_for(True) == ["kept text", "second text"]
        assert state.texts_for(False) == []


class TestFollowupQueries:
    def make_user(self, kind, topic, backend, **kwargs):
        state = KnowledgeState()
        state.record("d1", True, "text one")
        state.relevant_summary = "the relevant summary text"
        state.record("d2", False, "text two")
        state.irrelevant_summary = "the irrelevant summary text"
        return llm_user(kind, topic, backend, state=state, **kwargs)

    def test_distinct_reply_returned_verbatim(self, toy_topic):
        user = self.make_user(UserKind.CRF, toy_topic, ConstantBackend("fresh new angle"))
        query = generate_followup_query(user, ["old query"])
        assert query == "fresh new angle"

    def test_crf_prime_prompt_title_and_summaries_only(self, toy_topic):
        backend = CapturingBackend(ConstantBackend("next query"))
        generate_followup_query(self.make_user(UserKind.CRF_PRIME, toy_topic, backend), ["q1"])
        prompt = backend.prompts()[0]
        assert toy_topic.title in prompt
        assert toy_topic.description not in prompt
        assert toy_topic.narrative not in prompt
        assert "the relevant summary text" in prompt
        assert "the irrelevant summary text" in prompt

    def test_nrf_prompt_has_irrelevant_summary_only(self, toy_topic):
        backend = CapturingBackend(ConstantBackend("next query"))
        generate_followup_query(self.make_user(UserKind.NRF, toy_topic, backend), ["q1"])
        prompt = backend.prompts()[0]
        assert "the irrelevant summary text" in prompt
        assert "the relevant summary text" not in prompt

    def test_past_queries_listed_in_prompt(self, toy_topic):
        backend = CapturingBackend(ConstantBackend("brand new"))
        generate_followup_query(self.make_user(UserKind.PRF, toy_topic, backend),
                                ["first query", "second query"])
        prompt = backend.prompts()[0]
        assert "first query" in prompt
        assert "second query" in prompt

    def test_duplicate_retried_then_accepted_with_anomaly(self, toy_topic):
        backend = CapturingBackend(ConstantBackend("old query"))
        anomalies = []
        user = self.make_user(UserKind.CRF, toy_topic, backend, on_anomaly=anomalies.append)
        query = generate_followup_query(user, ["old query"])
        assert query == "old query"
        assert len(backend.requests) == 2
        assert anomalies

    def test_requires_a_judgment_and_feedback_kind(self, toy_topic):
        with pytest.raises(ValueError):
            generate_followup_query(llm_user(UserKind.CRF, toy_topic, ConstantBackend("x")), [])
        with pytest.raises(ValueError):
            generate_followup_query(self.make_user(UserKind.FTTC, toy_topic,
                                                   ConstantBackend("x")), [])

    def test_followup_temperature_is_one(self, toy_topic):
        backend = CapturingBackend(ConstantBackend("something else"))
        generate_followup_query(self.make_user(UserKind.CRF, toy_topic, backend), ["q"])
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
        user = llm_user(UserKind.CRF, toy_topic, templates=PromptTemplates(mapping))
        messages = build_initial_queries_prompt(user, 2)
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
        messages = build_judge_prompt(llm_user(UserKind.TTT, toy_topic, templates=templates),
                                      "doc")
        assert "CUSTOM MARKER" in messages[-1].content

    def test_persona_in_system_message(self, toy_topic):
        persona = Persona(role_name="archivist", instruction_preamble="You file things.")
        user = llm_user(UserKind.FTTC, toy_topic, templates=PromptTemplates.default(persona))
        messages = build_initial_queries_prompt(user, 3)
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
        a = generate_initial_queries(llm_user(UserKind.CRF, toy_topic, backend), 5)
        b = generate_initial_queries(llm_user(UserKind.CRF, toy_topic, ScriptedBackend()), 5)
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
            state.record("d1", True, "text one")
            state.record("d2", False, "text two")
            state.relevant_summary, state.irrelevant_summary = rel, irr
            states.append(state)
        return states

    def test_prompt_matrix_is_pinned(self, toy_topic):
        bare = Topic(topic_id="402", title="hive permits", description="", narrative="")
        llm_kinds = [k for k in UserKind if k not in (UserKind.RND, UserKind.RND_STAR)]
        prompts = []
        for topic in (toy_topic, bare):
            for kind in llm_kinds:
                fresh = llm_user(kind, topic)
                prompts.append(build_initial_queries_prompt(fresh, 4))
                prompts.append(build_judge_prompt(fresh, "the document"))
                prompts.append(build_followup_prompt(fresh, ["q1"]))
                for state in self.states():
                    user = llm_user(kind, topic, state=state)
                    prompts.append(build_judge_prompt(user, "the document"))
                    prompts.append(build_followup_prompt(user, ["q1", "q2"]))
        for relevant in (True, False):
            prompts.append(build_summarize_prompt(PromptTemplates.default(), ["one", "two"],
                                                  relevant, max_words=50))
        payload = json.dumps([[[m.role, m.content] for m in p] for p in prompts])
        assert len(prompts) == 2 * 6 * 11 + 2
        assert hashlib.sha256(payload.encode("utf-8")).hexdigest() == self.DIGEST
