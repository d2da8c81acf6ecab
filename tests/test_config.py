from __future__ import annotations

import json
import re
from dataclasses import fields, replace
from pathlib import Path

import pytest

from searchsim.agents import Persona
from searchsim.cli import main
from searchsim.config import CampaignConfig, ConfigError
from searchsim.fixtures import CAMPAIGN, fixture_path
from searchsim.session import CostModel, SessionPolicy, SnippetStopRule


# (session key, value) pairs that the loader must reject, naming the key
BAD_SESSION_VALUES = [
    ("max_queries", 0),
    ("max_queries", "5"),
    ("max_queries", 2.5),
    ("p_random", 1.5),
    ("snippet_max_chars", 10),
    ("queries_per_session", 0),
    ("max_summary_words", 0),
]


def write_raw(tmp_path, raw):
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


def minimal_raw():
    return {
        "collection": {
            "corpus": str(fixture_path("corpus.trectext")),
            "topics": str(fixture_path("topics.txt")),
            "qrels": str(fixture_path("qrels.txt")),
        },
    }


class TestFromFile:
    def test_minimal_config_gets_defaults(self, tmp_path):
        config = CampaignConfig.from_file(write_raw(tmp_path, minimal_raw()))
        assert config.validate() == []
        assert config.policy.max_queries == 10
        assert config.cost_model.query_cost == 10.0
        assert config.backend_kind == "scripted"
        assert config.persona.role_name == "journalist"

    def test_missing_collection_key(self, tmp_path):
        raw = minimal_raw()
        del raw["collection"]["qrels"]
        with pytest.raises(ConfigError, match="qrels"):
            CampaignConfig.from_file(write_raw(tmp_path, raw))

    def test_unknown_user_kind(self, tmp_path):
        for user, shown in [("SUPERUSER", '"SUPERUSER"'), (5, "5")]:
            raw = minimal_raw()
            raw["users"] = ["FTTC", user]
            with pytest.raises(ConfigError, match=re.escape(
                    "users must hold user kinds out of RND, RND_STAR, TTT, FTTC, PRF, NRF, CRF, "
                    f"CRF_PRIME, not {shown}")):
                CampaignConfig.from_file(write_raw(tmp_path, raw))

    def test_config_must_be_an_object(self, tmp_path):
        with pytest.raises(ConfigError, match="config must be a JSON object, not list"):
            CampaignConfig.from_file(write_raw(tmp_path, [minimal_raw()]))

    def test_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{definitely not json", encoding="utf-8")
        with pytest.raises(ConfigError):
            CampaignConfig.from_file(path)

    def test_invalid_policy_value(self, tmp_path):
        for key, value in BAD_SESSION_VALUES:
            raw = minimal_raw()
            raw["session"] = {key: value}
            with pytest.raises(ConfigError, match=key):
                CampaignConfig.from_file(write_raw(tmp_path, raw))

    # json reads NaN and Infinity, and json.dumps writes them
    @pytest.mark.parametrize("key, value", [
        ("costs.query", float("nan")), ("costs.query", float("inf")),
        ("index.k1", float("nan")), ("index.k1", float("inf")), ("index.k1", -1),
        ("index.b", float("nan")), ("index.b", 7.0), ("index.b", -0.5),
    ], ids=["cost_nan", "cost_inf", "k1_nan", "k1_inf", "k1_negative", "b_nan", "b_7",
            "b_negative"])
    def test_non_finite_cost_or_bad_bm25_parameter_is_refused(self, tmp_path, capsys,
                                                               key, value):
        raw = minimal_raw()
        raw["output_dir"] = str(tmp_path / "out")
        section, name = key.split(".")
        raw[section] = {name: value}
        path = write_raw(tmp_path, raw)
        with pytest.raises(ConfigError, match=f"^{key} must be"):
            CampaignConfig.from_file(path)
        for command in ("index", "simulate"):
            assert main([command, "--config", str(path)]) == 1
            assert f"{key} must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("timeout", [float("inf"), 1e12], ids=["infinity", "1e12"])
    def test_timeout_a_socket_cannot_hold_is_refused(self, tmp_path, capsys, timeout):
        raw = minimal_raw()
        raw["output_dir"] = str(tmp_path / "out")
        raw["llm"] = {"timeout": timeout}
        path = write_raw(tmp_path, raw)
        for command in ("index", "simulate"):
            assert main([command, "--config", str(path)]) == 1
            assert "llm.timeout must be in (0, " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # a misspelled key at the top level and in each section the loader reads
    @pytest.mark.parametrize("key", ["campaing_seed", "collection.topic", "index.k_1",
                                     "session.max_querys", "costs.querry", "llm.time_out",
                                     "persona.role", "session.stop_rule.kinds"])
    def test_unknown_key_is_refused_by_name(self, tmp_path, capsys, key):
        raw = minimal_raw()
        raw["output_dir"] = str(tmp_path / "out")
        *sections, name = key.split(".")
        target = raw
        for section in sections:
            target = target.setdefault(section, {})
        target[name] = 1
        path = write_raw(tmp_path, raw)
        with pytest.raises(ConfigError, match=f"^unknown config keys: {re.escape(key)}$"):
            CampaignConfig.from_file(path)
        for command in ("index", "simulate"):
            assert main([command, "--config", str(path)]) == 1
            assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_every_misspelled_key_is_named(self, tmp_path):
        raw = json.loads(fixture_path(CAMPAIGN).read_text(encoding="utf-8"))
        for name in ("corpus", "topics", "qrels"):
            raw["collection"][name] = str(fixture_path(raw["collection"][name]))
        CampaignConfig.from_file(write_raw(tmp_path, raw))
        raw["session"]["max_querys"] = 2
        raw["costs"]["querry"] = 99
        raw["campaing_seed"] = 7
        with pytest.raises(ConfigError, match=re.escape(
                "unknown config keys: campaing_seed, session.max_querys, costs.querry")):
            CampaignConfig.from_file(write_raw(tmp_path, raw))

    def test_default_stop_rule_reaches_at_most_the_results(self, tmp_path):
        raw = minimal_raw()
        raw["session"] = {"page_size": 5}
        config = CampaignConfig.from_file(write_raw(tmp_path, raw))
        assert (config.policy.stop_rule.kind, config.policy.stop_rule.value) == ("fixed_depth", 5)
        raw["session"] = {"page_size": 5, "max_pages_per_query": 3}
        config = CampaignConfig.from_file(write_raw(tmp_path, raw))
        assert config.policy.stop_rule.value == 10

    @pytest.mark.parametrize("field_map", ["oops", ["id", "docno"], {"id": 5}, {"body": None}],
                             ids=["string", "array", "number_value", "null_value"])
    def test_field_map_must_be_an_object_of_strings(self, tmp_path, capsys, field_map):
        raw = minimal_raw()
        raw["collection"].update(format="jsonl", field_map=field_map)
        path = write_raw(tmp_path, raw)
        with pytest.raises(ConfigError, match="collection.field_map"):
            CampaignConfig.from_file(path)
        assert main(["index", "--config", str(path)]) == 1
        assert "collection.field_map" in capsys.readouterr().err

    def test_field_map_of_strings_loads(self, tmp_path):
        raw = minimal_raw()
        raw["collection"].update(format="jsonl", field_map={"id": "docno", "body": "text"})
        config = CampaignConfig.from_file(write_raw(tmp_path, raw))
        assert config.field_map == {"id": "docno", "body": "text"}

    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        corpus = tmp_path / "c.trectext"
        corpus.write_text("<DOC><DOCNO>a</DOCNO><TEXT>x</TEXT></DOC>", encoding="utf-8")
        raw = minimal_raw()
        raw["collection"]["corpus"] = "c.trectext"
        config = CampaignConfig.from_file(write_raw(tmp_path, raw))
        assert config.corpus_path == corpus
        assert len(config.load_documents()) == 1


class TestValidate:
    def test_reports_unknown_format_and_backend(self, tmp_path):
        raw = minimal_raw()
        raw["collection"]["format"] = "warc"
        raw["llm"] = {"backend": "telepathy"}
        config = CampaignConfig.from_file(write_raw(tmp_path, raw))
        problems = " ; ".join(config.validate())
        assert "warc" in problems
        assert "telepathy" in problems

    def test_http_backend_needs_endpoint_and_model(self, tmp_path):
        raw = minimal_raw()
        raw["llm"] = {"backend": "http"}
        config = CampaignConfig.from_file(write_raw(tmp_path, raw))
        assert any("endpoint" in p for p in config.validate())

    def test_fixture_campaign_config_is_valid(self):
        config = CampaignConfig.from_file(fixture_path("campaign.json"))
        assert config.validate() == []
        assert len(config.users) == 8

    def test_readme_config_example_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        example = readme.split("\n## Config file\n", 1)[1].split("```jsonc\n", 1)[1]
        raw = json.loads(re.sub(r"\s*//.*", "", example.split("\n```", 1)[0]))
        for name in ("corpus", "topics", "qrels"):
            raw["collection"][name] = str(fixture_path(raw["collection"][name]))
        assert CampaignConfig.from_file(write_raw(tmp_path, raw)).validate() == []

    def test_fixture_campaign_hash_is_pinned(self):
        config = CampaignConfig.from_file(fixture_path("campaign.json"))
        assert config.semantic_hash() == (
            "76aa86be6387a16481d1d7bc9e0ca2dc1a3dbec51c1e6ee976058ba4de99dade")


def _another_valid(value):
    if isinstance(value, SnippetStopRule):
        return replace(value, value=value.value - 1)
    if isinstance(value, str):
        return value + " again"
    if isinstance(value, float):
        return value / 2  # keeps p_random in [0, 1]
    return value + 1


@pytest.mark.parametrize("part, name", [
    (part, f.name)
    for part, cls in (("policy", SessionPolicy), ("cost_model", CostModel),
                      ("persona", Persona))
    for f in fields(cls)
])
def test_every_session_cost_and_persona_field_changes_the_hash(part, name):
    config = CampaignConfig.from_file(fixture_path("campaign.json"))
    before = config.semantic_hash()
    settings = getattr(config, part)
    setattr(config, part, replace(settings, **{name: _another_valid(getattr(settings, name))}))
    assert config.semantic_hash() != before
