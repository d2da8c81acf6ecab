from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from http.server import ThreadingHTTPServer

import pytest

from searchsim.cli import main
from searchsim.config import CampaignConfig
from searchsim.fixtures import CAMPAIGN, fixture_path
from searchsim.index import ENGLISH_STOPWORDS, build_index, save_index
from searchsim.metrics import aggregate_curves, information_gain_curve
from searchsim.agents import PromptTemplates, UserKind
from searchsim.session import (
    END_QUERIES_EXHAUSTED,
    SESSION_ENDED,
    Interaction,
    SessionLog,
    read_session_log,
    write_session_log,
)

from test_config import BAD_SESSION_VALUES
from test_index import edit_v5, v2_file, v5_parts
from test_llm import _MockChatHandler


def write_config(tmp_path, *, users=("RND", "FTTC"), campaign_seed=0,
                 reply_table=None, anomaly_threshold=0, out="out",
                 max_queries=2, costs=None):
    config = {
        "collection": {
            "name": "fixture",
            "corpus": str(fixture_path("corpus.trectext")),
            "format": "trectext",
            "topics": str(fixture_path("topics.txt")),
            "qrels": str(fixture_path("qrels.txt")),
        },
        "index": {"stopwords": False, "stem": False, "k1": 1.2, "b": 0.75},
        "users": list(users),
        "session": {
            "max_queries": max_queries,
            "page_size": 3,
            "max_pages_per_query": 1,
            "stop_rule": {"kind": "fixed_depth", "value": 3},
            "queries_per_session": max_queries,
        },
        "costs": costs or {"query": 10.0, "snippet": 3.0, "document": 20.0,
                           "judgment": 5.0},
        "llm": {"backend": "scripted",
                "reply_table": reply_table and str(reply_table)},
        "campaign_seed": campaign_seed,
        "anomaly_threshold": anomaly_threshold,
        "output_dir": str(tmp_path / out),
    }
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return path


def yes_replies(tmp_path):
    """A reply table whose users issue on-topic queries and open every result."""
    replies = tmp_path / "replies.tsv"
    replies.write_text(
        "Would this text be useful\tYes\n"
        "Output only the numbered queries\t1. beekeeping permits\\n2. hive rules\n"
        "Output only the summary\tok\n",
        encoding="utf-8")
    return replies


def ended_log(topic_id: str) -> SessionLog:
    """An RND log of ``topic_id`` that ends before its first query."""
    return SessionLog(topic_id=topic_id, user_kind=UserKind.RND, seed=0, interactions=[
        Interaction(0, SESSION_ENDED, 0.0, {"reason": END_QUERIES_EXHAUSTED})])


def run_pipeline(tmp_path, config_path):
    assert main(["index", "--config", str(config_path)]) == 0
    assert main(["simulate", "--config", str(config_path)]) == 0


class TestCmdIndex:
    def test_stats_for_12_doc_corpus(self, tmp_path, capsys):
        blocks = "".join(
            f"<DOC><DOCNO>t{i}</DOCNO><TEXT>tiny document number {i}</TEXT></DOC>\n"
            for i in range(12))
        corpus = tmp_path / "tiny.trectext"
        corpus.write_text(blocks, encoding="utf-8")
        config_path = write_config(tmp_path)
        config = json.loads(config_path.read_text())
        config["collection"]["corpus"] = str(corpus)
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["index", "--config", str(config_path)]) == 0
        assert "n_docs=12" in capsys.readouterr().out

    def test_missing_corpus_is_validation_error(self, tmp_path):
        config_path = write_config(tmp_path)
        config = json.loads(config_path.read_text())
        config["collection"]["corpus"] = str(tmp_path / "nowhere.trectext")
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["index", "--config", str(config_path)]) == 1

    def test_rebuild_identical_bytes(self, tmp_path):
        config_path = write_config(tmp_path)
        assert main(["index", "--config", str(config_path)]) == 0
        first = (tmp_path / "out" / "index.json").read_bytes()
        assert main(["index", "--config", str(config_path)]) == 0
        assert (tmp_path / "out" / "index.json").read_bytes() == first

    def test_unreadable_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["index", "--config", str(bad)]) == 1

    def test_duplicate_docno_is_refused(self, tmp_path, capsys):
        corpus = tmp_path / "twice.trectext"
        corpus.write_text("<DOC><DOCNO>t1</DOCNO><TEXT>one</TEXT></DOC>\n"
                          "<DOC><DOCNO>t1</DOCNO><TEXT>two</TEXT></DOC>\n", encoding="utf-8")
        config_path = write_config(tmp_path)
        config = json.loads(config_path.read_text())
        config["collection"]["corpus"] = str(corpus)
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["index", "--config", str(config_path)]) == 1
        assert "error: duplicate doc_id 't1'" in capsys.readouterr().err
        assert not (tmp_path / "out" / "index.json").exists()


class TestCmdSimulate:
    def test_single_topic_rnd_writes_log_and_manifest(self, tmp_path):
        config_path = write_config(tmp_path, users=("RND",))
        run_pipeline(tmp_path, config_path)
        logs_dir = tmp_path / "out" / "logs"
        files = sorted(p.name for p in logs_dir.glob("*.jsonl"))
        assert files == ["801__RND.jsonl", "802__RND.jsonl", "803__RND.jsonl"]
        manifest = json.loads((logs_dir / "manifest.json").read_text())
        assert len(manifest["sessions"]) == 3
        assert {s["file"] for s in manifest["sessions"]} == set(files)

    def test_simulate_without_index_fails_validation(self, tmp_path):
        config_path = write_config(tmp_path)
        assert main(["simulate", "--config", str(config_path)]) == 1

    def test_rerun_produces_identical_files(self, tmp_path):
        config_path = write_config(tmp_path, users=("RND", "FTTC", "CRF"))
        run_pipeline(tmp_path, config_path)
        logs_dir = tmp_path / "out" / "logs"
        snapshot = {p.name: p.read_bytes() for p in logs_dir.glob("*")}
        assert main(["simulate", "--config", str(config_path)]) == 0
        for p in logs_dir.glob("*"):
            assert p.read_bytes() == snapshot[p.name], p.name

    @pytest.mark.parametrize("option, value", [("stem", True), ("stopwords", True),
                                               ("k1", 1.5), ("b", 0.5)])
    def test_index_built_with_other_options_fails_validation(self, tmp_path, capsys,
                                                             option, value):
        config_path = write_config(tmp_path, users=("RND",))
        assert main(["index", "--config", str(config_path)]) == 0
        config = json.loads(config_path.read_text())
        config["index"][option] = value
        config_path.write_text(json.dumps(config), encoding="utf-8")
        capsys.readouterr()
        assert main(["simulate", "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert option in err and "rebuild the index" in err
        assert not (tmp_path / "out" / "logs").exists()
        assert main(["index", "--config", str(config_path)]) == 0
        assert main(["simulate", "--config", str(config_path)]) == 0

    def test_index_with_another_stopword_list_is_named_with_both_sizes(self, tmp_path, capsys):
        config_path = write_config(tmp_path, users=("RND",))
        config = json.loads(config_path.read_text())
        config["index"]["stopwords"] = True
        config_path.write_text(json.dumps(config), encoding="utf-8")
        documents = CampaignConfig.from_file(config_path).load_documents()
        (tmp_path / "out").mkdir()
        save_index(build_index(documents, stopwords=frozenset({"the"})),
                   tmp_path / "out" / "index.json")
        assert main(["simulate", "--config", str(config_path)]) == 1
        assert (f"stopwords (the index holds a different stopword list: size 1 in the "
                f"index, {len(ENGLISH_STOPWORDS)} in the config)") in capsys.readouterr().err

    def test_version_2_index_fails_validation_with_rebuild_message(self, tmp_path, capsys):
        config_path = write_config(tmp_path, users=("RND",))
        assert main(["index", "--config", str(config_path)]) == 0
        index_path = tmp_path / "out" / "index.json"
        index_path.write_bytes(v2_file(index_path.read_bytes()))
        capsys.readouterr()
        assert main(["simulate", "--config", str(config_path)]) == 1
        assert "rerun `searchsim index`" in capsys.readouterr().err

    def test_unordered_postings_fail_validation_naming_the_index(self, tmp_path, capsys):
        config_path = write_config(tmp_path, users=("RND",))
        assert main(["index", "--config", str(config_path)]) == 0
        index_path = tmp_path / "out" / "index.json"
        data = index_path.read_bytes()
        postings = v5_parts(data)[2]
        # every term in two or more documents repeats its first ordinal
        repeated = {term: flat[:2] * 2 + flat[4:] for term, flat in postings.items()
                    if len(flat) >= 4}
        index_path.write_bytes(edit_v5(data, postings=repeated))
        capsys.readouterr()
        assert main(["simulate", "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert f"error: {index_path}: term " in err and "strictly ascending" in err
        assert not (tmp_path / "out" / "logs").exists()

    def test_text_that_is_not_utf8_fails_naming_the_index(self, tmp_path, capsys):
        # an LLM user: RND and RND_STAR read no document text
        config_path = write_config(tmp_path, users=("TTT",))
        assert main(["index", "--config", str(config_path)]) == 0
        index_path = tmp_path / "out" / "index.json"
        data = index_path.read_bytes()
        index_path.write_bytes(edit_v5(data, text=b"\xff" * len(v5_parts(data)[3])))
        capsys.readouterr()
        assert main(["simulate", "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert f"error: {index_path}: document " in err and "is not UTF-8" in err
        assert not (tmp_path / "out" / "logs").exists()

    def test_rnd_star_queries_match_fttc_in_written_logs(self, tmp_path):
        config_path = write_config(tmp_path, users=("FTTC", "RND_STAR"))
        run_pipeline(tmp_path, config_path)
        logs_dir = tmp_path / "out" / "logs"
        for topic in ("801", "802", "803"):
            fttc = read_session_log(logs_dir / f"{topic}__FTTC.jsonl")
            star = read_session_log(logs_dir / f"{topic}__RND_STAR.jsonl")
            assert star.queries_issued == fttc.queries_issued

    def test_duplicate_topic_ids_fail_validation(self, tmp_path, capsys):
        topics = fixture_path("topics.txt").read_text(encoding="utf-8")
        first = topics[:topics.index("</top>") + len("</top>")]
        (tmp_path / "topics.txt").write_text(topics + "\n" + first + "\n", encoding="utf-8")
        config_path = write_config(tmp_path, users=("RND",))
        config = json.loads(config_path.read_text())
        config["collection"]["topics"] = str(tmp_path / "topics.txt")
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["index", "--config", str(config_path)]) == 0
        capsys.readouterr()
        assert main(["simulate", "--config", str(config_path)]) == 1
        assert "duplicate topic id '801'" in capsys.readouterr().err

    def test_bad_session_values_fail_validation_at_load(self, tmp_path, capsys):
        for key, value in BAD_SESSION_VALUES:
            config_path = write_config(tmp_path)
            config = json.loads(config_path.read_text())
            config["session"][key] = value
            config_path.write_text(json.dumps(config), encoding="utf-8")
            for command in ("index", "simulate"):
                capsys.readouterr()
                assert main([command, "--config", str(config_path)]) == 1, (key, value)
                assert key in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("index.k1", "abc"),
        ("index.b", "x"),
        ("campaign_seed", "x"),
        ("anomaly_threshold", "many"),
        ("anomaly_threshold", -1),
        ("index.stem", "false"),
        ("index.stopwords", "no"),
        ("output_dir", 5),
        ("collection.corpus", 5),
        ("users", "FTTC"),
        ("llm.timeout", "soon"),
        ("llm.retries", "twice"),
        ("llm.timeout", 0),
        ("llm.retries", -1),
        ("llm.max_tokens", "lots"),
        ("llm.model", 5),
        ("costs.query", "cheap"),
        ("costs.query", -1),
        ("session.p_random", "often"),
        ("persona.role_name", 5),
        ("persona.instruction_preamble", ["be brief"]),
        # true is not a number, though float() and int() read it as 1
        *((key, True) for key in ("index.k1", "index.b", "costs.query", "llm.timeout",
                                  "llm.retries", "session.p_random", "campaign_seed",
                                  "anomaly_threshold")),
        ("campaign_seed", float("inf")),
        ("collection.name", 5),
        ("collection.format", 5),
        ("llm.backend", 5),
        # the owner's refusal, led by the key path
        ("session.stop_rule.kind", "bogus"),
        ("session.stop_rule.value", 50),
        ("persona.role_name", " "),
    ])
    def test_bad_config_type_fails_validation_at_load(self, tmp_path, capsys, key, value):
        config_path = write_config(tmp_path)
        config = json.loads(config_path.read_text())
        *sections, name = key.split(".")
        target = config
        for section in sections:
            target = target.setdefault(section, {})
        target[name] = value
        config_path.write_text(json.dumps(config), encoding="utf-8")
        for command in ("index", "simulate"):
            capsys.readouterr()
            assert main([command, "--config", str(config_path)]) == 1
            assert f"error: {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("name, text, message", [
        ("judge", None, "templates: missing templates: judge"),
        ("judge", "{title}{doc_title}\n{document}",
         "templates: template 'judge' has unknown placeholders: doc_title"),
        ("summarize", "{documents} in {doc_count} words",
         "templates: template 'summarize' has unknown placeholders: doc_count"),
        ("judge", "{title}\n{document:{width}}",
         "templates: template 'judge' has unknown placeholders: width"),
    ], ids=["missing_judge", "judge_doc_title", "summarize_doc_count", "judge_nested_spec"])
    def test_bad_templates_dir_fails_validation_before_any_session(
            self, tmp_path, capsys, name, text, message):
        templates_dir = tmp_path / "templates"
        templates_dir.mkdir()
        for stem, body in PromptTemplates.default().mapping.items():
            (templates_dir / f"{stem}.txt").write_text(body, encoding="utf-8")
        if text is None:
            (templates_dir / f"{name}.txt").unlink()
        else:
            (templates_dir / f"{name}.txt").write_text(text, encoding="utf-8")
        config_path = write_config(tmp_path, users=("FTTC", "CRF"))
        config = json.loads(config_path.read_text())
        config["templates_dir"] = str(templates_dir)
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["index", "--config", str(config_path)]) == 0
        capsys.readouterr()
        assert main(["simulate", "--config", str(config_path)]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out" / "logs").exists()

    def test_rnd_star_without_fttc_fails_validation(self, tmp_path, capsys):
        config_path = write_config(tmp_path, users=("RND_STAR",))
        assert main(["simulate", "--config", str(config_path)]) == 1
        assert "FTTC" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_1_fail_validation(self, tmp_path, capsys, workers):
        config_path = write_config(tmp_path)
        assert main(["index", "--config", str(config_path)]) == 0
        capsys.readouterr()
        assert main(["simulate", "--config", str(config_path), "--workers", workers]) == 1
        assert f"workers must be an integer >= 1, got {workers}" in capsys.readouterr().err
        assert not (tmp_path / "out" / "logs").exists()

    def test_topic_without_num_is_skipped_and_counted(self, tmp_path, capsys):
        topics = tmp_path / "topics.txt"
        topics.write_bytes(fixture_path("topics.txt").read_bytes()
                           + b"\n<top>\n<title> no number here\n</top>\n")
        config_path = write_config(tmp_path, users=("RND",))
        config = json.loads(config_path.read_text(encoding="utf-8"))
        config["collection"]["topics"] = str(topics)
        config_path.write_text(json.dumps(config), encoding="utf-8")
        run_pipeline(tmp_path, config_path)
        assert "topics=3 skipped=1\n" in capsys.readouterr().out

    def test_parse_counts_are_printed(self, tmp_path, capsys):
        topics = tmp_path / "topics.txt"
        topics.write_bytes(fixture_path("topics.txt").read_bytes()
                           + b"\n<top>\n<num> Number: 899\n<desc> no title\n</top>\n")
        fixture_qrels = fixture_path("qrels.txt").read_bytes()
        qrels = tmp_path / "qrels.txt"
        # a line of three columns, and the first line again
        qrels.write_bytes(fixture_qrels + b"801 0 FIX-801-001\n"
                          + fixture_qrels.splitlines(keepends=True)[0])
        config_path = write_config(tmp_path, users=("RND",))
        config = json.loads(config_path.read_text(encoding="utf-8"))
        config["collection"].update(topics=str(topics), qrels=str(qrels))
        config_path.write_text(json.dumps(config), encoding="utf-8")
        run_pipeline(tmp_path, config_path)
        counts = "qrels=30 skipped=1 warnings=1\n"
        assert f"topics=3 skipped=1\n{counts}" in capsys.readouterr().out
        assert main(["evaluate", "--logs", str(tmp_path / "out" / "logs"),
                     "--qrels", str(qrels)]) == 0
        assert capsys.readouterr().out.startswith(counts)

    def test_anomalies_over_threshold_exit_code(self, tmp_path):
        replies = tmp_path / "replies.tsv"
        replies.write_text(
            "Would this text be useful\tmaybe\n"
            "Output only the numbered queries\t1. beekeeping permits\\n2. hive rules\n"
            "Output only the summary\tok\n",
            encoding="utf-8")
        config_path = write_config(tmp_path, users=("FTTC",), reply_table=replies)
        assert main(["index", "--config", str(config_path)]) == 0
        assert main(["simulate", "--config", str(config_path)]) == 3

    def test_unreachable_http_endpoint_fails_at_probe(self, tmp_path):
        config_path = write_config(tmp_path, users=("FTTC",))
        config = json.loads(config_path.read_text())
        config["llm"] = {"backend": "http",
                         "endpoint": "http://127.0.0.1:9/v1/chat/completions",
                         "model": "some-model", "timeout": 0.5, "retries": 0}
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["index", "--config", str(config_path)]) == 0
        assert main(["simulate", "--config", str(config_path)]) == 2

    def test_workers_flag_keeps_output_identical(self, tmp_path):
        config_path = write_config(tmp_path, users=("RND", "FTTC", "RND_STAR"))
        run_pipeline(tmp_path, config_path)
        logs_dir = tmp_path / "out" / "logs"
        snapshot = {p.name: p.read_bytes() for p in logs_dir.glob("*.jsonl")}
        assert main(["simulate", "--config", str(config_path), "--workers", "4"]) == 0
        for name, content in snapshot.items():
            assert (logs_dir / name).read_bytes() == content

    def test_http_workers_bound_the_connections_open_at_once(self, tmp_path):
        class Counting(_MockChatHandler):
            """The mock endpoint, 20 ms slower, counting its open connections."""
            behaviors, requests_seen, headers_seen, paths_seen = [], [], [], []
            lock = threading.Lock()
            open_now = most = 0

            def handle(self):
                cls = type(self)
                with cls.lock:
                    cls.open_now += 1
                    cls.most = max(cls.most, cls.open_now)
                try:
                    time.sleep(0.02)
                    super().handle()
                finally:
                    with cls.lock:
                        cls.open_now -= 1

        server = ThreadingHTTPServer(("127.0.0.1", 0), Counting)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            config_path = write_config(tmp_path, users=("TTT", "FTTC", "PRF", "CRF"),
                                       anomaly_threshold=10**6)
            config = json.loads(config_path.read_text())
            config["llm"] = {"backend": "http", "model": "mock-model", "retries": 0,
                             "endpoint": f"http://127.0.0.1:{server.server_port}/v1/chat"}
            config_path.write_text(json.dumps(config), encoding="utf-8")
            assert main(["index", "--config", str(config_path)]) == 0
            assert main(["simulate", "--config", str(config_path), "--workers", "2"]) == 0
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        assert len(Counting.requests_seen) > 12  # every session asked
        assert Counting.most == 2


class TestCmdEvaluate:
    def test_curves_match_library_recomputation(self, tmp_path):
        config_path = write_config(tmp_path, users=("RND", "CRF"))
        run_pipeline(tmp_path, config_path)
        logs_dir = tmp_path / "out" / "logs"
        assert main(["evaluate", "--logs", str(logs_dir)]) == 0
        eval_dir = tmp_path / "out" / "eval"

        logs = [read_session_log(p) for p in sorted(logs_dir.glob("*__CRF.jsonl"))]
        curves = [information_gain_curve(log) for log in logs]
        expected = aggregate_curves(curves)
        lines = (eval_dir / "campaign.ig.CRF.csv").read_text().splitlines()[1:]
        assert len(lines) == len(expected)
        for line, (x, y, n) in zip(lines, expected):
            fx, fy, fn = line.split(",")
            assert float(fx) == pytest.approx(x)
            assert float(fy) == pytest.approx(y)
            assert int(fn) == n

    def test_no_judgment_logs_give_flat_zero_curves(self, tmp_path):
        replies = tmp_path / "replies.tsv"
        replies.write_text(
            "Would this text be useful\tNo\n"
            "Output only the numbered queries\t1. beekeeping permits\\n2. hive rules\n"
            "Output only the summary\tok\n",
            encoding="utf-8")
        config_path = write_config(tmp_path, users=("FTTC",), reply_table=replies)
        run_pipeline(tmp_path, config_path)
        assert main(["evaluate", "--logs", str(tmp_path / "out" / "logs")]) == 0
        lines = (tmp_path / "out" / "eval" / "campaign.ig.FTTC.csv"
                 ).read_text().splitlines()[1:]
        assert lines
        assert all(line.split(",")[1] == "0.0" for line in lines)

    def test_single_session_mean_equals_raw_curve(self, tmp_path):
        config_path = write_config(tmp_path, users=("RND",))
        run_pipeline(tmp_path, config_path)
        logs_dir = tmp_path / "out" / "logs"
        for extra in list(logs_dir.glob("802__*.jsonl")) + list(logs_dir.glob("803__*.jsonl")):
            extra.unlink()
        assert main(["evaluate", "--logs", str(logs_dir), "--force"]) == 0
        eval_dir = tmp_path / "out" / "eval"
        mean_rows = (eval_dir / "campaign.ig.RND.csv").read_text().splitlines()[1:]
        raw_rows = (eval_dir / "raw" / "801__RND.ig.csv").read_text().splitlines()[1:]
        raw_points = [tuple(map(float, r.split(","))) for r in raw_rows]
        # the mean grid is the set of the session's effort values; at every
        # grid point the mean of one curve is the curve itself
        assert [float(r.split(",")[0]) for r in mean_rows] == \
            sorted({x for x, _ in raw_points})
        for row in mean_rows:
            x, y, n = row.split(",")
            assert int(n) == 1
            assert float(y) == max(py for px, py in raw_points if px <= float(x))

    def test_mixed_config_hashes_refused_without_force(self, tmp_path, capsys):
        config_a = write_config(tmp_path, users=("RND",), campaign_seed=0, out="out_a")
        run_pipeline(tmp_path, config_a)
        config_b = write_config(tmp_path, users=("RND",), campaign_seed=9, out="out_b")
        run_pipeline(tmp_path, config_b)
        mixed = tmp_path / "mixed"
        mixed.mkdir()
        shutil.copy(tmp_path / "out_a" / "logs" / "801__RND.jsonl", mixed / "a.jsonl")
        shutil.copy(tmp_path / "out_b" / "logs" / "802__RND.jsonl", mixed / "b.jsonl")
        capsys.readouterr()
        assert main(["evaluate", "--logs", str(mixed)]) == 1
        assert "different campaign configs" in capsys.readouterr().err
        assert main(["evaluate", "--logs", str(mixed), "--force"]) == 0

    def test_log_not_listed_in_manifest_is_refused_unless_forced(self, tmp_path, capsys):
        config_path = write_config(tmp_path, users=("RND",))
        run_pipeline(tmp_path, config_path)
        logs = tmp_path / "out" / "logs"
        write_session_log(ended_log("extra"), logs)
        capsys.readouterr()
        assert main(["evaluate", "--logs", str(logs)]) == 1
        err = capsys.readouterr().err
        assert "1 session log(s)" in err and "extra__RND.jsonl" in err and "--force" in err
        assert not (tmp_path / "out" / "eval").exists()
        assert main(["evaluate", "--logs", str(logs), "--force"]) == 0
        rows = (tmp_path / "out" / "eval" / "campaign.ig.RND.csv").read_text().splitlines()
        assert rows[-1].endswith(",4")  # the three listed sessions and the extra one

    @pytest.mark.parametrize("force", [False, True])
    def test_two_logs_of_one_session_are_refused(self, tmp_path, capsys, force):
        config_path = write_config(tmp_path, users=("RND",))
        run_pipeline(tmp_path, config_path)
        logs = tmp_path / "out" / "logs"
        shutil.copy(logs / "801__RND.jsonl", logs / "zz_copy.jsonl")
        if not force:  # a manifest that lists both
            manifest = json.loads((logs / "manifest.json").read_text())
            manifest["sessions"].append({**manifest["sessions"][0], "file": "zz_copy.jsonl"})
            (logs / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        capsys.readouterr()
        assert main(["evaluate", "--logs", str(logs), *["--force"] * force]) == 1
        err = capsys.readouterr().err
        assert "801__RND.jsonl and zz_copy.jsonl" in err
        assert not (tmp_path / "out" / "eval").exists()

    def test_log_listed_in_manifest_but_missing(self, tmp_path, capsys):
        config_path = write_config(tmp_path, users=("RND", "FTTC"))
        run_pipeline(tmp_path, config_path)
        logs = tmp_path / "out" / "logs"
        manifest = json.loads((logs / "manifest.json").read_text())
        gone = manifest["sessions"][1]["file"]
        (logs / gone).unlink()
        capsys.readouterr()
        assert main(["evaluate", "--logs", str(logs)]) == 1
        assert gone in capsys.readouterr().err
        assert not (tmp_path / "out" / "eval").exists()
        assert main(["evaluate", "--logs", str(logs), "--force"]) == 0

    @pytest.mark.parametrize("manifest", ['{"sessions": [{"x": 1}]}', "{not json", "[]"],
                             ids=["session without file", "not JSON", "a JSON list"])
    def test_malformed_manifest_is_refused_naming_it(self, tmp_path, capsys, manifest):
        config_path = write_config(tmp_path, users=("RND",))
        run_pipeline(tmp_path, config_path)
        logs = tmp_path / "out" / "logs"
        (logs / "manifest.json").write_text(manifest, encoding="utf-8")
        capsys.readouterr()
        assert main(["evaluate", "--logs", str(logs)]) == 1
        assert f"error: {logs / 'manifest.json'} is not a " in capsys.readouterr().err
        assert not (tmp_path / "out" / "eval").exists()

    def test_missing_logs_dir(self, tmp_path):
        assert main(["evaluate", "--logs", str(tmp_path / "void")]) == 1

    def test_corrupt_log_is_refused(self, tmp_path):
        logs = tmp_path / "logs"
        logs.mkdir()
        (logs / "broken.jsonl").write_text("{definitely not a log\n", encoding="utf-8")
        assert main(["evaluate", "--logs", str(logs)]) == 1

    def test_log_with_a_deleted_line_is_refused_naming_it(self, tmp_path, capsys):
        config_path = write_config(tmp_path, users=("FTTC",),
                                   reply_table=yes_replies(tmp_path))
        run_pipeline(tmp_path, config_path)
        logs = tmp_path / "out" / "logs"
        path = logs / "801__FTTC.jsonl"
        lines = path.read_bytes().splitlines(keepends=True)
        assert len(lines) > 4
        path.write_bytes(b"".join(lines[:2] + lines[3:]))  # the record of seq 1
        capsys.readouterr()
        assert main(["evaluate", "--logs", str(logs)]) == 1
        err = capsys.readouterr().err
        assert f"error: {path}: bad session log, line 3: seq 2 is not" in err
        assert not (tmp_path / "out" / "eval").exists()

    def test_log_shorter_than_manifest_lists_is_refused_unless_forced(self, tmp_path,
                                                                      capsys):
        config_path = write_config(tmp_path, users=("CRF",),
                                   reply_table=yes_replies(tmp_path))
        run_pipeline(tmp_path, config_path)
        logs = tmp_path / "out" / "logs"
        path = logs / "801__CRF.jsonl"
        lines = path.read_bytes().splitlines(keepends=True)
        assert len(lines) > 5
        # the header, 3 interactions, and an end that numbers the log 4 long
        end = ('{"record":"interaction","seq":3,"kind":"SessionEnded","cost":0.0,'
               '"payload":{"reason":"queries_exhausted"}}\n')
        path.write_bytes(b"".join(lines[:4]) + end.encode("utf-8"))
        capsys.readouterr()
        assert main(["evaluate", "--logs", str(logs)]) == 1
        err = capsys.readouterr().err
        assert f"801__CRF.jsonl has 4, not {len(lines) - 1}" in err and "--force" in err
        assert not (tmp_path / "out" / "eval").exists()
        assert main(["evaluate", "--logs", str(logs), "--force"]) == 0

    @pytest.mark.parametrize("force", [False, True])
    def test_log_cut_before_its_end_is_refused_even_when_forced(self, tmp_path, capsys,
                                                                 force):
        config_path = write_config(tmp_path, users=("CRF",),
                                   reply_table=yes_replies(tmp_path))
        run_pipeline(tmp_path, config_path)
        logs = tmp_path / "out" / "logs"
        path = logs / "801__CRF.jsonl"
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:5]))  # the header and 4 interactions
        capsys.readouterr()
        assert main(["evaluate", "--logs", str(logs)] + ["--force"] * force) == 1
        err = capsys.readouterr().err
        assert (f"error: {path}: bad session log, line 5: the log ends without a "
                "SessionEnded record") in err
        assert not (tmp_path / "out" / "eval").exists()

    def test_log_that_is_not_utf8_is_reported_by_line(self, tmp_path, capsys):
        logs = tmp_path / "logs"
        logs.mkdir()
        (logs / "broken.jsonl").write_bytes(b"\xff\n")
        assert main(["evaluate", "--logs", str(logs)]) != 0
        assert "bad session log, line 1: " in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--sdcg-b", "1.5"), ("--sdcg-bq", "nan"),
                                             ("--sdcg-b", "inf")])
    def test_bad_sdcg_base_is_refused_before_any_output(self, tmp_path, capsys, flag, value):
        run_pipeline(tmp_path, write_config(tmp_path, users=("RND",)))
        capsys.readouterr()
        assert main(["evaluate", "--logs", str(tmp_path / "out" / "logs"), flag, value]) == 1
        assert f"{flag} must be a finite number >= 2, got {float(value)}" in \
            capsys.readouterr().err
        assert not (tmp_path / "out" / "eval").exists()

    def test_inspected_scope_needs_qrels(self, tmp_path):
        config_path = write_config(tmp_path, users=("RND",))
        run_pipeline(tmp_path, config_path)
        logs = str(tmp_path / "out" / "logs")
        assert main(["evaluate", "--logs", logs, "--scope", "inspected"]) == 1
        assert main(["evaluate", "--logs", logs, "--scope", "inspected",
                     "--qrels", str(fixture_path("qrels.txt"))]) == 0

    def test_raw_csv_names_stay_inside_raw_dir(self, tmp_path):
        logs = tmp_path / "run" / "logs"
        logs.mkdir(parents=True)
        write_session_log(ended_log("../escape"), logs)
        assert main(["evaluate", "--logs", str(logs)]) == 0
        eval_dir = tmp_path / "run" / "eval"
        assert sorted(p.name for p in (eval_dir / "raw").iterdir()) == [
            "___escape__RND.ig.csv", "___escape__RND.sdcg.csv"]
        assert not list(eval_dir.glob("escape*"))
        assert not list(tmp_path.rglob("escape*"))

    def test_unjudged_summary_written(self, tmp_path):
        config_path = write_config(tmp_path, users=("RND",))
        run_pipeline(tmp_path, config_path)
        assert main(["evaluate", "--logs", str(tmp_path / "out" / "logs")]) == 0
        summary = (tmp_path / "out" / "eval" / "unjudged_summary.csv").read_text()
        assert summary.splitlines()[0] == "user_kind,topic_id,unjudged_relevant_count"


class TestCmdReport:
    def test_report_prints_final_means(self, tmp_path, capsys):
        config_path = write_config(tmp_path, users=("RND", "FTTC"))
        run_pipeline(tmp_path, config_path)
        assert main(["evaluate", "--logs", str(tmp_path / "out" / "logs")]) == 0
        capsys.readouterr()
        assert main(["report", str(tmp_path / "out" / "eval")]) == 0
        out = capsys.readouterr().out
        assert "RND" in out and "FTTC" in out
        assert "ig" in out and "sdcg" in out

    def test_report_with_a_dotted_name(self, tmp_path, capsys):
        config_path = write_config(tmp_path, users=("RND",))
        run_pipeline(tmp_path, config_path)
        assert main(["evaluate", "--logs", str(tmp_path / "out" / "logs"),
                     "--name", "run.2"]) == 0
        assert (tmp_path / "out" / "eval" / "run.2.ig.RND.csv").is_file()
        capsys.readouterr()
        assert main(["report", str(tmp_path / "out" / "eval")]) == 0
        out = capsys.readouterr().out
        assert "RND" in out and "ig" in out and "sdcg" in out

    def test_report_reads_a_non_ascii_topic_id_in_the_c_locale(self, tmp_path):
        config_path = write_config(tmp_path, users=("RND",))
        run_pipeline(tmp_path, config_path)
        assert main(["evaluate", "--logs", str(tmp_path / "out" / "logs")]) == 0
        eval_dir = tmp_path / "out" / "eval"
        with open(eval_dir / "unjudged_summary.csv", "a", encoding="utf-8") as out:
            out.write("RND,café,2\n")
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0",
               "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run([sys.executable, "-m", "searchsim.cli", "report", str(eval_dir)],
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert "unjudged-but-relevant judgments across sessions: 2" in done.stdout

    def test_report_without_manifest(self, tmp_path):
        assert main(["report", str(tmp_path)]) == 1

    @pytest.mark.parametrize("broken", ["missing_csv", "not_json"])
    def test_broken_eval_dir_is_a_runtime_failure(self, tmp_path, capsys, broken):
        config_path = write_config(tmp_path, users=("RND",))
        run_pipeline(tmp_path, config_path)
        assert main(["evaluate", "--logs", str(tmp_path / "out" / "logs")]) == 0
        eval_dir = tmp_path / "out" / "eval"
        if broken == "missing_csv":
            (eval_dir / "campaign.ig.RND.csv").unlink()
        else:
            (eval_dir / "eval_manifest.json").write_text("{not json", encoding="utf-8")
        capsys.readouterr()
        assert main(["report", str(eval_dir)]) == 2
        assert capsys.readouterr().err.startswith("error: report failed: ")


class TestEndToEndDeterminism:
    def test_pipeline_byte_identical_across_runs(self, tmp_path):
        config_path = write_config(tmp_path, users=("RND", "FTTC", "CRF_PRIME"))

        def run_once(out_name):
            assert main(["index", "--config", str(config_path),
                         "--out", str(tmp_path / out_name)]) == 0
            assert main(["simulate", "--config", str(config_path),
                         "--out", str(tmp_path / out_name)]) == 0
            assert main(["evaluate", "--logs", str(tmp_path / out_name / "logs"),
                         "--out", str(tmp_path / out_name / "eval")]) == 0
            return {
                p.relative_to(tmp_path / out_name).as_posix(): p.read_bytes()
                for p in sorted((tmp_path / out_name).rglob("*")) if p.is_file()
            }

        assert run_once("run1") == run_once("run2")


class TestEvaluationOutputsPinned:
    # the name, length and bytes of every file that evaluate writes for the
    # bundled campaign (eight kinds, three topics, scripted replies)
    EVAL_SHA256 = "5e605dc194f9548736ab2dc9754404fc8b0d7ef06050023bcb0e55793175008f"

    def test_evaluation_outputs_are_pinned(self, tmp_path):
        config, out = str(fixture_path(CAMPAIGN)), tmp_path / "out"
        assert main(["index", "--config", config, "--out", str(out)]) == 0
        assert main(["simulate", "--config", config, "--out", str(out)]) == 0
        assert main(["evaluate", "--logs", str(out / "logs")]) == 0
        digest = hashlib.sha256()
        files = sorted(p for p in (out / "eval").rglob("*") if p.is_file())
        for path in files:
            data = path.read_bytes()
            name = path.relative_to(out / "eval").as_posix()
            digest.update(f"{name}\0{len(data)}\0".encode("utf-8") + data)
        assert len(files) == 2 * 24 + 2 * 8 + 2  # raw, mean curves, summary, manifest
        assert digest.hexdigest() == self.EVAL_SHA256


class TestConfigHash:
    def test_semantic_fields_change_hash(self, tmp_path):
        base = CampaignConfig.from_file(write_config(tmp_path))
        changed_cost = CampaignConfig.from_file(
            write_config(tmp_path, costs={"query": 1.0, "snippet": 3.0,
                                          "document": 20.0, "judgment": 5.0}))
        changed_seed = CampaignConfig.from_file(
            write_config(tmp_path, campaign_seed=42))
        assert base.semantic_hash() != changed_cost.semantic_hash()
        assert base.semantic_hash() != changed_seed.semantic_hash()

    def test_operational_fields_do_not_change_hash(self, tmp_path):
        base = CampaignConfig.from_file(write_config(tmp_path))
        moved = CampaignConfig.from_file(write_config(tmp_path, out="elsewhere"))
        assert base.semantic_hash() == moved.semantic_hash()

    def test_unused_template_file_does_not_change_hash(self, tmp_path):
        shipped = CampaignConfig.from_file(write_config(tmp_path)).semantic_hash()
        templates_dir = tmp_path / "templates"
        templates_dir.mkdir()
        for stem, body in PromptTemplates.default().mapping.items():
            (templates_dir / f"{stem}.txt").write_text(body, encoding="utf-8")
        config_path = write_config(tmp_path)
        config = json.loads(config_path.read_text())
        config["templates_dir"] = str(templates_dir)
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert CampaignConfig.from_file(config_path).semantic_hash() == shipped
        (templates_dir / "notes.txt").write_text("not a prompt {x}", encoding="utf-8")
        assert CampaignConfig.from_file(config_path).semantic_hash() == shipped

    def test_collection_content_changes_hash(self, tmp_path):
        config_path = write_config(tmp_path)
        base = CampaignConfig.from_file(config_path).semantic_hash()
        altered_corpus = tmp_path / "altered.trectext"
        altered_corpus.write_text(
            fixture_path("corpus.trectext").read_text(encoding="utf-8")
            + "<DOC><DOCNO>extra</DOCNO><TEXT>one more</TEXT></DOC>\n",
            encoding="utf-8")
        raw = json.loads(config_path.read_text())
        raw["collection"]["corpus"] = str(altered_corpus)
        config_path.write_text(json.dumps(raw), encoding="utf-8")
        assert CampaignConfig.from_file(config_path).semantic_hash() != base
