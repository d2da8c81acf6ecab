"""The benchmark harness in ``benchmark/`` reaches into the library by module
attribute: ``tracing`` replaces functions on the modules that call them, and
``checks`` pages through ``search``. These tests fail when a rename or a
signature change would leave the harness measuring nothing, or when its
oracles disagree with the library on the bundled collection."""
from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

import searchsim.index
from searchsim import config, session
from searchsim.agents import UserKind
from searchsim.cli import main
from searchsim.fixtures import CAMPAIGN, fixture_path
from searchsim.index import build_index
from searchsim.llm import ScriptedBackend
from searchsim.session import SNIPPET_VIEWED, SessionPolicy

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"


@pytest.fixture(scope="module")
def harness():
    sys.path.insert(0, str(BENCHMARK))
    try:
        return importlib.import_module("checks"), importlib.import_module("tracing")
    finally:
        sys.path.remove(str(BENCHMARK))


def test_every_wrapped_attribute_exists(harness):
    _, tracing = harness
    missing = [f"{module.__name__}.{attr}" for module, attr, _ in tracing.WRAPPED
               if not callable(getattr(module, attr, None))]
    assert missing == []


def test_install_traces_a_session_and_uninstall_restores(harness, fixture_collection):
    _, tracing = harness
    docs, topics, qrels = fixture_collection
    index = build_index(docs)
    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in tracing.WRAPPED]
    make_backend = config.CampaignConfig.make_backend
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(getattr(module, attr) is not original
                   for module, attr, original in originals)
        log = session.run_session(topics[0], UserKind.FTTC, index, qrels,
                                  policy=SessionPolicy(max_queries=2, page_size=5,
                                                       queries_per_session=5),
                                  backend=ScriptedBackend())
    finally:
        tracer.uninstall()
    assert all(getattr(module, attr) is original for module, attr, original in originals)
    assert config.CampaignConfig.make_backend is make_backend
    names = [span[0] for span in tracer.spans]
    assert names.count("session.run") == 1
    assert names.count("index.search") == len(log.queries_issued) == 2
    # an LLM user's snippets are built one per row it views, inside its session
    viewed = sum(1 for it in log.interactions if it.kind == SNIPPET_VIEWED)
    assert viewed > 0
    assert names.count("index.snippet") == viewed


def test_check_search_finds_no_problems(harness, fixture_collection):
    checks, _ = harness
    docs, topics, _ = fixture_collection
    queries = [t.title for t in topics] + ["offshore wind farm permits", "the city council"]
    assert checks.check_search(build_index(docs), searchsim.index.search, queries, 2, 5) == []


def test_check_evaluation_finds_no_problems(harness, tmp_path):
    checks, _ = harness
    config_path, out = str(fixture_path(CAMPAIGN)), tmp_path / "out"
    assert main(["index", "--config", config_path, "--out", str(out)]) == 0
    assert main(["simulate", "--config", config_path, "--out", str(out)]) == 0
    assert main(["evaluate", "--logs", str(out / "logs")]) == 0
    assert checks.check_evaluation(out / "logs", out / "eval") == []


@pytest.fixture(scope="module")
def bench_run():
    saved = list(sys.path)  # run.py puts its own directory on the path
    sys.path.insert(0, str(BENCHMARK))
    try:
        return importlib.import_module("run")
    finally:
        sys.path[:] = saved


@pytest.mark.parametrize("backend", ["scripted", "http"])
def test_benchmark_configs_load(bench_run, tmp_path, backend):
    endpoint = "http://127.0.0.1:9/v1/chat/completions" if backend == "http" else None
    for name, workload in bench_run.WORKLOADS.items():
        path = tmp_path / f"{name}.json"
        bench_run.write_config(path, workload, 1, backend, endpoint)
        loaded = config.CampaignConfig.from_file(path)
        assert [kind.value for kind in loaded.users] == list(workload.users), name
        assert loaded.policy.max_queries == workload.max_queries, name
        assert loaded.backend_kind == backend, name
