"""The package has no runtime dependency: the CLI imports the standard library only.
Its bundled test collection is what ``scripts/make_fixture.py`` writes."""
from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from searchsim.fixtures import CAMPAIGN, CORPUS, QRELS, REPLIES, TOPICS, fixture_path

ROOT = Path(__file__).resolve().parent.parent


def test_cli_import_loads_no_third_party_http_client():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import searchsim.cli, sys; "
            "print(sorted({'requests', 'urllib3'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_pyproject_declares_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == []


def test_fixture_script_writes_the_bundled_collection(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("make_fixture",
                                                  ROOT / "scripts" / "make_fixture.py")
    make_fixture = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_fixture)
    monkeypatch.setattr(make_fixture, "OUT", tmp_path)
    make_fixture.main()
    names = sorted((CAMPAIGN, CORPUS, QRELS, REPLIES, TOPICS))
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == fixture_path(name).read_bytes(), name
