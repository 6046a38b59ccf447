import ast
import runpy
import sys
from pathlib import Path

import ctrend

DEMOS = Path(__file__).parent.parent / "demos"


def _run_demo(name, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", [name])
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    return capsys.readouterr().out


def test_news_pipeline_demo_runs(capsys, monkeypatch):
    out = _run_demo("news_pipeline.py", capsys, monkeypatch)
    assert "1. breaker" in out  # the planted breaker ranks first
    assert "peaks at tau = 2h" in out


def test_toy_trend_recovery_demo_runs(capsys, monkeypatch):
    out = _run_demo("toy_trend_recovery.py", capsys, monkeypatch)
    assert "peak at tau = 3 hours" in out  # the planted lag


def test_leader_ranking_demo_runs(capsys, monkeypatch):
    out = _run_demo("leader_ranking.py", capsys, monkeypatch)
    assert "top feed: leader" in out


def test_readme_library_example_runs(capsys):
    readme = (DEMOS.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("[('X', 0.89")  # the planted leader ranks first
    for line in lines[1:]:  # the fold-mean and the fold 0 correlogram
        rows = dict(ast.literal_eval(line))
        assert max(rows, key=lambda tau: rows[tau] or -1.0) == 3


def test_star_import_resolves_every_public_name():
    names = ctrend.__all__
    assert len(names) == len(set(names))
    namespace = {}
    exec("from ctrend import *", namespace)
    assert set(names) <= set(namespace)
