"""The package surface: the README's library example runs as written, and
every name the package exports resolves."""

from __future__ import annotations

import re

import factgate
from factgate.gate import Verdict

from conftest import REPO_ROOT


def test_readme_library_example_runs(monkeypatch):
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    (block,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    monkeypatch.chdir(REPO_ROOT)
    namespace: dict = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["decision"].verdict is Verdict.ANSWER


def test_every_exported_name_resolves():
    assert [name for name in factgate.__all__ if not hasattr(factgate, name)] == []
