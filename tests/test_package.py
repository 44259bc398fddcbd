"""The package surface: the README's library example runs as written,
every name the package exports resolves, and every input format reports its
first malformed line as one ParseError."""

from __future__ import annotations

import gc
import re
import warnings

import pytest

import factgate
from factgate.constraints import parse_manifest
from factgate.evaluation import load_dataset, read_result_log
from factgate.extraction import parse_rules
from factgate.gate import Verdict
from factgate.kg import ParseError, parse_ntriples

from conftest import REPO_ROOT


def test_readme_library_example_runs(monkeypatch):
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    (block,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    monkeypatch.chdir(REPO_ROOT)
    namespace: dict = {}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        exec(compile(block, "README.md", "exec"), namespace)
        # A file the example left open warns when it is collected.
        gc.collect()
    assert namespace["decision"].verdict is Verdict.ANSWER
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_every_exported_name_resolves():
    assert [name for name in factgate.__all__ if not hasattr(factgate, name)] == []


def _text(parse):
    return lambda path: parse(path.read_text(encoding="utf-8"))


# Each input format: its reader, and a valid first line before a malformed one.
MALFORMED_SECOND_LINE = {
    "graph": (_text(parse_ntriples), "<a> <p> <b> .\n<a> <p>\n"),
    "manifest": (
        _text(parse_manifest),
        "C1 class_of_object predicate=<p> class=<C>\nC2 class_of_object class=<C>\n",
    ),
    "rules": (
        _text(parse_rules),
        'R1 "SUBJ near OBJ" predicate=<p> kind=entity\nR2 "SUBJ OBJ" kind=entity\n',
    ),
    "dataset": (
        load_dataset,
        '{"id": "q1", "question": "?", "gold_answer": "a", "entailed": false}\n'
        '{"id": "q2"}\n',
    ),
    "result log": (
        read_result_log,
        '{"item_id": "q1", "responded": "ABSTAINED", "licensed": false}\n'
        "not json\n",
    ),
}


@pytest.mark.parametrize("name", MALFORMED_SECOND_LINE)
def test_every_input_reports_its_malformed_line(name, tmp_path):
    read, text = MALFORMED_SECOND_LINE[name]
    path = tmp_path / "input"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError) as err:
        read(path)
    assert err.value.line == 2
    assert str(err.value) == f"line 2: {err.value.reason}"
