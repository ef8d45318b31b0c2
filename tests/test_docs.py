"""The python examples in the docs parse, and every keyword they pass to an
exported dataclass names one of its fields (a wrong one is a TypeError for
whoever copies the example)."""

from __future__ import annotations

import ast
import dataclasses
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = sorted((ROOT / "docs").glob("*.md")) + [ROOT / "README.md"]

#: The modules whose exported dataclasses the examples construct.
MODULES = (
    "repro", "repro.control", "repro.fleet", "repro.traces", "repro.obs",
    "repro.serve", "repro.incidents", "repro.experiments.common",
)

_BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)


def _dataclass_fields() -> dict[str, set[str]]:
    """Exported dataclass name -> the fields its constructor takes."""
    fields: dict[str, set[str]] = {}
    for name in MODULES:
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", None) or [
            attr for attr in vars(module) if not attr.startswith("_")
        ]
        for attr in exported:
            cls = getattr(module, attr)
            if isinstance(cls, type) and dataclasses.is_dataclass(cls):
                fields[attr] = {f.name for f in dataclasses.fields(cls) if f.init}
    return fields


def _blocks(doc: Path) -> list[str]:
    return _BLOCK.findall(doc.read_text(encoding="utf-8"))


@pytest.mark.parametrize("doc", DOCS, ids=lambda doc: doc.name)
def test_python_blocks_parse(doc: Path) -> None:
    for block in _blocks(doc):
        ast.parse(block)


@pytest.mark.parametrize("doc", DOCS, ids=lambda doc: doc.name)
def test_dataclass_keywords_name_fields(doc: Path) -> None:
    fields = _dataclass_fields()
    wrong = []
    for block in _blocks(doc):
        for node in ast.walk(ast.parse(block)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name not in fields:
                continue
            wrong += [
                f"{name}({keyword.arg}=...)" for keyword in node.keywords
                if keyword.arg is not None and keyword.arg not in fields[name]
            ]
    assert not wrong, f"{doc.name}: {wrong}"
