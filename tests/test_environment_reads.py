"""Only reference mode reads the environment.

Every other knob is a command-line flag or a function argument, so a run's
command line says everything that shaped it. The check walks each module's
syntax tree; nothing is imported.
"""

from __future__ import annotations

import ast
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: The one module allowed to read the environment (``REPRO_REFERENCE``).
_ALLOWED = "reference.py"

_NAMES = frozenset({"environ", "getenv"})


def _environment_reads(root: Path) -> list[str]:
    """``path:line`` of every ``os.environ``/``os.getenv`` use under root."""
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        lines = set()
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in _NAMES
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"
            ) or (
                isinstance(node, ast.ImportFrom)
                and node.module == "os"
                and any(alias.name in _NAMES for alias in node.names)
            ):
                lines.add(node.lineno)
        name = path.relative_to(root).as_posix()
        found.extend(f"{name}:{line}" for line in sorted(lines))
    return found


def test_only_reference_mode_reads_the_environment() -> None:
    reads = _environment_reads(_SRC)
    assert [r for r in reads if not r.startswith(f"{_ALLOWED}:")] == []
    assert reads, "reference mode's read was not seen"


def test_walk_sees_every_form(tmp_path: Path) -> None:
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "knobs.py").write_text(
        "import os\n"
        "a = os.environ.get('A')\n"
        "b = os.getenv('B')\n"
        "from os import environ\n"
        "c = os.path.join('x', 'y')  # allowed\n",
        encoding="utf-8",
    )
    assert _environment_reads(tmp_path) == [
        "pkg/knobs.py:2", "pkg/knobs.py:3", "pkg/knobs.py:4",
    ]
