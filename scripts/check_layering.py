#!/usr/bin/env python
"""Enforce the package layering of the control-plane architecture.

The refactor's layer diagram (see ``docs/architecture.md``) only stays true
if imports keep flowing downward. This checker walks every module under
``src/repro`` with :mod:`ast` (no imports are executed) and fails when a
package imports a layer it must not know about:

* ``repro.hw`` — the machine model — must not import ``repro.core`` or
  ``repro.control`` (policies and the control plane sit *above* the
  hardware they manipulate);
* ``repro.control`` — sensors/governors/actuators — must not import
  ``repro.experiments`` or ``repro.fleet`` (the control plane serves the
  harnesses, never the reverse);
* ``repro.hostif`` — the simulated host interfaces — must not import
  ``repro.core`` (a kernel interface does not know which policy drives it);
* ``repro.fleet`` / ``repro.control`` / ``repro.obs`` — must not import
  ``repro.incidents`` (the incident layer watches and manipulates the
  fleet through its public hooks; nothing below it may know it exists);
* ``repro.serve`` — the serving control plane — sits directly below
  ``repro.experiments``: it may import ``repro.fleet``, ``repro.control``,
  ``repro.traces`` and ``repro.obs``, but nothing below the experiments
  layer may import ``repro.serve`` back.

Exit status: 0 when clean, 1 with one ``file:line`` diagnostic per
violation.

Usage::

    python scripts/check_layering.py [--root src/repro]
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

#: layer -> packages it must never import (checked transitively over every
#: module file below the layer's directory).
FORBIDDEN: dict[str, frozenset[str]] = {
    "hw": frozenset({"core", "control", "serve"}),
    "control": frozenset({"experiments", "fleet", "incidents", "serve"}),
    "hostif": frozenset({"core", "serve"}),
    "fleet": frozenset({"incidents", "serve"}),
    "obs": frozenset({"incidents", "serve"}),
    "sim": frozenset({"serve"}),
    "traces": frozenset({"serve"}),
    "workloads": frozenset({"serve"}),
    "core": frozenset({"serve"}),
    "incidents": frozenset({"serve"}),
    "serve": frozenset({"experiments", "incidents"}),
}

_PACKAGE = "repro"


def _imported_packages(tree: ast.AST) -> list[tuple[str, int]]:
    """Every ``repro.<pkg>`` top-level package imported, with line numbers."""
    found: list[tuple[str, int]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == _PACKAGE and len(parts) > 1:
                    found.append((parts[1], node.lineno))
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative: resolved by the caller's package
                continue
            if node.module is None:
                continue
            parts = node.module.split(".")
            if parts[0] == _PACKAGE:
                if len(parts) > 1:
                    found.append((parts[1], node.lineno))
                else:  # ``from repro import x`` — x names the package
                    found.extend(
                        (alias.name, node.lineno) for alias in node.names
                    )
    return found


def check_layering(root: Path) -> list[str]:
    """Return one diagnostic per layering violation under ``root``."""
    violations: list[str] = []
    for layer, forbidden in sorted(FORBIDDEN.items()):
        layer_dir = root / layer
        files = sorted(layer_dir.rglob("*.py")) if layer_dir.is_dir() else []
        module = root / f"{layer}.py"
        if module.is_file():
            files.append(module)
        for path in files:
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for package, lineno in _imported_packages(tree):
                if package in forbidden:
                    violations.append(
                        f"{path}:{lineno}: layer '{layer}' must not import "
                        f"'{_PACKAGE}.{package}'"
                    )
    return violations


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        default=Path(__file__).resolve().parent.parent / "src" / _PACKAGE,
        type=Path,
        help="package root to check (default: src/repro)",
    )
    args = parser.parse_args(argv)
    violations = check_layering(args.root)
    for line in violations:
        print(line, file=sys.stderr)
    if violations:
        print(f"{len(violations)} layering violation(s)", file=sys.stderr)
        return 1
    checked = ", ".join(sorted(FORBIDDEN))
    print(f"layering OK ({checked})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
