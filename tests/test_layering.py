"""The import-layering rules hold, and the checker can actually see."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def checker():
    spec = importlib.util.spec_from_file_location(
        "check_layering", _ROOT / "scripts" / "check_layering.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_repo_is_layer_clean(checker) -> None:
    assert checker.check_layering(_ROOT / "src" / "repro") == []


def test_checker_detects_violations(checker, tmp_path: Path) -> None:
    (tmp_path / "hostif").mkdir()
    (tmp_path / "hostif" / "bad.py").write_text(
        "from repro.core.actions import Action\n"
        "import repro.core.kelp\n"
        "from repro.hw.machine import Machine  # allowed\n",
        encoding="utf-8",
    )
    (tmp_path / "hw").mkdir()
    (tmp_path / "hw" / "worse.py").write_text(
        "from repro import control\n", encoding="utf-8"
    )
    violations = checker.check_layering(tmp_path)
    assert len(violations) == 3
    assert sum("'hostif' must not import 'repro.core'" in v for v in violations) == 2
    assert sum("'hw' must not import 'repro.control'" in v for v in violations) == 1


def test_checker_detects_serve_inversion(checker, tmp_path: Path) -> None:
    # The serving control plane sits directly below experiments: nothing
    # beneath it — fleet, control, obs, sim — may import it back.
    (tmp_path / "fleet").mkdir()
    (tmp_path / "fleet" / "bad.py").write_text(
        "from repro.serve.service import FleetService\n", encoding="utf-8"
    )
    (tmp_path / "sim").mkdir()
    (tmp_path / "sim" / "bad.py").write_text(
        "import repro.serve\n", encoding="utf-8"
    )
    violations = checker.check_layering(tmp_path)
    assert sum(
        "'fleet' must not import 'repro.serve'" in v for v in violations
    ) == 1
    assert sum(
        "'sim' must not import 'repro.serve'" in v for v in violations
    ) == 1


def test_serve_may_import_its_substrate(checker, tmp_path: Path) -> None:
    # Positive control: serve importing fleet/control/traces/obs is fine.
    (tmp_path / "serve").mkdir()
    (tmp_path / "serve" / "ok.py").write_text(
        "from repro.fleet.orchestrator import FleetOrchestrator\n"
        "from repro.control.sensors import SensorConfig\n"
        "from repro.traces.schema import trace_digest\n"
        "import repro.obs\n",
        encoding="utf-8",
    )
    assert checker.check_layering(tmp_path) == []


def test_checker_detects_incidents_inversion(checker, tmp_path: Path) -> None:
    # The incident layer sits on top: nothing below may import it.
    (tmp_path / "fleet").mkdir()
    (tmp_path / "fleet" / "bad.py").write_text(
        "from repro.incidents.engine import IncidentEngine\n",
        encoding="utf-8",
    )
    (tmp_path / "obs").mkdir()
    (tmp_path / "obs" / "bad.py").write_text(
        "import repro.incidents.faults\n", encoding="utf-8"
    )
    violations = checker.check_layering(tmp_path)
    assert sum(
        "'fleet' must not import 'repro.incidents'" in v for v in violations
    ) == 1
    assert sum(
        "'obs' must not import 'repro.incidents'" in v for v in violations
    ) == 1
