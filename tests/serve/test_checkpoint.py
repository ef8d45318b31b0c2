"""Checkpoint/restore bit-identity — the serving control plane's core claim.

A service checkpointed at epoch T and restored — in this process or a
fresh one — must finish with byte-identical results (summary, windows,
epoch snapshots, command log) to the uninterrupted run.
"""

from __future__ import annotations

import json
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.fleet.orchestrator import fleet_config_for_trace
from repro.serve import (
    CHECKPOINT_FORMAT,
    AutoscalerConfig,
    FleetService,
    checkpoint_meta,
)
from repro.traces import TraceGenConfig, generate_trace

_SRC = Path(__file__).resolve().parents[2] / "src"
_GEN = TraceGenConfig(seed=11, duration_s=20.0, rate_qps=12.0)


@pytest.fixture(scope="module")
def trace():
    return generate_trace(_GEN)


@pytest.fixture(scope="module")
def config(trace):
    return fleet_config_for_trace(trace, nodes=3, seed=5)


def _outcome(service: FleetService) -> tuple:
    result = service.finish()
    return (
        repr(result),
        tuple(s.as_dict() for s in service.snapshots),
        tuple(service.commands),
    )


def _run_with_plan(service: FleetService, save_path=None, save_at=None):
    """Drive to the end, applying a fixed command plan, optionally saving."""
    tenant = service.config.tenants[0].name
    while not service.done:
        if service.epoch == 3:
            service.evict_tenant(tenant)
        if service.epoch == 8:
            service.admit_tenant(tenant)
            service.swap_routing("random")
        if save_at is not None and service.epoch == save_at:
            service.save(save_path)
        service.step()
    return service


class TestRoundTrip:
    def test_restore_matches_uninterrupted(
        self, config, trace, tmp_path
    ) -> None:
        path = str(tmp_path / "ckpt.bin")
        original = FleetService(config, trace=trace, epoch_s=1.0)
        original.start()
        _run_with_plan(original, save_path=path, save_at=6)
        baseline = _outcome(original)

        restored = FleetService.restore(path, trace=trace)
        assert restored.epoch == 6
        _run_with_plan(restored)
        assert _outcome(restored) == baseline

    def test_restore_with_autoscaler_state(
        self, config, trace, tmp_path
    ) -> None:
        path = str(tmp_path / "ckpt.bin")
        scaler = AutoscalerConfig(
            min_nodes=1, max_nodes=4, epochs_down=2, cooldown_epochs=1
        )
        original = FleetService(
            config, trace=trace, epoch_s=1.0, autoscaler=scaler
        )
        original.start()
        while not original.done:
            if original.epoch == 7:
                original.save(path)
            original.step()
        baseline = _outcome(original)

        restored = FleetService.restore(path, trace=trace)
        while not restored.done:
            restored.step()
        assert _outcome(restored) == baseline

    def test_fresh_process_restore_is_bit_identical(
        self, config, trace, tmp_path
    ) -> None:
        path = tmp_path / "ckpt.bin"
        out = tmp_path / "restored.json"
        original = FleetService(config, trace=trace, epoch_s=1.0)
        original.start()
        _run_with_plan(original, save_path=str(path), save_at=6)
        baseline = _outcome(original)

        code = f"""
import json
from repro.serve import FleetService
from repro.traces import TraceGenConfig, generate_trace

trace = generate_trace(TraceGenConfig(
    seed={_GEN.seed}, duration_s={_GEN.duration_s}, rate_qps={_GEN.rate_qps},
))
service = FleetService.restore({str(path)!r}, trace=trace)
tenant = service.config.tenants[0].name
while not service.done:
    if service.epoch == 8:
        service.admit_tenant(tenant)
        service.swap_routing("random")
    service.step()
result = service.finish()
payload = {{
    "result": repr(result),
    "snapshots": [s.as_dict() for s in service.snapshots],
    "commands": [list(row) for row in service.commands],
}}
with open({str(out)!r}, "w") as handle:
    json.dump(payload, handle)
"""
        subprocess.run(
            [sys.executable, "-c", code],
            check=True,
            env={"PYTHONPATH": str(_SRC), "PATH": "/usr/bin:/bin"},
        )
        payload = json.loads(out.read_text())
        assert payload["result"] == baseline[0]
        assert tuple(payload["snapshots"]) == baseline[1]
        assert [tuple(row) for row in payload["commands"]] == list(baseline[2])

    def test_fresh_process_saves_are_byte_identical(self, tmp_path) -> None:
        """Two runs with the same flags write the same checkpoint bytes.

        Each save comes from its own process: within one process, sets
        hashed on ``id()`` can pickle in a different order from one build
        of the service graph to the next.
        """
        paths = [tmp_path / f"ckpt{i}.bin" for i in range(2)]
        for path in paths:
            subprocess.run(
                [
                    sys.executable, "-m", "repro", "fleet-serve",
                    "--trace-duration", "40", "--trace-rate", "10",
                    "--nodes", "2", "--save", str(path), "--save-at", "20",
                ],
                check=True,
                capture_output=True,
                env={"PYTHONPATH": str(_SRC), "PATH": "/usr/bin:/bin"},
            )
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestValidation:
    def test_meta_readable_without_state(self, config, trace, tmp_path) -> None:
        path = str(tmp_path / "ckpt.bin")
        service = FleetService(config, trace=trace, epoch_s=1.0)
        service.start()
        service.step()
        meta = service.save(path)
        assert checkpoint_meta(path) == meta
        assert meta["epoch"] == 1 and meta["time_s"] == 1.0

    def test_rejects_wrong_trace(self, config, trace, tmp_path) -> None:
        path = str(tmp_path / "ckpt.bin")
        service = FleetService(config, trace=trace, epoch_s=1.0)
        service.start()
        service.step()
        service.save(path)
        other = generate_trace(
            TraceGenConfig(seed=99, duration_s=20.0, rate_qps=12.0)
        )
        with pytest.raises(ConfigurationError, match="digest mismatch"):
            FleetService.restore(path, trace=other)
        with pytest.raises(ConfigurationError, match="pass the driving trace"):
            FleetService.restore(path)

    def test_rejects_foreign_file(self, tmp_path) -> None:
        path = tmp_path / "junk.bin"
        path.write_bytes(pickle.dumps({"format": "something-else"}))
        with pytest.raises(ConfigurationError, match="not a"):
            FleetService.restore(str(path))
        with pytest.raises(ConfigurationError, match="not a"):
            checkpoint_meta(str(path))

    def test_rejects_v1_checkpoint_before_unpickling(
        self, config, trace, tmp_path
    ) -> None:
        path = tmp_path / "ckpt.bin"
        service = FleetService(config, trace=trace, epoch_s=1.0)
        service.start()
        service.step()
        service.save(str(path))
        blob = pickle.loads(path.read_bytes())
        assert blob["format"] == CHECKPOINT_FORMAT == "repro-serve-checkpoint/v2"
        blob["format"] = "repro-serve-checkpoint/v1"
        path.write_bytes(pickle.dumps(blob))
        with pytest.raises(ConfigurationError, match="not a repro-serve-checkpoint/v2"):
            FleetService.restore(str(path), trace=trace)
        # A real v1 payload names classes that no longer exist; the format
        # check must refuse it before ``pickle.loads`` can hit them.
        stale = b"crepro.hw.contention\n_KnobDict\n."
        with pytest.raises(AttributeError):
            pickle.loads(stale)
        blob["payload"] = stale
        path.write_bytes(pickle.dumps(blob))
        with pytest.raises(ConfigurationError, match="not a repro-serve-checkpoint/v2"):
            FleetService.restore(str(path), trace=trace)
        with pytest.raises(ConfigurationError, match="not a repro-serve-checkpoint/v2"):
            checkpoint_meta(str(path))

    def test_rejects_missing_or_corrupt_file(self, tmp_path) -> None:
        missing = str(tmp_path / "nope.bin")
        with pytest.raises(ConfigurationError, match="cannot read checkpoint"):
            FleetService.restore(missing)
        with pytest.raises(ConfigurationError, match="cannot read checkpoint"):
            checkpoint_meta(missing)
        corrupt = tmp_path / "corrupt.bin"
        corrupt.write_bytes(b"this is not a pickle")
        with pytest.raises(ConfigurationError, match="not a"):
            FleetService.restore(str(corrupt))
