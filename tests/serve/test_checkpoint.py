"""Checkpoint/restore bit-identity — the serving control plane's core claim.

A service checkpointed at epoch T and restored — in this process or a
fresh one — must finish with byte-identical results (summary, windows,
epoch snapshots, command log) to the uninterrupted run.
"""

from __future__ import annotations

import hashlib
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
from repro.serve.service import _DIGEST_MARK
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


def _sealed(container: bytes, mark: bytes = _DIGEST_MARK) -> bytes:
    """``container`` as a checkpoint file with a valid digest trailer, so
    the reader gets past the digest to its decode and format checks."""
    return container + mark + hashlib.sha256(container).hexdigest().encode()


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
        foreign = pickle.dumps({"format": "something-else"})
        # With a valid trailer the in-container format tag refuses it;
        # without one the missing trailer does.
        for raw in (_sealed(foreign), foreign):
            path.write_bytes(raw)
            with pytest.raises(ConfigurationError, match="not a"):
                FleetService.restore(str(path))
            with pytest.raises(ConfigurationError, match="not a"):
                checkpoint_meta(str(path))

    def test_rejects_v1_checkpoint_before_unpickling(
        self, config, trace, tmp_path, capsys
    ) -> None:
        from repro.cli import main

        path = tmp_path / "ckpt.bin"
        service = FleetService(config, trace=trace, epoch_s=1.0)
        service.start()
        service.step()
        service.save(str(path))
        blob = pickle.loads(path.read_bytes())
        assert blob["format"] == CHECKPOINT_FORMAT == "repro-serve-checkpoint/v9"
        blob["format"] = "repro-serve-checkpoint/v1"
        path.write_bytes(_sealed(pickle.dumps(blob)))
        with pytest.raises(ConfigurationError, match="not a repro-serve-checkpoint/v9"):
            FleetService.restore(str(path), trace=trace)
        # A real v1 or v3 payload names classes that no longer exist; the
        # format check must refuse it before ``pickle.loads`` can hit them.
        # A v3 file also ends in the v3 digest trailer. A v4 payload still
        # unpickles, but without the simulator's event counter and with
        # the old fleet books, so it too must be refused by its tag, and so
        # must a v5 payload, whose inference lanes each hold their own
        # host-phase event, a v6 payload, whose host phases and PCIe
        # transfers schedule their own completions, a v7 payload, whose
        # machines, solvers, detectors and parked members carry other fields,
        # and a v8 payload, whose simulators keep the clock in ``_now`` and
        # whose telemetry accumulators integrate eagerly.
        v1 = b"crepro.hw.contention\n_KnobDict\n."
        v3 = b"crepro.core.kelp\nKelpRuntime\n."
        with pytest.raises(AttributeError):
            pickle.loads(v1)
        with pytest.raises(ModuleNotFoundError):
            pickle.loads(v3)
        v3_mark = _DIGEST_MARK.replace(b"/v9 ", b"/v3 ")
        v4_mark = _DIGEST_MARK.replace(b"/v9 ", b"/v4 ")
        v5_mark = _DIGEST_MARK.replace(b"/v9 ", b"/v5 ")
        v6_mark = _DIGEST_MARK.replace(b"/v9 ", b"/v6 ")
        v7_mark = _DIGEST_MARK.replace(b"/v9 ", b"/v7 ")
        v8_mark = _DIGEST_MARK.replace(b"/v9 ", b"/v8 ")
        stale = [
            _sealed(pickle.dumps({**blob, "payload": v1})),
            _sealed(
                pickle.dumps(
                    {**blob, "format": "repro-serve-checkpoint/v3", "payload": v3}
                ),
                v3_mark,
            ),
            _sealed(
                pickle.dumps({**blob, "format": "repro-serve-checkpoint/v4"}),
                v4_mark,
            ),
            _sealed(
                pickle.dumps({**blob, "format": "repro-serve-checkpoint/v5"}),
                v5_mark,
            ),
            _sealed(
                pickle.dumps({**blob, "format": "repro-serve-checkpoint/v6"}),
                v6_mark,
            ),
            _sealed(
                pickle.dumps({**blob, "format": "repro-serve-checkpoint/v7"}),
                v7_mark,
            ),
            _sealed(
                pickle.dumps({**blob, "format": "repro-serve-checkpoint/v8"}),
                v8_mark,
            ),
        ]
        for raw in stale:
            path.write_bytes(raw)
            message = "not a repro-serve-checkpoint/v9 checkpoint"
            with pytest.raises(ConfigurationError, match=message):
                FleetService.restore(str(path), trace=trace)
            with pytest.raises(ConfigurationError, match=message):
                checkpoint_meta(str(path))
            args = TestCorruptCheckpoint._ARGS + ["--restore", str(path)]
            assert main(args) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and message in err, err
            assert "Traceback" not in err

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
        # Intact (the digest matches) but undecodable: a decode error,
        # named as a foreign file.
        corrupt.write_bytes(_sealed(b"this is not a pickle"))
        with pytest.raises(
            ConfigurationError,
            match=r"not a repro-serve-checkpoint/v9 checkpoint \(UnpicklingError\)",
        ):
            FleetService.restore(str(corrupt))
        with pytest.raises(ConfigurationError, match="UnpicklingError"):
            checkpoint_meta(str(corrupt))


class TestCorruptCheckpoint:
    """A damaged checkpoint is refused with one named error line (exit 2),
    before its payload is unpickled: never a traceback or a silent restore."""

    _ARGS = [
        "fleet-serve", "--trace-duration", "40", "--trace-rate", "10",
        "--nodes", "2",
    ]

    def test_bit_flips_exit_2_with_one_line(self, tmp_path, capsys) -> None:
        import numpy as np

        from repro.cli import main

        ckpt = tmp_path / "ckpt.bin"
        assert main(self._ARGS + ["--save", str(ckpt), "--save-at", "20"]) == 0
        capsys.readouterr()
        raw = ckpt.read_bytes()
        payload = pickle.loads(raw)["payload"]
        start = raw.index(payload)
        end = start + len(payload)
        rng = np.random.default_rng(0)
        inside = rng.integers(start, end, size=12)
        outside = rng.integers(0, len(raw) - len(payload), size=24)
        outside = np.where(outside < start, outside, outside + len(payload))
        bad = tmp_path / "bad.bin"
        for position in np.concatenate([inside, outside]).tolist():
            flipped = bytearray(raw)
            flipped[position] ^= 1 << int(rng.integers(8))
            bad.write_bytes(bytes(flipped))
            assert main(self._ARGS + ["--restore", str(bad)]) == 2, position
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and err.startswith("fleet-serve: "), err
            assert str(bad) in err and "checkpoint" in err
            assert "Traceback" not in err

    def test_digest_is_checked_before_unpickling(
        self, config, trace, tmp_path, monkeypatch
    ) -> None:
        import repro.serve.service as service_module

        path = tmp_path / "ckpt.bin"
        service = FleetService(config, trace=trace, epoch_s=1.0)
        service.start()
        service.step()
        service.save(str(path))
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0x10
        path.write_bytes(bytes(raw))

        def refuse(*args, **kwargs):
            raise AssertionError("unpickled a damaged checkpoint")

        monkeypatch.setattr(service_module.pickle, "loads", refuse)
        with pytest.raises(ConfigurationError, match="digest mismatch"):
            FleetService.restore(str(path), trace=trace)
        with pytest.raises(ConfigurationError, match="digest mismatch"):
            checkpoint_meta(str(path))
