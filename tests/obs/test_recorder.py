"""Tests for ObsConfig and RunObserver."""

from __future__ import annotations

import json

from repro.obs import ObsConfig, RunObserver
from repro.sim.tracing import TimelineTracer


class TestObsConfig:
    def test_disabled_by_default(self) -> None:
        assert not ObsConfig.disabled().enabled
        assert not ObsConfig().enabled

    def test_enabled_with_either_output(self, tmp_path) -> None:
        assert ObsConfig(trace_dir=tmp_path).enabled
        assert ObsConfig(metrics_path=tmp_path / "m.jsonl").enabled


class TestDisabledObserver:
    def test_every_method_is_a_noop(self) -> None:
        obs = RunObserver(ObsConfig.disabled())
        obs.record("tick", x=1)
        obs.note_seed("s", 1)
        obs.note_config(a=2)
        obs.add_span("p", "t", "n", 0.0, 1.0)
        tracer = TimelineTracer()
        tracer.record("t", "cpu", 0.0, 1.0)
        assert obs.observe_tracer("p", tracer) == 0
        assert len(obs.metrics) == 0
        assert len(obs.trace) == 0
        assert obs.finalize() == []


class TestEnabledObserver:
    def test_records_carry_kind(self, tmp_path, metrics_rows) -> None:
        obs = RunObserver(ObsConfig(metrics_path=tmp_path / "m.jsonl"))
        obs.record("tick", time=1.0, action="nop")
        assert metrics_rows(obs) == [
            {"kind": "tick", "time": 1.0, "action": "nop"}
        ]

    def test_record_cleans_non_json_values(self, tmp_path, metrics_rows) -> None:
        obs = RunObserver(ObsConfig(metrics_path=tmp_path / "m.jsonl"))
        obs.record("run", cores=frozenset({2, 1}), path=tmp_path)
        row = metrics_rows(obs)[0]
        assert sorted(row["cores"]) == [1, 2]
        assert row["path"] == str(tmp_path)

    def test_finalize_writes_all_outputs(self, tmp_path) -> None:
        obs = RunObserver(
            ObsConfig(trace_dir=tmp_path / "out", metrics_path=tmp_path / "m.jsonl"),
            name="unit",
        )
        obs.record("tick", time=0.0)
        obs.metrics.counter("c").inc()
        obs.add_span("p", "t", "n", 0.0, 1.0)
        written = obs.finalize(command="unit test")
        names = sorted(p.name for p in written)
        assert names == ["m.jsonl", "trace.json", "unit.manifest.json"]
        rows = [json.loads(line) for line in (tmp_path / "m.jsonl").open()]
        kinds = {row["kind"] for row in rows}
        assert kinds == {"tick", "metric"}
        manifest = json.loads((tmp_path / "out" / "unit.manifest.json").read_text())
        assert manifest["command"] == "unit test"
        assert str(tmp_path / "m.jsonl") in manifest["outputs"]

    def test_finalize_is_idempotent(self, tmp_path) -> None:
        obs = RunObserver(ObsConfig(metrics_path=tmp_path / "m.jsonl"))
        first = obs.finalize()
        assert obs.finalize() == first

    def test_metrics_only_manifest_lands_next_to_metrics(self, tmp_path) -> None:
        obs = RunObserver(
            ObsConfig(metrics_path=tmp_path / "m.jsonl"), name="solo"
        )
        written = obs.finalize()
        assert tmp_path / "solo.manifest.json" in written

    def test_context_manager_finalizes(self, tmp_path) -> None:
        with RunObserver(ObsConfig(metrics_path=tmp_path / "m.jsonl")) as obs:
            obs.record("tick", time=0.0)
        assert (tmp_path / "m.jsonl").exists()

    def test_observe_tracer_counts_intervals(self, tmp_path) -> None:
        obs = RunObserver(ObsConfig(trace_dir=tmp_path))
        tracer = TimelineTracer()
        tracer.record("ml", "cpu", 0.0, 1.0)
        tracer.record("ml", "tpu", 1.0, 2.0)
        assert obs.observe_tracer("run", tracer) == 2
        assert len(obs.trace) == 2

    def test_note_seed_reaches_manifest(self, tmp_path) -> None:
        obs = RunObserver(ObsConfig(trace_dir=tmp_path), name="seeded")
        obs.note_seed("fleet.seed", 42)
        obs.note_config(machines=100)
        obs.finalize()
        manifest = json.loads((tmp_path / "seeded.manifest.json").read_text())
        assert manifest["seeds"] == {"fleet.seed": 42}
        assert manifest["config"]["machines"] == 100


class TestColocationExport:
    def test_record_colocation_emits_streams(
        self, tmp_path, metrics_rows
    ) -> None:
        from repro.experiments.common import MixConfig, run_colocation

        obs = RunObserver(
            ObsConfig(metrics_path=tmp_path / "m.jsonl"), name="mix"
        )
        run_colocation(
            MixConfig(ml="cnn1", policy="KP", cpu="stitch", intensity=2,
                      duration=10.0, warmup=3.0),
            observer=obs,
            label="unit-mix",
        )
        rows = metrics_rows(obs)
        kinds: dict[str, int] = {}
        for row in rows:
            kinds[row["kind"]] = kinds.get(row["kind"], 0) + 1
        assert kinds.get("run") == 1
        assert kinds.get("solver_stats") == 1
        assert kinds.get("tick", 0) > 0
        assert kinds.get("telemetry", 0) > 0
        tick = next(r for r in rows if r["kind"] == "tick")
        assert {"time", "action_hi", "action_lo", "backfill_cores",
                "lo_cores", "lo_prefetchers"} <= set(tick)
        assert obs.metrics.counter("colocation.controller_ticks").value > 0
