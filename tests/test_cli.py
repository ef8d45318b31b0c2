"""Tests for the CLI entry point."""

from __future__ import annotations

import pytest

from repro.cli import main


class TestCli:
    def test_list(self, capsys) -> None:
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig13" in out and "table1" in out

    def test_run_fig02(self, capsys) -> None:
        assert main(["run", "fig02"]) == 0
        assert "Fig 2" in capsys.readouterr().out

    def test_mix(self, capsys) -> None:
        code = main([
            "mix", "--ml", "cnn1", "--policy", "KP",
            "--cpu", "stitch", "--intensity", "2", "--duration", "12",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "ml_perf_norm" in out
        assert "controller" in out

    def test_mix_without_cpu(self, capsys) -> None:
        assert main(["mix", "--ml", "cnn2", "--duration", "12"]) == 0
        assert "cpu_throughput   0.000" in capsys.readouterr().out

    def test_fleet_sim(self, capsys) -> None:
        code = main([
            "fleet-sim", "--nodes", "2", "--policy", "KP",
            "--routing", "least-loaded", "--duration", "3",
            "--warmup", "1", "--batch-jobs", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fleet-sim: 2 nodes x KP (least-loaded routing)" in out
        assert "fleet efficiency" in out

    def test_run_ignores_jobs_the_experiment_does_not_take(self, capsys) -> None:
        assert main(["run", "table1", "--jobs", "2"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_missing_command_errors(self) -> None:
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "fig02", "--duration", "3"],  # fig02 takes no duration
            ["run", "fig09", "--ml", "cnn1"],  # fig09 takes no workload
            ["run", "nosuch"],
            ["run", "fig05", "--duration", "4"],  # horizon inside warmup
        ],
    )
    def test_bad_run_exits_2_with_one_line(self, argv, capsys) -> None:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"{argv[1]}: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["mix", "--ml", "rnn1", "--cpu", "stream", "--intensity", "0",
             "--duration", "8"],
            ["mix", "--ml", "rnn1", "--cpu", "stream", "--intensity", "L",
             "--duration", "8"],
            ["fleet-sim", "--batch-jobs", "1", "--batch-intensity", "L",
             "--duration", "4", "--warmup", "1"],
            ["mix", "--ml", "rnn1", "--cpu", "llc", "--intensity", "0",
             "--duration", "8"],
            ["mix", "--ml", "rnn1", "--cpu", "llc", "--intensity", "8",
             "--duration", "8"],
        ],
    )
    def test_bad_cpu_intensity_exits_2_with_one_line(self, argv, capsys) -> None:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"{argv[0]}: ") and "intensity" in lines[0]
        assert "Traceback" not in captured.err

    def test_llc_level_h_runs_the_llc_aggressor(self, capsys) -> None:
        # What ``--intensity 8`` printed while the LLC aggressor ignored
        # its intensity: the 8-thread (level H) profile.
        argv = ["mix", "--ml", "rnn1", "--cpu", "llc", "--intensity", "H",
                "--duration", "8"]
        assert main(argv) == 0
        assert capsys.readouterr().out == (
            "ml_perf_norm     0.978\n"
            "ml_tail_norm     1.023\n"
            "cpu_throughput   7.890\n"
        )


class TestCliObservability:
    def test_run_with_trace_and_metrics(self, tmp_path, capsys) -> None:
        out_dir = tmp_path / "out"
        code = main([
            "run", "fig03",
            "--trace-out", str(out_dir),
            "--metrics-out", str(out_dir / "m.jsonl"),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "wrote" in stdout
        assert (out_dir / "trace.json").exists()
        assert (out_dir / "m.jsonl").exists()
        assert (out_dir / "fig03.manifest.json").exists()

    def test_mix_with_trace_out(self, tmp_path, capsys) -> None:
        import json

        out_dir = tmp_path / "out"
        code = main([
            "mix", "--ml", "rnn1", "--policy", "KP",
            "--cpu", "cpuml", "--intensity", "2", "--duration", "10",
            "--trace-out", str(out_dir),
        ])
        assert code == 0
        trace = json.loads((out_dir / "trace.json").read_text())
        phases = {e["ph"] for e in trace["traceEvents"]}
        # Phase intervals, counters, metadata all present.
        assert {"X", "C", "M"} <= phases

    def test_every_command_spans(self, tmp_path, capsys) -> None:
        import json

        report = tmp_path / "r.md"
        code = main([
            "report", "--only", "table1", "--out", str(report),
            "--trace-out", str(tmp_path / "report"),
        ])
        assert code == 0
        code = main([
            "mix", "--ml", "cnn2", "--duration", "12",
            "--trace-out", str(tmp_path / "mix"),
        ])
        assert code == 0
        for run in ("report", "mix"):
            trace = json.loads((tmp_path / run / "trace.json").read_text())
            spans = [
                e for e in trace["traceEvents"]
                if e["ph"] == "X" and e["name"] == run
            ]
            assert len(spans) == 1, run

    def test_no_flags_writes_nothing(self, tmp_path, monkeypatch) -> None:
        monkeypatch.chdir(tmp_path)
        assert main(["run", "fig03"]) == 0
        assert list(tmp_path.iterdir()) == []

    def test_fleet_sim_with_outputs(self, tmp_path, capsys) -> None:
        import json

        out_dir = tmp_path / "out"
        code = main([
            "fleet-sim", "--nodes", "2", "--duration", "3", "--warmup", "1",
            "--trials", "2", "--jobs", "2",
            "--trace-out", str(out_dir),
            "--metrics-out", str(out_dir / "m.jsonl"),
        ])
        assert code == 0
        assert (out_dir / "trace.json").exists()
        assert (out_dir / "fleet-sim.manifest.json").exists()
        rows = [
            json.loads(line)
            for line in (out_dir / "m.jsonl").read_text().splitlines()
        ]
        kinds = {row.get("kind") for row in rows}
        assert "fleet_run" in kinds and "fleet_tenant" in kinds
        manifest = json.loads((out_dir / "fleet-sim.manifest.json").read_text())
        assert manifest["config"]["fleet_nodes"] == 2
        assert "fleet.seed" in manifest["seeds"]

    def test_fleet_serve_smoke(self, tmp_path, capsys) -> None:
        import json

        summary = tmp_path / "serve.json"
        code = main([
            "fleet-serve", "--trace-duration", "20", "--trace-rate", "12",
            "--trace-seed", "11", "--nodes", "2", "--seed", "5",
            "--epoch", "1",
            "--command", "3:evict:search", "--command", "8:admit:search",
            "--summary-json", str(summary),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fleet-serve:" in out
        assert "evict:search" in out
        payload = json.loads(summary.read_text())
        assert payload["epochs"] == 20
        assert len(payload["snapshots"]) == 20
        assert ["3", "evict:search"] != payload["commands"][0]  # ints kept
        assert payload["commands"][0] == [3, "evict:search"]

    def test_fleet_serve_save_restore_identical(self, tmp_path, capsys) -> None:
        ckpt = tmp_path / "ckpt.bin"
        base = [
            "fleet-serve", "--trace-duration", "20", "--trace-rate", "12",
            "--trace-seed", "11", "--nodes", "2", "--seed", "5",
            "--epoch", "1", "--command", "3:evict:search",
        ]
        assert main(base + ["--save", str(ckpt), "--save-at", "6"]) == 0
        saved = capsys.readouterr().out
        assert ckpt.exists()
        assert main(base + ["--restore", str(ckpt)]) == 0
        restored = capsys.readouterr().out
        # Identical apart from the provenance line and the "wrote" echo.
        strip = lambda text: [  # noqa: E731
            line for line in text.splitlines()
            if "trace source" not in line and not line.startswith("wrote ")
        ]
        assert strip(restored) == strip(saved)

    def test_fleet_serve_bad_command_spec(self, capsys) -> None:
        code = main([
            "fleet-serve", "--trace-duration", "10",
            "--command", "5:reboot",
        ])
        assert code == 2
        assert "verb" in capsys.readouterr().err

    def test_fleet_incidents_smoke(self, tmp_path, capsys) -> None:
        scenario = tmp_path / "scenario.json"
        code = main([
            "fleet-incidents", "--trace-duration", "300", "--trace-rate", "2",
            "--trace-seed", "3", "--nodes", "2", "--routing", "random",
            "--interval", "10", "--warmup", "20", "--seed", "7",
            "--incident-seed", "5", "--classes", "node-death",
            "--save-scenario", str(scenario),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fleet-incidents:" in out
        assert "node-death" in out
        assert scenario.exists()
        # Replaying the saved scenario must be accepted and identical.
        code = main([
            "fleet-incidents", "--trace-duration", "300", "--trace-rate", "2",
            "--trace-seed", "3", "--nodes", "2", "--routing", "random",
            "--interval", "10", "--warmup", "20", "--seed", "7",
            "--scenario", str(scenario),
        ])
        assert code == 0
        replay = capsys.readouterr().out
        assert replay.splitlines()[3:] == out.splitlines()[3:-1]

    def test_fleet_incidents_scenario_conflicts(self, tmp_path, capsys) -> None:
        # Every schedule-generator flag, which a saved scenario would ignore.
        for extra in (
            ["--classes", "node-death"], ["--incident-seed", "9"],
            ["--intruder-rate", "2"], ["--intruder-demand", "50"],
            ["--drop-fraction", "0.2"],
        ):
            code = main([
                "fleet-incidents", "--scenario", str(tmp_path / "s.json"),
                *extra,
            ])
            assert code == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1, err
            assert "cannot be combined" in err and extra[0] in err

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            (command, flag, "1")
            for command in ("fleet-trace", "fleet-serve", "fleet-incidents")
            for flag in ("--trace-duration", "--trace-rate", "--trace-seed")
        ]
        + [
            ("fleet-trace", flag, value)
            for flag, value in (
                ("--diurnal-amplitude", "0.9"), ("--diurnal-peak-hour", "4"),
                ("--burst-multiplier", "2"), ("--burst-on", "5"),
                ("--burst-off", "50"), ("--churn-active", "600"),
                ("--churn-idle", "0"),
            )
        ],
    )
    def test_generator_flag_refused_with_trace(
        self, command, flag, value, tmp_path, capsys
    ) -> None:
        # The trace file need not exist: the refusal comes before any run.
        trace = str(tmp_path / "missing.jsonl.gz")
        assert main([command, "--trace", trace, flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1, captured.err
        assert "Traceback" not in captured.err
        assert "cannot be combined" in captured.err and flag in captured.err

    @pytest.mark.parametrize("flag", ["--min-nodes", "--max-nodes"])
    def test_fleet_serve_node_bounds_need_autoscale(self, flag, capsys) -> None:
        assert main(["fleet-serve", "--trace-duration", "10", flag, "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1, captured.err
        assert flag in captured.err and "--autoscale" in captured.err

    def test_fleet_incidents_missing_scenario(self, capsys) -> None:
        code = main(["fleet-incidents", "--scenario", "/does/not/exist.json"])
        assert code == 2
        err = capsys.readouterr().err
        assert "scenario file not found" in err


_SERVE = [
    "fleet-serve", "--trace-duration", "20", "--trace-rate", "12",
    "--trace-seed", "11", "--nodes", "2", "--seed", "5", "--epoch", "1",
]


@pytest.fixture(scope="module")
def serve_checkpoints(tmp_path_factory) -> dict[str, str]:
    """Checkpoints of the same serve with and without the autoscaler."""
    root = tmp_path_factory.mktemp("serve")
    paths = {"plain": str(root / "plain.bin"), "scaled": str(root / "scaled.bin")}
    save = ["--save-at", "6", "--save"]
    assert main(_SERVE + save + [paths["plain"]]) == 0
    scaled = ["--autoscale", "--min-nodes", "2"]
    assert main(_SERVE + scaled + save + [paths["scaled"]]) == 0
    return paths


class TestFleetServeRestoreFlags:
    """A restore resumes the checkpoint's fleet shape, horizon and plan, so
    each flag that sets one of them must match it or be left out."""

    @pytest.mark.parametrize(
        "kind, extra",
        [
            ("plain", ["--nodes", "5"]),
            ("plain", ["--policy", "BL"]),
            ("plain", ["--routing", "random"]),
            ("plain", ["--ml", "cnn1"]),
            ("plain", ["--epoch", "4"]),
            ("plain", ["--autoscale"]),
            ("scaled", ["--autoscale", "--min-nodes", "3"]),
            ("scaled", ["--autoscale", "--max-nodes", "3"]),
            ("plain", ["--duration", "10"]),
            ("plain", ["--warmup", "0.25"]),
            ("plain", ["--interval", "3"]),
            ("plain", ["--window", "7"]),
            ("plain", ["--seed", "9"]),
        ],
    )
    def test_conflicting_flag_exits_2(
        self, kind, extra, serve_checkpoints, capsys
    ) -> None:
        capsys.readouterr()
        args = _SERVE + extra + ["--restore", serve_checkpoints[kind]]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1, captured.err
        assert "Traceback" not in captured.err
        # The flag, the value given, and the checkpoint's value.
        given = " ".join(extra[-2:]) if len(extra) > 1 else "--autoscale True"
        assert given in captured.err and "the checkpoint's" in captured.err

    @pytest.mark.parametrize("kind", ["plain", "scaled"])
    def test_the_checkpoints_own_values_pass(
        self, kind, serve_checkpoints, capsys
    ) -> None:
        from repro.serve import checkpoint_meta

        path = serve_checkpoints[kind]
        plan = checkpoint_meta(path)["plan"]
        own = [
            "--policy", plan["policy"], "--routing", plan["routing"],
            "--ml", plan["ml"], "--warmup", str(plan["warmup"]),
            "--interval", str(plan["interval"]),
            "--window", str(plan["window_s"]), "--seed", "5",
            # Past the trace, which the run clips it to, as the save did.
            "--duration", "500",
        ]
        if plan["autoscaler"] is not None:
            own += ["--autoscale", "--min-nodes", "2", "--max-nodes", "16"]
        assert main(_SERVE + own + ["--restore", path]) == 0
        assert "fleet-serve:" in capsys.readouterr().out
