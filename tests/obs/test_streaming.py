"""The streaming JSONL writer behind every observer's record stream."""

from __future__ import annotations

import json
import tracemalloc

from repro.obs import ObsConfig, RunObserver


def _emit(obs: RunObserver, rows: int) -> None:
    for i in range(rows):
        obs.record("tick", seq=i, value=i * 0.5)
    obs.metrics.counter("ticks").inc(rows)


class TestStreamingWriter:
    def test_rows_reach_disk_before_finalize(self, tmp_path) -> None:
        path = tmp_path / "m.jsonl"
        obs = RunObserver(
            ObsConfig(metrics_path=path), name="s", flush_every=10
        )
        _emit(obs, 25)
        # Two full batches flushed; the 5-row tail is still pending.
        assert sum(1 for _ in path.open()) == 20
        obs.finalize()
        rows = [json.loads(line) for line in path.open()]
        assert sum(1 for r in rows if r["kind"] == "tick") == 25
        assert rows[-1]["kind"] == "metric"

    def test_row_order_preserved(self, tmp_path) -> None:
        path = tmp_path / "m.jsonl"
        obs = RunObserver(
            ObsConfig(metrics_path=path), name="s", flush_every=3
        )
        _emit(obs, 11)
        obs.finalize()
        ticks = [
            json.loads(line)
            for line in path.open()
            if json.loads(line)["kind"] == "tick"
        ]
        assert [row["seq"] for row in ticks] == list(range(11))

    def test_no_metrics_path_ignores_flush_every(self, tmp_path) -> None:
        # Without a metrics file the rows have nowhere to go: recording
        # them must not grow the observer.
        obs = RunObserver(
            ObsConfig(trace_dir=tmp_path / "out"), name="t", flush_every=4
        )
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _emit(obs, 10_000)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 256 * 1024
        obs.finalize()
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "t.manifest.json", "trace.json",
        ]
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    def test_empty_stream_still_writes_file(self, tmp_path) -> None:
        path = tmp_path / "m.jsonl"
        obs = RunObserver(
            ObsConfig(metrics_path=path), name="e", flush_every=4
        )
        obs.finalize()
        assert path.exists()
