"""Trace schema: validation, round-trip fidelity, columnar accessors."""

from __future__ import annotations

import gzip
import json

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.traces import (
    TRACE_SCHEMA,
    Trace,
    TraceFamily,
    TraceGenConfig,
    TraceTenant,
    generate_trace,
    load_trace,
    save_trace,
)


def _tiny_trace(**overrides) -> Trace:
    fields = dict(
        arrivals_s=np.array([0.5, 1.0, 1.0, 3.25]),
        tenant_ids=np.array([0, 1, 0, 1]),
        family_ids=np.array([0, 0, 1, 0]),
        tenants=(TraceTenant("a"), TraceTenant("b", slo_p99_ms=120.0)),
        families=(TraceFamily("nominal"), TraceFamily("long", demand=2.0)),
        duration_s=4.0,
    )
    fields.update(overrides)
    return Trace(**fields)


class TestTraceValidation:
    def test_len_and_columns(self):
        trace = _tiny_trace()
        assert len(trace) == 4
        assert trace.arrivals_s.dtype == np.float64
        assert trace.tenant_ids.dtype == np.int32

    def test_demands_gather_family_table(self):
        trace = _tiny_trace()
        assert trace.demands.tolist() == [1.0, 1.0, 2.0, 1.0]

    def test_tenant_request_counts(self):
        trace = _tiny_trace()
        assert trace.tenant_request_counts().tolist() == [2, 2]

    def test_rejects_decreasing_arrivals(self):
        with pytest.raises(ConfigurationError):
            _tiny_trace(arrivals_s=np.array([1.0, 0.5, 2.0, 3.0]))

    def test_rejects_arrival_past_duration(self):
        with pytest.raises(ConfigurationError):
            _tiny_trace(duration_s=3.0)

    def test_rejects_out_of_range_ids(self):
        with pytest.raises(ConfigurationError):
            _tiny_trace(tenant_ids=np.array([0, 1, 0, 2]))
        with pytest.raises(ConfigurationError):
            _tiny_trace(family_ids=np.array([0, 0, 1, 5]))

    def test_rejects_misaligned_columns(self):
        with pytest.raises(ConfigurationError):
            _tiny_trace(tenant_ids=np.array([0, 1, 0]))

    def test_rejects_bad_tenant_and_family_specs(self):
        with pytest.raises(ConfigurationError):
            TraceTenant("")
        with pytest.raises(ConfigurationError):
            TraceTenant("x", slo_p99_ms=0.0)
        with pytest.raises(ConfigurationError):
            TraceFamily("x", demand=0.0)


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["trace.jsonl", "trace.jsonl.gz"])
    def test_save_load_bit_exact(self, tmp_path, name):
        trace = generate_trace(
            TraceGenConfig(seed=11, duration_s=30.0, rate_qps=40.0)
        )
        path = tmp_path / name
        save_trace(trace, path)
        loaded = load_trace(path)
        assert np.array_equal(trace.arrivals_s, loaded.arrivals_s)
        assert np.array_equal(trace.tenant_ids, loaded.tenant_ids)
        assert np.array_equal(trace.family_ids, loaded.family_ids)
        assert trace.tenants == loaded.tenants
        assert trace.families == loaded.families
        assert loaded.duration_s == trace.duration_s
        assert dict(loaded.meta) == dict(trace.meta)

    def test_gzip_actually_compresses(self, tmp_path):
        trace = generate_trace(
            TraceGenConfig(seed=1, duration_s=60.0, rate_qps=60.0)
        )
        plain = tmp_path / "t.jsonl"
        packed = tmp_path / "t.jsonl.gz"
        save_trace(trace, plain)
        save_trace(trace, packed)
        with gzip.open(packed, "rt", encoding="utf-8") as fh:
            assert json.loads(fh.readline())["schema"] == TRACE_SCHEMA
        assert packed.stat().st_size < plain.stat().st_size

    def test_header_declares_schema_and_count(self, tmp_path):
        trace = _tiny_trace()
        path = tmp_path / "t.jsonl"
        save_trace(trace, path)
        header = json.loads(path.read_text().splitlines()[0])
        assert header["schema"] == TRACE_SCHEMA
        assert header["requests"] == 4
        assert [t["name"] for t in header["tenants"]] == ["a", "b"]

    def test_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema": "repro.trace/999", "duration_s": 1}\n')
        with pytest.raises(ConfigurationError):
            load_trace(path)

    def test_rejects_count_mismatch(self, tmp_path):
        trace = _tiny_trace()
        path = tmp_path / "t.jsonl"
        save_trace(trace, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop one row
        with pytest.raises(ConfigurationError):
            load_trace(path)

    def test_rejects_malformed_row(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        trace = _tiny_trace()
        save_trace(trace, path)
        text = path.read_text().replace("[0.5,0,0]", "not json")
        path.write_text(text)
        with pytest.raises(ConfigurationError):
            load_trace(path)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ConfigurationError):
            load_trace(path)

    def test_missing_file_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read trace"):
            load_trace(tmp_path / "absent.jsonl.gz")

    def test_save_creates_parent_directories(self, tmp_path):
        trace = _tiny_trace()
        path = tmp_path / "nested" / "dir" / "t.jsonl"
        save_trace(trace, path)
        assert len(load_trace(path)) == len(trace)


#: Marks a header field the hostile file leaves out.
_DROP = object()


def _edited(tmp_path, row=None, **changes):
    """The tiny trace's file with header fields changed (``_DROP`` removes
    one) and its first row, on line 2, replaced by ``row``."""
    header = _tiny_trace().header()
    for key, value in changes.items():
        if value is _DROP:
            del header[key]
        else:
            header[key] = value
    rows = ["[0.5,0,0]", "[1.0,1,0]", "[1.0,0,1]", "[3.25,1,0]"]
    if row is not None:
        rows[0] = row
    path = tmp_path / "hostile.jsonl"
    path.write_text("\n".join([json.dumps(header), *rows]) + "\n")
    return path


def _truncated_gzip(tmp_path):
    path = tmp_path / "hostile.jsonl.gz"
    save_trace(generate_trace(TraceGenConfig(seed=3, duration_s=30.0)), path)
    path.write_bytes(path.read_bytes()[:300])
    return path


def _not_gzip(tmp_path):
    path = tmp_path / "hostile.jsonl.gz"
    path.write_bytes(_edited(tmp_path).read_bytes())
    return path


def _not_utf8(tmp_path):
    path = _edited(tmp_path)
    path.write_bytes(b"\xff" + path.read_bytes())
    return path


#: (case, function that writes the file, what the error names besides the path)
_HOSTILE = [
    ("truncated-gzip", _truncated_gzip, "cannot read trace"),
    ("not-gzip", _not_gzip, "cannot read trace"),
    ("not-utf8", _not_utf8, "cannot read trace"),
    ("no-duration", lambda p: _edited(p, duration_s=_DROP), "duration_s"),
    (
        "tenant-without-name",
        lambda p: _edited(p, tenants=[{"slo_p99_ms": 60.0}, {"name": "b"}]),
        "tenants[0] name",
    ),
    ("duration-text", lambda p: _edited(p, duration_s="sixty"), "duration_s"),
    ("requests-text", lambda p: _edited(p, requests="two"), "requests"),
    (
        "slo-text",
        lambda p: _edited(p, tenants=[{"name": "a", "slo_p99_ms": "fast"}]),
        "tenants[0] slo_p99_ms",
    ),
    ("tenants-text", lambda p: _edited(p, tenants="abc"), "tenants"),
    ("meta-list", lambda p: _edited(p, meta=[1, 2]), "meta"),
    ("arrival-text", lambda p: _edited(p, row='["x",0,0]'), ":2: arrival_s"),
    ("arrival-null", lambda p: _edited(p, row="[null,0,0]"), ":2: arrival_s"),
    ("arrival-nan", lambda p: _edited(p, row="[NaN,0,0]"), ":2: arrival_s"),
    ("tenant-text", lambda p: _edited(p, row='[1.0,"a",0]'), ":2: tenant_id"),
]


class TestHostileFiles:
    @pytest.mark.parametrize(
        "build, names", [case[1:] for case in _HOSTILE], ids=[c[0] for c in _HOSTILE]
    )
    def test_named_error_and_exit_2(self, tmp_path, capsys, build, names):
        from repro.cli import main

        path = build(tmp_path)
        with pytest.raises(ConfigurationError) as caught:
            load_trace(path)
        assert str(path) in str(caught.value) and names in str(caught.value)
        assert main(["fleet-trace", "--trace", str(path), "--nodes", "2"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and names in err, err
        assert "Traceback" not in err

    def test_trace_rejects_non_finite_times(self):
        with pytest.raises(ConfigurationError, match="arrivals must be finite"):
            _tiny_trace(arrivals_s=np.array([0.5, np.nan, 1.0, 3.25]))
        with pytest.raises(ConfigurationError, match="duration_s"):
            _tiny_trace(duration_s=np.inf)
