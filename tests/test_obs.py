"""Unit tests for the observability layer (:mod:`repro.obs`).

Covers the pieces the oracle/golden tests use as infrastructure: the
span tracer's ring buffer and lazy/disabled paths, metrics JSON round-trip,
Chrome trace validation failure modes, and the ``repro obs`` CLI.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    MetricsRegistry,
    ObsConfig,
    ObsSession,
    SpanTracer,
    registry_from_json,
    to_chrome_trace,
    validate_chrome_trace,
)
from repro.obs.cli import main as obs_main
from repro.util.errors import ConfigError, ValidationError

# -- SpanTracer --------------------------------------------------------------


class TestSpanTracer:
    def test_ring_buffer_keeps_newest(self):
        tr = SpanTracer(max_events=3)
        for i in range(7):
            tr.instant("c", f"e{i}", ts=float(i))
        assert len(tr) == 3
        assert tr.dropped == 4
        assert [e.name for e in tr] == ["e4", "e5", "e6"]

    def test_clear_keeps_drop_counter(self):
        tr = SpanTracer(max_events=2)
        for i in range(4):
            tr.instant("c", "e", ts=float(i))
        tr.clear()
        assert len(tr) == 0 and tr.dropped == 2

    def test_disabled_records_nothing_and_skips_lazy_args(self):
        tr = SpanTracer(enabled=False)
        calls = []

        def expensive():
            calls.append(1)
            return {"x": 1}

        tr.instant("c", "e", args=expensive)
        tr.begin("c", "s")
        tr.end("c", "s")
        tr.complete("c", "x", ts=0.0, dur=1.0, args=expensive)
        tr.counter("c", "n", 3.0)
        assert len(tr) == 0
        assert calls == []  # lazy args never evaluated when disabled

    def test_lazy_args_evaluated_when_enabled(self):
        tr = SpanTracer()
        tr.instant("c", "e", ts=0.0, args=lambda: {"x": 42})
        assert tr.events[0].args == {"x": 42}

    def test_clock_stamping_and_span_context(self):
        now = [0.0]
        tr = SpanTracer(lambda: now[0])
        with tr.span("c", "work"):
            now[0] = 5.0
        phases = [(e.ph, e.ts) for e in tr]
        assert phases == [("B", 0.0), ("E", 5.0)]

    def test_by_category(self):
        tr = SpanTracer()
        tr.instant("a", "1", ts=0.0)
        tr.instant("b", "2", ts=1.0)
        assert [e.name for e in tr.by_category("b")] == ["2"]

    def test_invalid_cap_rejected(self):
        with pytest.raises(ConfigError):
            SpanTracer(max_events=0)


# -- metrics round-trip ------------------------------------------------------


class TestMetricsRoundTrip:
    def _populated(self) -> MetricsRegistry:
        m = MetricsRegistry()
        m.counter("events", kind="timeout").inc(7)
        m.gauge("speedup", bench="mesh").set(3.25)
        s = m.series("latency")
        for x in (1.0, 2.0, 4.0):
            s.add(x)
        h = m.histogram("lat_hist", lo=0.0, hi=8.0, bins=4)
        for x in (0.5, 3.0, 7.9, 9.0):
            h.add(x)
        tw = m.timeweighted("occupancy")
        tw.update(0.0, 2.0)
        tw.update(4.0, 0.0)
        return m

    def test_json_round_trip_is_lossless(self):
        m = self._populated()
        restored = registry_from_json(m.to_json())
        assert restored.to_dict() == m.to_dict()
        # And the restored accumulators keep working.
        restored.series("latency").add(8.0)
        assert restored.series("latency").count == 4

    def test_json_is_strict(self):
        m = MetricsRegistry()
        m.gauge("weird").set(float("inf"))
        payload = json.loads(m.to_json())  # must not contain Infinity
        [entry] = payload["metrics"]
        assert entry["state"]["value"] is None

    def test_kind_collision_rejected(self):
        m = MetricsRegistry()
        m.counter("x")
        with pytest.raises(ConfigError):
            m.gauge("x")

    def test_unknown_schema_rejected(self):
        with pytest.raises(ConfigError):
            registry_from_json('{"schema": 99, "metrics": []}')

    def test_counters_only_go_up(self):
        m = MetricsRegistry()
        with pytest.raises(ConfigError):
            m.counter("x").inc(-1)

    def test_labels_distinguish_series(self):
        m = MetricsRegistry()
        m.counter("n", node=1).inc()
        m.counter("n", node=2).inc(2)
        assert m.counter("n", node=1).value == 1
        assert m.counter("n", node=2).value == 2
        assert m.names() == ["n"]


# -- Chrome export / validation ----------------------------------------------


class TestChromeTrace:
    def _trace(self) -> dict:
        tr = SpanTracer()
        tr.begin("mesh", "run", track="run", ts=0.0)
        tr.instant("mesh", "deliver", track="node(0, 0)", ts=3.0,
                   args={"packet": 1})
        tr.counter("mesh.sample", "occupancy", 4.0, ts=5.0)
        tr.complete("llmore", "row_fft", ts=0.0, dur=9.0, track="psync")
        tr.end("mesh", "run", track="run", ts=10.0)
        return to_chrome_trace(tr.events)

    def test_required_keys_and_metadata(self):
        obj = self._trace()
        events = obj["traceEvents"]
        assert all(
            all(k in e for k in ("ph", "ts", "pid", "tid", "name"))
            for e in events
        )
        meta_names = [e["args"]["name"] for e in events if e["ph"] == "M"
                      and e["name"] == "process_name"]
        # mesh and mesh.sample share one process; llmore is separate.
        assert sorted(meta_names) == ["llmore", "mesh"]

    def test_validator_accepts_own_output(self):
        summary = validate_chrome_trace(self._trace())
        assert summary["events"] == 5

    def test_validator_rejects_missing_key(self):
        obj = self._trace()
        del obj["traceEvents"][-1]["ts"]
        with pytest.raises(ValidationError):
            validate_chrome_trace(obj)

    def test_validator_rejects_unknown_phase(self):
        obj = self._trace()
        obj["traceEvents"][-1]["ph"] = "Q"
        with pytest.raises(ValidationError):
            validate_chrome_trace(obj)

    def test_validator_rejects_backwards_time(self):
        obj = self._trace()
        # Same (pid, tid) track as the final event, but earlier ts.
        last = [e for e in obj["traceEvents"] if e["ph"] != "M"][-1]
        bad = dict(last, ts=last["ts"] - 1.0)
        obj["traceEvents"].append(bad)
        with pytest.raises(ValidationError):
            validate_chrome_trace(obj)

    def test_validator_rejects_no_event_list(self):
        with pytest.raises(ValidationError):
            validate_chrome_trace({"foo": 1})

    def test_instants_are_scoped_and_x_has_dur(self):
        events = [e for e in self._trace()["traceEvents"] if e["ph"] != "M"]
        for e in events:
            if e["ph"] == "i":
                assert e["s"] == "t"
            if e["ph"] == "X":
                assert "dur" in e


# -- ObsSession wiring --------------------------------------------------------


class TestObsSession:
    def test_disabled_session_records_nothing(self):
        session = ObsSession(ObsConfig.disabled())
        session.mesh_inject(0, 1, (0, 0), (1, 1), 3)
        session.sim_event("Timeout", 0.0, 2)
        session.sca_modulate(0.0, 0, 0)
        assert len(session.tracer) == 0
        assert len(session.metrics) == 0
        assert not session.active

    def test_layer_flags_gate_hooks(self):
        session = ObsSession(ObsConfig(mesh=False))
        session.mesh_inject(0, 1, (0, 0), (1, 1), 3)
        assert len(session.tracer) == 0
        session.sca_modulate(0.0, 0, 0)
        assert len(session.tracer) == 1

    def test_sim_dispatch_off_by_default(self):
        session = ObsSession()
        session.sim_event("Timeout", 0.0, 2)
        assert len(session.tracer) == 0

    def test_summary_counts_by_category(self):
        session = ObsSession()
        session.mesh_inject(0, 1, (0, 0), (1, 1), 3)
        session.sca_modulate(0.0, 0, 0)
        summary = session.summary()
        assert summary["trace_events"] == 2
        assert summary["events_by_category"] == {"mesh": 1, "sca": 1}


# -- CLI ----------------------------------------------------------------------


class TestObsCli:
    @pytest.mark.parametrize("workload", ["transpose", "fig4", "fft2d"])
    def test_cli_emits_valid_artifacts(self, tmp_path, workload, capsys):
        code = obs_main(["--workload", workload, "--out-dir", str(tmp_path)])
        assert code == 0
        trace = json.loads((tmp_path / "trace.json").read_text())
        assert validate_chrome_trace(trace)["events"] > 0
        restored = registry_from_json((tmp_path / "metrics.json").read_text())
        assert len(restored) > 0
        out = capsys.readouterr().out
        assert "trace.json" in out and "metrics.json" in out

    def test_cli_ring_buffer_cap(self, tmp_path):
        code = obs_main(
            ["--workload", "transpose", "--out-dir", str(tmp_path),
             "--max-trace-events", "100"]
        )
        assert code == 0
        trace = json.loads((tmp_path / "trace.json").read_text())
        non_meta = [e for e in trace["traceEvents"] if e["ph"] != "M"]
        assert len(non_meta) == 100

    def test_repro_cli_routes_obs(self, tmp_path):
        from repro.cli import main as repro_main

        code = repro_main(
            ["obs", "--workload", "fig4", "--out-dir", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "trace.json").exists()
        assert (tmp_path / "metrics.json").exists()
