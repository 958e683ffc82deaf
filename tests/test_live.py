"""Tests for the telemetry stream: repro.obs.live + its folds.

Covers the stream schema, the publisher discipline (NullPublisher is
one attribute read; QueuePublisher never blocks), the parent-side
LiveHub collector (NDJSON sink, metrics folding), the dashboard state
machine and its TTY/non-TTY renderers, the watch file tailer, the
profiled-run Chrome routing, the one-stream property (the Chrome
export, the summary and the dashboard agree on one recording), and the
invariant everything hangs on: telemetry on or off, simulation results
are identical.
"""

from __future__ import annotations

import cProfile
import io
import json
import queue
from types import SimpleNamespace

import pytest

from repro.obs import (
    MetricsRegistry,
    chrome_trace,
    set_metrics,
    summary_data,
)
from repro.obs.dashboard import Dashboard, LiveState, render_lines, watch
from repro.obs.io import JsonlAppender
from repro.obs import live
from repro.obs.live import (
    LIVE_RECORD_TYPES,
    LIVE_SCHEMA,
    LIVE_SCHEMA_VERSION,
    STREAM_FILENAME,
    LiveHub,
    NullPublisher,
    QueuePublisher,
    get_publisher,
    live_header,
    load_live,
    parse_live,
    profile_frames,
    result_records,
    set_publisher,
    validate_live_record,
)


class FakeTTY(io.StringIO):
    def isatty(self):
        return True


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


@pytest.fixture
def fresh_metrics():
    """Swap in an isolated ambient registry for the test."""
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    try:
        yield registry
    finally:
        set_metrics(previous)


def _valid_records() -> list[dict]:
    """One valid instance of every stream record type."""
    return [
        {"type": "batch", "total": 8},
        {"type": "job_start", "job": "scheme BLK_TRD pbs-ws", "pid": 11},
        {"type": "job_done", "job": "scheme BLK_TRD pbs-ws", "pid": 11,
         "elapsed_s": 0.25},
        {"type": "job_fail", "job": "alone BLK 8", "pid": 12,
         "error": "ValueError: boom"},
        {"type": "window", "workload": "BLK_TRD", "scheme": "pbs-ws",
         "app": 0, "cycle": 800.0, "eb": 0.4, "bw": 0.3, "cmr": 0.75,
         "ipc": 1.5},
        {"type": "span", "name": "evaluate_schemes", "cat": "host",
         "pid": 10, "depth": 0, "t0": 1.7e9, "dur_s": 2.5,
         "args": {"workload": "BLK_TRD"}},
        {"type": "decision", "workload": "BLK_TRD", "scheme": "pbs-ws",
         "kind": "sample", "cycle": 800.0, "combo": [24, 4],
         "objective": 1.25, "ebs": [0.4, 0.3]},
        {"type": "tenancy", "workload": "two-phase", "scheme": "pbs-ws",
         "event": "attach", "app": 2, "cycle": 29500.0, "roster": [0, 1, 2]},
        {"type": "probe", "name": "l2.occupancy", "cycle": 2000.0,
         "values": {"app0": 60, "app1": 40}},
        {"type": "heartbeat", "pid": 11},
        {"type": "profile", "job": "alone BLK 8", "pid": 11,
         "frames": [["run (engine.py:1)", 0.5, 0.1, 42]]},
        {"type": "metrics", "label": "pid11",
         "snapshot": {"counters": {"c": 1}}},
        {"type": "stream_end", "records": 9},
    ]


# --- schema -------------------------------------------------------------------


class TestLiveSchema:
    def test_every_record_type_has_a_valid_example(self):
        records = _valid_records()
        assert {r["type"] for r in records} == set(LIVE_RECORD_TYPES)
        for record in records:
            assert validate_live_record(record) == [], record["type"]

    def test_extra_fields_are_allowed(self):
        record = {"type": "heartbeat", "pid": 3, "sent": 17, "t": 1.5}
        assert validate_live_record(record) == []

    def test_unknown_type_rejected(self):
        assert validate_live_record({"type": "mystery"}) == [
            "unknown record type 'mystery'"
        ]
        assert validate_live_record({}) == ["unknown record type None"]

    def test_missing_field_reported(self):
        (problem,) = validate_live_record({"type": "batch"})
        assert "missing field 'total'" in problem

    def test_bool_is_not_an_int(self):
        # bool subclasses int; a pid of True is a producer bug, not data.
        problems = validate_live_record(
            {"type": "job_start", "job": "x", "pid": True}
        )
        assert problems and "pid" in problems[0]

    def test_parse_live_validates_header_and_lines(self):
        header = live_header("r1")
        ok_header, records = parse_live([header, {"type": "batch", "total": 1}])
        assert ok_header["run_id"] == "r1"
        assert records == [{"type": "batch", "total": 1}]
        with pytest.raises(ValueError, match="empty live stream"):
            parse_live([])
        with pytest.raises(ValueError, match="not a repro.obs live stream"):
            parse_live([{"schema": "something.else"}])
        with pytest.raises(ValueError, match="version"):
            parse_live([{"schema": LIVE_SCHEMA, "version": 99}])
        with pytest.raises(ValueError, match="line 2"):
            parse_live([header, {"type": "nope"}])

    def test_load_live_round_trip(self, tmp_path):
        path = tmp_path / STREAM_FILENAME
        with JsonlAppender(path) as sink:
            sink.append(live_header("r2"))
            for record in _valid_records():
                sink.append(record)
        header, records = load_live(path)
        assert header["version"] == LIVE_SCHEMA_VERSION
        assert len(records) == len(LIVE_RECORD_TYPES)


# --- publishers ---------------------------------------------------------------


class TestPublishers:
    def test_null_publisher_is_the_ambient_default(self):
        publisher = get_publisher()
        assert isinstance(publisher, NullPublisher)
        assert publisher.enabled is False
        assert publisher.worker is False and publisher.profile is False
        publisher.publish({"type": "batch", "total": 1})  # no-ops
        publisher.heartbeat()

    def test_set_publisher_install_and_disable(self):
        q: "queue.Queue[dict]" = queue.Queue()
        publisher = QueuePublisher(q, worker=True)
        previous = set_publisher(publisher)
        try:
            assert isinstance(previous, NullPublisher)
            assert get_publisher() is publisher
        finally:
            assert set_publisher(None) is publisher
        assert isinstance(get_publisher(), NullPublisher)

    def test_publish_stamps_time_and_counts(self):
        q: "queue.Queue[dict]" = queue.Queue()
        publisher = QueuePublisher(q)
        publisher.publish({"type": "batch", "total": 2})
        record = q.get_nowait()
        assert record["total"] == 2 and isinstance(record["t"], float)
        assert publisher.sent == 1 and publisher.dropped == 0

    def test_full_queue_drops_instead_of_blocking(self):
        q: "queue.Queue[dict]" = queue.Queue(maxsize=1)
        publisher = QueuePublisher(q)
        publisher.publish({"type": "batch", "total": 1})
        publisher.publish({"type": "batch", "total": 2})  # queue is full
        assert publisher.sent == 1 and publisher.dropped == 1
        assert q.get_nowait()["total"] == 1

    def test_heartbeat_throttles(self, monkeypatch):
        q: "queue.Queue[dict]" = queue.Queue()
        monkeypatch.setattr(live, "HEARTBEAT_S", 3600.0)
        publisher = QueuePublisher(q)
        publisher.heartbeat()
        publisher.heartbeat()  # within the interval: suppressed
        assert q.qsize() == 1
        monkeypatch.setattr(live, "HEARTBEAT_S", 0.0)
        eager = QueuePublisher(q)
        eager.heartbeat()
        eager.heartbeat()
        assert q.qsize() == 3

    def test_worker_config_round_trips_the_knobs(self):
        q: "queue.Queue[dict]" = queue.Queue()
        publisher = QueuePublisher(q, worker=False, profile=True)
        config = publisher.worker_config()
        assert config == {"profile": True}  # the one per-run setting
        clone = QueuePublisher(q, worker=True, **config)
        assert clone.profile and clone.worker


# --- record builders ----------------------------------------------------------


def _scheme_result(n_windows: int = 1):
    sample = SimpleNamespace(eb=0.5, bw=0.4, cmr=0.8, ipc=1.25)
    windows = [(1000.0 * (i + 1), {0: sample}) for i in range(n_windows)]
    return SimpleNamespace(
        workload="BLK_TRD",
        scheme="pbs-ws",
        result=SimpleNamespace(windows=windows),
        decisions=[{"kind": "sample", "cycle": 900.0, "combo": [24, 4],
                     "objective": 1.5, "ebs": [0.4, 0.3]}],
    )


class TestResultRecords:
    def test_scheme_result_yields_labelled_windows_and_decisions(self):
        records = result_records(_scheme_result())
        assert [r["type"] for r in records] == ["window", "decision"]
        window, decision = records
        assert window["workload"] == "BLK_TRD" and window["scheme"] == "pbs-ws"
        assert window["cycle"] == 1000.0 and window["ipc"] == 1.25
        assert decision["kind"] == "sample" and decision["cycle"] == 900.0
        # decisions keep the controller's full detail
        assert decision["combo"] == [24, 4] and decision["objective"] == 1.5
        assert decision["ebs"] == [0.4, 0.3]
        for record in records:
            assert validate_live_record(record) == []

    def test_bare_sim_result_labelled_from_tag(self):
        sample = SimpleNamespace(eb=0.1, bw=0.2, cmr=0.5, ipc=0.7)
        result = SimpleNamespace(windows=[(500.0, {1: sample})])
        (record,) = result_records(result, tag=("alone", "BLK", 8))
        assert record["scheme"] == "alone" and record["workload"] == "BLK"
        assert record["app"] == 1
        (untagged,) = result_records(result)
        assert untagged["scheme"] == "run" and untagged["workload"] == "?"

    def test_non_result_values_yield_nothing(self):
        assert result_records(None) == []
        assert result_records({"plain": "dict"}) == []
        assert result_records(3.14) == []

    def test_every_window_is_kept(self):
        records = result_records(_scheme_result(300))
        cycles = [r["cycle"] for r in records if r["type"] == "window"]
        assert cycles == [1000.0 * (i + 1) for i in range(300)]


class TestProfileFrames:
    def test_top_frames_sorted_by_cumulative_time(self):
        def busy():
            return sum(i * i for i in range(20_000))

        prof = cProfile.Profile()
        prof.runcall(busy)
        frames = profile_frames(prof, top=3)
        assert 0 < len(frames) <= 3
        for label, cum_s, self_s, calls in frames:
            assert isinstance(label, str) and isinstance(calls, int)
            assert cum_s >= 0.0 and self_s >= 0.0
        cums = [frame[1] for frame in frames]
        assert cums == sorted(cums, reverse=True)


# --- the hub ------------------------------------------------------------------


class TestLiveHub:
    def test_collects_validates_and_seals_the_stream(
        self, tmp_path, fresh_metrics
    ):
        seen: list[dict] = []
        hub = LiveHub(
            "run-1", tmp_path / STREAM_FILENAME, on_record=seen.append
        )
        hub.publisher.publish({"type": "batch", "total": 2})
        hub.publisher.publish(
            {"type": "job_done", "job": "a", "pid": 1, "elapsed_s": 0.1}
        )
        hub.publisher.publish({"type": "bogus"})  # invalid: counted, dropped
        hub.publisher.publish(
            {"type": "metrics", "label": "pid9",
             "snapshot": {"counters": {"sim.runs": 2},
                          "gauges": {"engine.wheel.high_water": 7.0}}}
        )
        path = hub.close()

        header, records = load_live(path)
        assert header == {**live_header("run-1")}
        types = [r["type"] for r in records]
        assert types == ["batch", "job_done", "metrics", "stream_end"]
        end = records[-1]
        assert end["records"] == 3 and end["invalid"] == 1
        assert end["dropped"] == 0
        # worker metrics folded into the ambient registry, pid-labelled
        assert fresh_metrics.counters["sim.runs"] == 2
        assert fresh_metrics.gauges["engine.wheel.high_water@pid9"] == 7.0
        # the on_record callback saw every valid record plus stream_end
        assert [r["type"] for r in seen] == types

    def test_close_is_idempotent(self, tmp_path, fresh_metrics):
        hub = LiveHub("run-3", tmp_path / STREAM_FILENAME)
        assert hub.close() == hub.close()
        _, records = load_live(hub.path)
        assert [r["type"] for r in records] == ["stream_end"]

    def test_callback_errors_never_kill_collection(
        self, tmp_path, fresh_metrics
    ):
        def explode(record: dict) -> None:
            raise RuntimeError("dashboard bug")

        hub = LiveHub("run-4", tmp_path / STREAM_FILENAME, on_record=explode)
        hub.publisher.publish({"type": "batch", "total": 1})
        hub.publisher.publish({"type": "heartbeat", "pid": 1})
        hub.close()
        assert hub.callback_errors >= 2  # records + stream_end all survived
        _, records = load_live(hub.path)
        assert [r["type"] for r in records] == [
            "batch", "heartbeat", "stream_end",
        ]


# --- dashboard state ----------------------------------------------------------


class TestLiveState:
    def test_batches_accumulate_and_lifecycle_tracks_workers(self):
        state = LiveState(clock=FakeClock())
        state.apply({"type": "batch", "total": 3})
        state.apply({"type": "batch", "total": 2})
        assert state.total == 5 and state.batches == 2
        state.apply({"type": "job_start", "job": "a", "pid": 10})
        state.apply({"type": "job_start", "job": "b", "pid": 11})
        assert state.active == {10: "a", 11: "b"}
        assert state.queue_depth() == 3
        state.apply({"type": "job_done", "job": "a", "pid": 10,
                     "elapsed_s": 1.0})
        state.apply({"type": "job_fail", "job": "b", "pid": 11,
                     "error": "boom"})
        assert state.done == 1 and state.failed == 1
        assert state.workers == {10, 11} and state.active == {}
        assert state.last_error == "b: boom"
        state.apply({"type": "stream_end", "records": 6})
        assert state.ended

    def test_rate_and_eta_from_completion_span(self):
        clock = FakeClock(100.0)
        state = LiveState(clock=clock)
        state.apply({"type": "batch", "total": 10})
        # first job done at t=100, ran 2s -> anchor backdated to 98
        state.apply({"type": "job_done", "job": "a", "pid": 1,
                     "elapsed_s": 2.0})
        clock.advance(2.0)
        state.apply({"type": "job_done", "job": "b", "pid": 1,
                     "elapsed_s": 2.0})
        assert state.jobs_per_sec() == pytest.approx(0.5)  # 2 jobs / 4s
        assert state.eta_s() == pytest.approx(16.0)  # 8 remaining / 0.5
        assert state.queue_depth() == 8

    def test_no_rate_before_first_completion(self):
        state = LiveState(clock=FakeClock())
        state.apply({"type": "batch", "total": 4})
        assert state.jobs_per_sec() == 0.0 and state.eta_s() is None


class TestRenderLines:
    def _window(self, app_id: int, scheme: str = "pbs-ws") -> dict:
        return {"type": "window", "workload": "BLK_TRD", "scheme": scheme,
                "app": app_id, "cycle": 1600.0, "eb": 0.41, "bw": 0.32,
                "cmr": 0.78, "ipc": 1.23}

    def test_head_series_and_totals(self):
        state = LiveState(clock=FakeClock())
        state.run_id = "compare-1"
        state.apply({"type": "batch", "total": 4})
        state.apply(self._window(0))
        state.apply({"type": "decision", "workload": "BLK_TRD",
                     "scheme": "pbs-ws", "kind": "sample", "cycle": 1600.0})
        lines = render_lines(state)
        assert lines[0].startswith("live compare-1 — jobs 0/4")
        series = [ln for ln in lines if "app0" in ln]
        assert series and "IPC 1.230" in series[0] and "EB 0.410" in series[0]
        assert "decisions 1" in lines[-1]
        assert "last pbs-ws.sample @1600" in lines[-1]

    def test_many_series_elide_and_failures_show(self):
        state = LiveState(clock=FakeClock())
        for i in range(12):
            state.apply(self._window(0, scheme=f"s{i:02d}"))
        state.apply({"type": "job_fail", "job": "x", "pid": 1,
                     "error": "ValueError"})
        lines = render_lines(state)
        assert any("... 4 more series" in ln for ln in lines)
        assert lines[-1].startswith("  FAIL x: ValueError")


class TestDashboard:
    def _records(self) -> list[dict]:
        return [
            {"type": "batch", "total": 2},
            {"type": "job_start", "job": "a", "pid": 1},
            {"type": "job_done", "job": "a", "pid": 1, "elapsed_s": 0.5},
            {"type": "job_done", "job": "b", "pid": 1, "elapsed_s": 0.5},
            {"type": "stream_end", "records": 4},
        ]

    def test_tty_repaints_in_place_with_throttle(self):
        clock = FakeClock()
        stream = FakeTTY()
        dash = Dashboard(stream, run_id="r", min_interval_s=0.25, clock=clock)
        records = self._records()
        dash.on_record(records[0])  # first render is immediate
        dash.on_record(records[1])  # within the interval: folded, no redraw
        assert dash.renders == 1
        clock.advance(0.3)
        dash.on_record(records[2])  # past the interval: redraw
        assert dash.renders == 2
        dash.on_record(records[4])  # stream_end always renders
        assert dash.renders == 3
        out = stream.getvalue()
        assert out.count("\x1b[") >= 2  # in-place rewrites after frame 1
        assert "jobs 1/2" in out and "[done]" in out

    def test_non_tty_degrades_to_plain_lines(self):
        stream = io.StringIO()
        dash = Dashboard(stream, run_id="r", clock=FakeClock())
        for record in self._records():
            dash.on_record(record)
        dash.on_record({"type": "job_fail", "job": "c", "pid": 1,
                        "error": "boom"})
        out = stream.getvalue()
        assert "\x1b[" not in out and dash.renders == 0
        assert "[1/2] a (0.5s, pid 1)" in out
        assert "stream end: 2 done, 0 failed" in out
        assert "FAIL c: boom" in out


class TestWatch:
    def _write_stream(self, path, *, end: bool = True) -> None:
        with JsonlAppender(path) as sink:
            sink.append(live_header("run-w"))
            sink.append({"type": "batch", "total": 1})
            sink.append({"type": "job_done", "job": "a", "pid": 1,
                         "elapsed_s": 0.5})
            if end:
                sink.append({"type": "stream_end", "records": 2})

    def test_replays_a_finished_stream(self, tmp_path):
        path = tmp_path / STREAM_FILENAME
        self._write_stream(path)
        stream = io.StringIO()
        state = watch(path, follow=False, stream=stream, clock=FakeClock())
        assert state.ended and state.done == 1
        assert state.run_id == "run-w"  # adopted from the header
        assert "stream end" in stream.getvalue()

    def test_rejects_a_non_live_file(self, tmp_path):
        path = tmp_path / STREAM_FILENAME
        path.write_text('{"schema": "other", "version": 1}\n')
        with pytest.raises(ValueError, match="not a repro.obs.live"):
            watch(path, follow=False, stream=io.StringIO())

    def test_partial_trailing_line_is_not_parsed(self, tmp_path):
        path = tmp_path / STREAM_FILENAME
        self._write_stream(path, end=False)
        with path.open("a") as fh:
            fh.write('{"type": "job_done", "job"')  # writer mid-append
        state = watch(
            path, follow=False, stream=io.StringIO(), clock=FakeClock()
        )
        assert state.done == 1 and not state.ended

    def test_follow_times_out_on_a_stalled_stream(self, tmp_path):
        path = tmp_path / STREAM_FILENAME
        self._write_stream(path, end=False)
        clock = FakeClock()
        state = watch(
            path, follow=True, stream=io.StringIO(), timeout_s=5.0,
            clock=clock, sleep=lambda s: clock.advance(10.0),
        )
        assert state.done == 1 and not state.ended


# --- chrome routing -----------------------------------------------------------


class TestChromeProfileRouting:
    def test_profile_instants_get_their_own_thread(self):
        records = [
            {"type": "job_done", "job": "job:a", "pid": 111,
             "elapsed_s": 1.0, "t": 1.0},
            {"type": "profile", "job": "job:a", "pid": 111, "t": 1.0,
             "frames": [["step (engine.py:10)", 0.9, 0.4, 120]]},
        ]
        doc = chrome_trace(records, run_id="r")
        (hot,) = [r for r in doc["traceEvents"]
                  if r.get("cat") == "profile"]
        assert hot["tid"] == 90  # below the worker tid range
        assert hot["name"] == "hot:step (engine.py:10)"
        assert hot["args"]["cum_s"] == 0.9 and hot["args"]["calls"] == 120
        assert hot["args"]["pid"] == 111
        names = {r["args"]["name"] for r in doc["traceEvents"]
                 if r["ph"] == "M" and r["name"] == "thread_name"}
        assert "profiling" in names

    def test_no_profile_thread_without_profile_events(self):
        doc = chrome_trace(
            [{"type": "job_done", "job": "x", "pid": 1, "elapsed_s": 0.1,
              "t": 1.0}],
            run_id="r",
        )
        names = {r["args"]["name"] for r in doc["traceEvents"]
                 if r["ph"] == "M" and r["name"] == "thread_name"}
        assert "profiling" not in names


# --- engine self-profiling and the identity invariant -------------------------


def _tiny_run():
    from repro.config import small_config
    from repro.core.runner import run_combo
    from repro.workloads.table4 import app_by_abbr

    return run_combo(
        small_config(),
        [app_by_abbr("BLK"), app_by_abbr("TRD")],
        (8, 8),
        cycles=4000,
        warmup=400,
        seed=13,
    )


class TestEngineProfiling:
    def test_profiling_counters_reach_the_ambient_registry(
        self, fresh_metrics
    ):
        from repro.sim import set_engine_profiling

        previous = set_engine_profiling(True)
        try:
            _tiny_run()
        finally:
            set_engine_profiling(previous)
        counters = fresh_metrics.counters
        assert counters["engine.events.dispatched"] > 0
        assert any(k.startswith("engine.dispatch.") for k in counters)
        assert fresh_metrics.gauges["engine.wheel.high_water"] > 0
        assert fresh_metrics.gauges["engine.txn_pool.high_water"] > 0

    def test_profiling_off_leaves_the_registry_silent(self, fresh_metrics):
        _tiny_run()
        assert not any(
            k.startswith("engine.") for k in fresh_metrics.counters
        )

    def test_results_identical_with_profiling_on(self, fresh_metrics):
        from repro.sim import set_engine_profiling

        silent = _tiny_run()
        previous = set_engine_profiling(True)
        try:
            profiled = _tiny_run()
        finally:
            set_engine_profiling(previous)
        assert profiled == silent  # bit-identical SimResult


class TestTelemetryIdentity:
    def test_published_run_is_identical_to_a_silent_one(self, fresh_metrics):
        silent = _tiny_run()
        q: "queue.Queue[dict]" = queue.Queue()
        set_publisher(QueuePublisher(q, worker=False))
        try:
            published = _tiny_run()
        finally:
            set_publisher(None)
        assert published == silent


# --- pool progress throttle ---------------------------------------------------


class TestProgressThrottle:
    def test_drops_within_interval_but_always_delivers_the_final(self):
        from repro.exec import ProgressThrottle

        calls: list[tuple] = []
        clock = FakeClock()
        throttle = ProgressThrottle(
            lambda done, total, spec: calls.append((done, total)),
            min_interval_s=1.0, clock=clock,
        )
        spec = SimpleNamespace(tag=("BLK", "alone", 8))
        throttle(1, 4, spec)       # first call delivers
        throttle(2, 4, spec)       # within interval: dropped
        clock.advance(1.5)
        throttle(3, 4, spec)       # past interval: delivers
        throttle(4, 4, spec)       # final call always delivers
        assert calls == [(1, 4), (3, 4), (4, 4)]
        assert throttle.delivered == 3 and throttle.dropped == 1

    def test_forwards_elapsed_only_to_four_arg_hooks(self):
        from repro.exec import ProgressThrottle

        three: list[tuple] = []
        four: list[tuple] = []
        spec = object()
        ProgressThrottle(lambda d, t, s: three.append((d, t, s)))(
            1, 1, spec, 2.5
        )
        ProgressThrottle(lambda d, t, s, e: four.append((d, t, s, e)))(
            1, 1, spec, 2.5
        )
        assert three == [(1, 1, spec)]
        assert four == [(1, 1, spec, 2.5)]


# --- the CLI gate -------------------------------------------------------------


@pytest.fixture
def isolated_store(tmp_path, monkeypatch):
    """Point the result cache at a temp dir so traced runs simulate."""
    import repro.experiments.common as common

    store_root = tmp_path / "store"
    store_root.mkdir()
    monkeypatch.setattr(
        common.ResultStore, "__init__",
        lambda self, root=store_root: setattr(self, "root", store_root),
    )
    return tmp_path


class TestCLILive:
    def _traced_compare(self, isolated_store, *extra: str):
        from repro.cli import main

        trace_dir = isolated_store / "traces"
        code = main([
            "--config", "small", "--quick", "--jobs", "2",
            "compare", "BLK", "TRD", "--schemes", "besttlp,pbs-ws",
            "--trace", "--trace-dir", str(trace_dir), *extra,
        ])
        assert code == 0
        (run_dir,) = trace_dir.iterdir()
        return run_dir

    def test_profiled_pooled_run_streams_everything(
        self, isolated_store, capsys
    ):
        from repro.cli import main

        run_dir = self._traced_compare(isolated_store, "--profile")
        header, records = load_live(run_dir / STREAM_FILENAME)
        assert header["run_id"] == run_dir.name
        types = {r["type"] for r in records}
        assert {"batch", "job_start", "job_done", "window", "decision",
                "profile", "metrics", "stream_end"} <= types
        end = records[-1]
        assert end["type"] == "stream_end"
        assert end["records"] == len(records) - 1 and end["invalid"] == 0
        # every window was published exactly once (no worker/parent dupes)
        windows = [
            (r["workload"], r["scheme"], r["app"], r["cycle"])
            for r in records if r["type"] == "window"
        ]
        assert len(windows) == len(set(windows))

        # profile frames landed in the Perfetto export on their thread
        chrome = json.loads((run_dir / "trace.chrome.json").read_text())
        hot = [r for r in chrome["traceEvents"]
               if r.get("cat") == "profile"]
        assert hot and all(r["tid"] == 90 for r in hot)

        # engine self-profiling counters reached the run manifest
        manifest = json.loads((run_dir / "manifest.json").read_text())
        counters = manifest["metrics"]["counters"]
        assert counters["engine.events.dispatched"] > 0

        capsys.readouterr()
        # the stream is replayable through the watch command
        assert main(["watch", str(run_dir), "--no-follow"]) == 0
        assert "stream end:" in capsys.readouterr().err

        # and summarize reports it, in both text and JSON
        assert main(["trace", "summarize", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "== stream ==" in out and "== engine counters ==" in out
        assert main(["trace", "summarize", str(run_dir), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["run_id"] == run_dir.name
        assert data["stream"]["invalid"] == 0
        assert data["stream"]["types"]["window"] == len(windows)
        assert data["engine"]["counters"]["engine.events.dispatched"] > 0

    def test_untraced_run_leaves_no_ambient_publisher(self, isolated_store):
        run_dir = self._traced_compare(isolated_store)
        assert isinstance(get_publisher(), NullPublisher)
        _, records = load_live(run_dir / STREAM_FILENAME)
        assert not any(r["type"] == "profile" for r in records)

    def test_watch_flag_prints_plain_lines_off_tty(
        self, isolated_store, capsys
    ):
        run_dir = self._traced_compare(isolated_store, "--watch")
        err = capsys.readouterr().err
        assert "stream end:" in err and "\x1b[" not in err
        assert (run_dir / STREAM_FILENAME).is_file()

    def test_watch_missing_run_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["watch", "nope", "--trace-dir", str(tmp_path)]) == 2
        assert STREAM_FILENAME in capsys.readouterr().err


# --- one stream, three folds --------------------------------------------------


class TestOneStream:
    def test_folds_agree_on_one_recording(self, isolated_store):
        from repro.cli import main

        trace_dir = isolated_store / "traces"
        assert main([
            "--config", "small", "--quick", "--jobs", "2",
            "compare", "BLK", "TRD", "--schemes", "dyncta,pbs-ws",
            "--profile", "--trace-dir", str(trace_dir),
        ]) == 0
        (run_dir,) = trace_dir.iterdir()
        stream = run_dir / STREAM_FILENAME

        chrome = json.loads((run_dir / "trace.chrome.json").read_text())
        events = [e for e in chrome["traceEvents"] if e["ph"] != "M"]
        chrome_windows: dict[str, int] = {}
        for e in events:
            if e["cat"] == "window":
                chrome_windows[e["name"]] = chrome_windows.get(e["name"], 0) + 1
        chrome_jobs = sum(e["cat"] == "job" for e in events)
        chrome_decisions = sum(e["cat"] in ("pbs", "ctrl") for e in events)

        data = summary_data(stream)
        summary_windows = {
            name: tl["windows"] for name, tl in data["window_timelines"].items()
        }
        summary_decisions = sum(d["count"] for d in data["decisions"].values())

        state = watch(stream, follow=False, stream=io.StringIO(),
                      clock=FakeClock())
        watch_windows = {
            f"{w}|{s}|app{a}": n for (w, s, a), n in state.series_windows.items()
        }

        assert chrome_jobs == data["jobs"]["count"] == state.done > 0
        assert chrome_windows == summary_windows == watch_windows
        assert len(summary_windows) == 4  # two apps under two schemes
        assert sum(watch_windows.values()) == state.window_count
        assert chrome_decisions == summary_decisions == state.decision_count > 0

    def test_old_two_file_format_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        run_dir = tmp_path / "compare-old"
        run_dir.mkdir()
        (run_dir / "trace.jsonl").write_text(
            '{"schema": "repro.obs.trace", "version": 1, "run_id": "old"}\n'
        )
        old_live = run_dir / "live.ndjson"
        old_live.write_text(
            '{"schema": "repro.obs.live", "version": 1, "run_id": "old"}\n'
        )
        for argv in (["trace", "summarize", str(run_dir)],
                     ["trace", "summarize", str(run_dir), "--json"],
                     ["watch", str(run_dir), "--no-follow"]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and STREAM_FILENAME in err
        # pointed at the old stream file itself: a clean version error
        for argv in (["trace", "summarize", str(old_live)],
                     ["watch", str(old_live), "--no-follow"]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and "version" in err
