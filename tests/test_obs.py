"""Tests for repro.obs: the stream, metrics, manifests, and its folds.

Unit coverage for each obs module plus the end-to-end gate: a traced
quick ``compare`` run must produce a parseable event stream, a loadable
Chrome export, and a complete manifest, and ``repro trace summarize``
must reconstruct phases, window timelines, and the PBS decision log
from them.
"""

from __future__ import annotations

import io
import json
import queue
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.experiments.common import MODEL_DIGEST
from repro.obs import (
    MANIFEST_FILENAME,
    REQUIRED_FIELDS,
    STREAM_FILENAME,
    JsonlAppender,
    LiveHub,
    MetricsRegistry,
    NullPublisher,
    QueuePublisher,
    RunManifest,
    atomic_write_text,
    chrome_trace,
    config_fingerprint,
    decision_log,
    get_metrics,
    get_publisher,
    job_stats,
    live_header,
    load_live,
    parse_live,
    read_jsonl,
    resolve_trace_path,
    result_records,
    set_metrics,
    set_publisher,
    span_totals,
    summarize,
    validate_live_record,
    validate_manifest,
    window_timelines,
    write_chrome_trace,
)


def _drain(q: "queue.Queue[dict]") -> list[dict]:
    out = []
    while not q.empty():
        out.append(q.get_nowait())
    return out


# --- stream records and host spans --------------------------------------------


class TestEvent:
    def test_round_trip(self):
        q: "queue.Queue[dict]" = queue.Queue()
        with QueuePublisher(q, worker=False).span("phase", detail="x"):
            pass
        (record,) = _drain(q)
        assert json.loads(json.dumps(record)) == record
        assert validate_live_record(record) == []
        assert record["args"] == {"detail": "x"}

    def test_dur_only_serialized_for_spans(self):
        q: "queue.Queue[dict]" = queue.Queue()
        publisher = QueuePublisher(q, worker=False)
        publisher.publish({"type": "batch", "total": 1})
        with publisher.span("phase"):
            pass
        batch, span = _drain(q)
        assert "dur_s" not in batch
        assert span["dur_s"] >= 0.0 and span["args"] == {}


class TestTracer:
    def test_span_records_nesting_depth(self):
        q: "queue.Queue[dict]" = queue.Queue()
        publisher = QueuePublisher(q, worker=False)
        with publisher.span("outer"):
            with publisher.span("inner"):
                pass
        inner, outer = _drain(q)  # a span is published when it closes
        assert (outer["name"], outer["depth"]) == ("outer", 0)
        assert (inner["name"], inner["depth"]) == ("inner", 1)
        assert outer["dur_s"] >= inner["dur_s"] >= 0.0
        assert outer["t0"] <= inner["t0"]
        # a worker's spans nest below the parent's phases
        worker = QueuePublisher(q, worker=True)
        with worker.span("evaluate:pbs-ws"):
            pass
        (nested,) = _drain(q)
        assert nested["depth"] == 1

    def test_counter_and_instant_clocks(self):
        # Window samples (counters) and decisions (instants) carry the
        # simulated clock; host spans carry wall time.
        q: "queue.Queue[dict]" = queue.Queue()
        publisher = QueuePublisher(q, worker=False)
        for record in result_records(_scheme_result()):
            publisher.publish(record)
        with publisher.span("phase"):
            pass
        window, decision, span = _drain(q)
        assert window["cycle"] == 1000.0 and decision["cycle"] == 900.0
        assert "t0" not in window and "t0" not in decision
        assert span["t0"] > 1e9  # unix wall seconds

    def test_jsonl_round_trip(self, tmp_path):
        hub = LiveHub("roundtrip", tmp_path / STREAM_FILENAME)
        with hub.publisher.span("phase", cat="host", detail="x"):
            for record in result_records(_scheme_result()):
                hub.publisher.publish(record)
        path = hub.close()
        header, records = load_live(path)
        assert header["run_id"] == "roundtrip"
        assert [r["type"] for r in records] == [
            "window", "decision", "span", "stream_end",
        ]
        assert records[1]["combo"] == [24, 4]
        assert records[2]["args"] == {"detail": "x"}

    def test_phase_totals_top_level_only(self):
        records = [
            {"type": "span", "name": "sub", "cat": "host", "pid": 1,
             "depth": 1, "t0": 0.0, "dur_s": 0.5},
            {"type": "span", "name": "phase", "cat": "host", "pid": 1,
             "depth": 0, "t0": 0.0, "dur_s": 1.0},
            {"type": "job_done", "job": "job:x", "pid": 1, "elapsed_s": 1.0},
        ]
        totals = span_totals(records)
        assert set(totals) == {"phase"}  # no sub-span, no job
        assert totals["phase"]["count"] == 1


class TestAmbientTracer:
    def test_default_is_disabled(self):
        publisher = get_publisher()
        assert isinstance(publisher, NullPublisher) and not publisher.enabled
        with publisher.span("anything"):  # usable as a no-op
            pass

    def test_tracing_restores_on_exception(self):
        q: "queue.Queue[dict]" = queue.Queue()
        publisher = QueuePublisher(q, worker=False)
        with pytest.raises(RuntimeError):
            with publisher.span("outer"):
                with publisher.span("inner"):
                    raise RuntimeError("boom")
        inner, outer = _drain(q)  # both spans still published
        assert (inner["depth"], outer["depth"]) == (1, 0)
        with publisher.span("next"):
            pass
        assert _drain(q)[0]["depth"] == 0  # nesting unwound

    def test_set_tracer_none_disables(self):
        q: "queue.Queue[dict]" = queue.Queue()
        set_publisher(QueuePublisher(q, worker=False))
        set_publisher(None)
        with get_publisher().span("phase"):
            pass
        assert not get_publisher().enabled and q.empty()


class TestParseErrors:
    HEADER = live_header("r")

    def test_empty_trace(self):
        with pytest.raises(ValueError, match="missing schema header"):
            parse_live([])

    def test_wrong_schema(self):
        with pytest.raises(ValueError, match="not a repro.obs live stream"):
            parse_live([{"schema": "repro.obs.trace", "version": 1}])

    def test_wrong_version(self):
        # the pre-v2 live stream (capped windows, no spans) is refused
        with pytest.raises(ValueError, match="unsupported live-stream version"):
            parse_live([{**self.HEADER, "version": 1}])

    def test_missing_field_names_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_live([self.HEADER, {"type": "span", "name": "x"}])


# --- io -----------------------------------------------------------------------


class TestAtomicIO:
    def test_atomic_write_replaces_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "one")
        atomic_write_text(path, "two")
        assert path.read_text() == "two"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_read_jsonl_skips_blanks_and_reports_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"a": 1}\n\n{"b": 2}\n')
        assert read_jsonl(path) == [{"a": 1}, {"b": 2}]
        path.write_text('{"a": 1}\nnot json\n')
        with pytest.raises(ValueError, match=r"data\.jsonl:2"):
            read_jsonl(path)


# --- metrics ------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counters_and_gauges(self):
        reg = MetricsRegistry()
        reg.inc("cache.scheme.hit")
        reg.inc("cache.scheme.hit", 2)
        reg.set_gauge("jobs", 4)
        assert reg.counters["cache.scheme.hit"] == 3
        assert reg.gauges["jobs"] == 4

    def test_snapshot_and_reset(self):
        reg = MetricsRegistry()
        reg.inc("c")
        reg.set_gauge("g", 2.0)
        snap = reg.snapshot()
        assert snap == {"counters": {"c": 1}, "gauges": {"g": 2.0}}
        json.dumps(snap)  # must be JSON-serializable
        reg.reset()
        assert reg.snapshot() == {"counters": {}, "gauges": {}}

    def test_ambient_swap_returns_previous(self):
        original = get_metrics()
        fresh = MetricsRegistry()
        assert set_metrics(fresh) is original
        try:
            assert get_metrics() is fresh
        finally:
            assert set_metrics(original) is fresh


class TestMetricsMerge:
    """Cross-process folding semantics (the stream-collector contract)."""

    def _worker(self, n: float) -> MetricsRegistry:
        reg = MetricsRegistry()
        reg.inc("jobs", n)
        reg.set_gauge("high_water", n)
        return reg

    def test_counter_merge_is_associative(self):
        snaps = [self._worker(n).snapshot() for n in (1, 2, 3)]
        left = MetricsRegistry()        # (a + b) + c
        left.merge(snaps[0])
        left.merge(snaps[1])
        left.merge(snaps[2])
        ab = MetricsRegistry()          # a + (b + c) via an intermediate
        ab.merge(snaps[1])
        ab.merge(snaps[2])
        right = MetricsRegistry()
        right.merge(snaps[0])
        right.merge(ab.snapshot())
        assert left.counters == right.counters == {"jobs": 6}

    def test_gauge_labels_keep_workers_apart(self):
        parent = MetricsRegistry()
        parent.merge(self._worker(1).snapshot(), label="pid1")
        parent.merge(self._worker(2).snapshot(), label="pid2")
        assert parent.gauges == {
            "high_water@pid1": 1.0, "high_water@pid2": 2.0,
        }
        # same label twice: one worker, one slot — last write wins
        parent.merge(self._worker(5).snapshot(), label="pid1")
        assert parent.gauges["high_water@pid1"] == 5.0
        # unlabelled merges collide by design
        bare = MetricsRegistry()
        bare.merge(self._worker(1).snapshot())
        bare.merge(self._worker(2).snapshot())
        assert bare.gauges == {"high_water": 2.0}

    def test_full_snapshot_round_trips(self):
        reg = self._worker(4)
        clone = MetricsRegistry()
        clone.merge(reg.snapshot())
        assert clone.snapshot() == reg.snapshot()

    def test_reset_isolates_subsequent_merges(self):
        reg = self._worker(1)
        reg.reset()
        assert reg.snapshot() == {"counters": {}, "gauges": {}}
        reg.merge(self._worker(2).snapshot())
        assert reg.counters == {"jobs": 2}  # no residue from before reset


# --- chrome export ------------------------------------------------------------


class TestChromeExport:
    def test_clock_domains_map_to_processes(self):
        records = [
            {"type": "span", "name": "host", "cat": "host", "pid": 7,
             "depth": 0, "t0": 100.0, "dur_s": 1.0, "t": 101.0},
            {"type": "window", "workload": "w", "scheme": "s", "app": 0,
             "cycle": 5.0, "eb": 0.5, "bw": 0.4, "cmr": 0.1, "ipc": 1.0},
            {"type": "decision", "workload": "w", "scheme": "pbs-ws",
             "kind": "sample", "cycle": 7.0, "combo": [24, 4]},
        ]
        doc = chrome_trace(records, run_id="r")
        assert doc["displayTimeUnit"] == "ms"
        out = {r["name"]: r for r in doc["traceEvents"] if r["ph"] != "M"}
        assert out["host"]["pid"] == 1
        assert out["host"]["ts"] == 0.0 and out["host"]["dur"] == 1e6
        assert out["w|s|app0"]["pid"] == 2
        assert out["w|s|app0"]["ts"] == 5.0
        assert out["w|s|app0"]["args"] == {
            "eb": 0.5, "bw": 0.4, "cmr": 0.1, "ipc": 1.0,
        }
        assert out["pbs.sample"]["pid"] == 2 and out["pbs.sample"]["s"] == "t"
        assert out["pbs.sample"]["args"]["combo"] == [24, 4]
        meta = [r for r in doc["traceEvents"] if r["ph"] == "M"]
        names = {r["args"]["name"] for r in meta}
        assert any("host" in n for n in names)
        assert any("cycle" in n for n in names)

    def test_workers_get_their_own_threads(self):
        records = [
            {"type": "job_done", "job": f"job:{name}", "pid": pid,
             "elapsed_s": 1.0, "t": t}
            for name, pid, t in (("a", 111, 1.0), ("b", 222, 2.0),
                                 ("c", 111, 3.0))
        ]
        doc = chrome_trace(records)
        tids = [r["tid"] for r in doc["traceEvents"]
                if r.get("cat") == "job"]
        assert tids[0] == tids[2] != tids[1]
        assert all(t >= 100 for t in tids)
        thread_names = [r for r in doc["traceEvents"]
                        if r["ph"] == "M" and r["name"] == "thread_name"]
        assert len(thread_names) == 2

    def test_write_is_loadable_json(self, tmp_path):
        path = tmp_path / "trace.chrome.json"
        write_chrome_trace(path, [{"type": "batch", "total": 1, "t": 0.0}])
        doc = json.loads(path.read_text())
        assert "traceEvents" in doc


# --- manifest -----------------------------------------------------------------


class TestManifest:
    def _started(self):
        return RunManifest.start(
            run_id="r", command="compare", argv=["compare", "BLK", "TRD"],
            config_name="small", config_dict={"n_sm": 4}, seed=1,
            quick=True, n_jobs=2, model_digest="d1",
        )

    def test_complete_manifest_validates(self, tmp_path):
        manifest = self._started()
        manifest.finish(phases={"evaluate_schemes": {"count": 1}},
                        metrics={}, files=[STREAM_FILENAME])
        path = manifest.write(tmp_path)
        assert path.name == MANIFEST_FILENAME
        data = json.loads(path.read_text())
        assert validate_manifest(data) == []
        assert set(REQUIRED_FIELDS) <= set(data)
        assert data["duration_s"] >= 0.0

    def test_missing_field_and_bad_timestamp_flagged(self):
        manifest = self._started()
        manifest.finish(phases={}, metrics={}, files=[])
        data = manifest.to_dict()
        del data["seed"]
        data["started_at"] = "yesterday-ish"
        problems = validate_manifest(data)
        assert "seed" in problems and "started_at" in problems

    def test_config_fingerprint_stable_and_sensitive(self):
        a = config_fingerprint({"x": 1, "y": 2})
        assert a == config_fingerprint({"y": 2, "x": 1})  # order-insensitive
        assert a != config_fingerprint({"x": 1, "y": 3})
        assert len(a) == 16


# --- summarize aggregations ---------------------------------------------------


def _synthetic_records():
    return [
        {"type": "batch", "total": 2, "t": 100.0},
        {"type": "job_start", "job": "job:BLK/1", "pid": 10, "t": 100.25},
        {"type": "job_start", "job": "job:BLK/2", "pid": 11, "t": 100.0},
        {"type": "job_done", "job": "job:BLK/2", "pid": 11,
         "elapsed_s": 0.3, "t": 100.3},
        {"type": "job_done", "job": "job:BLK/1", "pid": 10,
         "elapsed_s": 0.5, "t": 100.75},
        {"type": "span", "name": "sub", "cat": "host", "pid": 1, "depth": 1,
         "t0": 100.0, "dur_s": 1.0},
        {"type": "span", "name": "evaluate_schemes", "cat": "host", "pid": 1,
         "depth": 0, "t0": 100.0, "dur_s": 2.0},
        {"type": "window", "workload": "BLK_TRD", "scheme": "pbs-ws",
         "app": 0, "cycle": 2000.0, "eb": 0.5, "bw": 0.4, "cmr": 0.1,
         "ipc": 1.0},
        {"type": "window", "workload": "BLK_TRD", "scheme": "pbs-ws",
         "app": 0, "cycle": 1000.0, "eb": 0.3, "bw": 0.2, "cmr": 0.2,
         "ipc": 1.0},
        {"type": "decision", "workload": "BLK_TRD", "scheme": "pbs-ws",
         "kind": "settled", "cycle": 1800.0, "combo": [24, 4],
         "n_samples": 9},
        {"type": "decision", "workload": "BLK_TRD", "scheme": "pbs-ws",
         "kind": "sample", "cycle": 1500.0, "combo": [24, 4],
         "objective": 1.25},
    ]


def _write_stream(run_dir: Path, run_id: str) -> Path:
    run_dir.mkdir(parents=True)
    path = run_dir / STREAM_FILENAME
    with JsonlAppender(path) as sink:
        sink.append(live_header(run_id))
        for record in _synthetic_records():
            sink.append(record)
    return path


class TestSummarizeAggregations:
    def test_span_totals_scopes_by_tid(self):
        records = _synthetic_records()
        top = span_totals(records, depth=0)
        assert set(top) == {"evaluate_schemes"}  # no sub-spans, no jobs
        assert top["evaluate_schemes"]["total_s"] == pytest.approx(2.0)
        assert set(span_totals(records, depth=None)) == {
            "evaluate_schemes", "sub",
        }

    def test_job_stats(self):
        stats = job_stats(_synthetic_records())
        assert stats["count"] == 2 and stats["workers"] == 2
        assert stats["total_s"] == pytest.approx(0.8)
        # queue wait: batch submitted at t=100, jobs started at +0.25, +0
        assert stats["queue_wait_s"] == pytest.approx(0.25)

    def test_window_timelines_sorted_by_cycle(self):
        series = window_timelines(_synthetic_records())
        samples = series[("BLK_TRD", "pbs-ws", 0)]
        assert [t for t, _ in samples] == [1000.0, 2000.0]
        assert samples[0][1]["eb"] == 0.3

    def test_decision_log_grouped_and_stripped(self):
        log = decision_log(_synthetic_records())
        entries = log[("BLK_TRD", "pbs-ws")]
        assert [d["kind"] for d in entries] == ["sample", "settled"]
        assert entries[0]["combo"] == [24, 4]
        assert "workload" not in entries[0] and "type" not in entries[0]

    def test_summarize_renders_everything(self, tmp_path):
        _write_stream(tmp_path / "traces" / "synthetic", "synthetic")
        text = summarize("synthetic", tmp_path / "traces")
        assert "evaluate_schemes" in text
        assert "2 jobs on 2 worker(s)" in text
        assert "BLK_TRD pbs-ws app0: 2 windows" in text
        assert "sample (24, 4)  obj=1.2500" in text
        assert "settled on (24, 4) after 9 samples" in text
        assert f"no {MANIFEST_FILENAME}" in text

    def _run_dir_with_trace(self, tmp_path):
        run_dir = tmp_path / "traces" / "failed-run"
        _write_stream(run_dir, "failed-run")
        return run_dir

    def test_summarize_tolerates_failure_path_manifest(self, tmp_path):
        # A manifest from a crashed run: null argv/duration, no
        # finished_at, no per-phase timings, and the listed Chrome
        # export never landed on disk.  Summarize must degrade to a
        # partial summary with warnings, not a traceback.
        run_dir = self._run_dir_with_trace(tmp_path)
        (run_dir / MANIFEST_FILENAME).write_text(json.dumps({
            "schema": "repro.obs.manifest",
            "run_id": "failed-run",
            "command": "compare",
            "argv": None,
            "duration_s": None,
            "finished_at": "",
            "phases": None,
            "files": [STREAM_FILENAME, "trace.chrome.json"],
        }))
        text = summarize("failed-run", tmp_path / "traces")
        assert "did not finish cleanly" in text
        assert "trace.chrome.json" in text and "absent" in text
        assert "partial summary" in text
        assert "INCOMPLETE" in text  # required fields still reported
        assert "evaluate_schemes" in text  # stream sections still render

    def test_summarize_tolerates_corrupt_manifest(self, tmp_path):
        run_dir = self._run_dir_with_trace(tmp_path)
        (run_dir / MANIFEST_FILENAME).write_text("{ truncated")
        text = summarize("failed-run", tmp_path / "traces")
        assert "unreadable manifest" in text
        assert "partial summary" in text
        assert "2 jobs on 2 worker(s)" in text

    def test_summarize_flags_missing_chrome_export(self, tmp_path):
        run_dir = self._run_dir_with_trace(tmp_path)
        (run_dir / MANIFEST_FILENAME).write_text(json.dumps({
            "schema": "repro.obs.manifest",
            "run_id": "failed-run",
            "files": [STREAM_FILENAME],
        }))
        text = summarize("failed-run", tmp_path / "traces")
        assert "no Chrome/Perfetto export" in text

    def test_resolve_trace_path_variants(self, tmp_path):
        run_dir = tmp_path / "traces" / "runx"
        run_dir.mkdir(parents=True)
        stream = run_dir / STREAM_FILENAME
        stream.write_text("{}\n")
        assert resolve_trace_path(stream) == stream
        assert resolve_trace_path(run_dir) == stream
        assert resolve_trace_path("runx", tmp_path / "traces") == stream
        with pytest.raises(FileNotFoundError, match=STREAM_FILENAME):
            resolve_trace_path("nope", tmp_path / "traces")


# --- scheme replay ------------------------------------------------------------


def _scheme_result():
    sample = SimpleNamespace(eb=0.5, bw=0.4, cmr=0.1, ipc=1.2)
    return SimpleNamespace(
        workload="BLK_TRD",
        scheme="pbs-ws",
        result=SimpleNamespace(windows=[(1000.0, {0: sample})]),
        decisions=[{"kind": "sample", "cycle": 900.0,
                    "combo": [24, 4], "objective": 1.5}],
    )


class TestEmitSchemeEvents:
    def test_emits_counters_and_instants(self):
        from repro.core.runner import emit_scheme_events

        q: "queue.Queue[dict]" = queue.Queue()
        set_publisher(QueuePublisher(q, worker=False))
        try:
            emit_scheme_events(_scheme_result())
        finally:
            set_publisher(None)
        window, decision = _drain(q)
        assert (window["workload"], window["scheme"], window["app"]) == (
            "BLK_TRD", "pbs-ws", 0,
        )
        assert (window["eb"], window["bw"], window["cmr"]) == (0.5, 0.4, 0.1)
        assert decision["kind"] == "sample" and decision["cycle"] == 900.0
        assert decision["combo"] == [24, 4] and decision["objective"] == 1.5

    def test_disabled_tracer_emits_nothing(self):
        from repro.core.runner import emit_scheme_events

        emit_scheme_events(_scheme_result())  # NullPublisher: no raise
        # a worker publisher leaves emission to the parent
        q: "queue.Queue[dict]" = queue.Queue()
        set_publisher(QueuePublisher(q, worker=True))
        try:
            emit_scheme_events(_scheme_result())
        finally:
            set_publisher(None)
        assert q.empty()


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


class TestCLITrace:
    def test_traced_compare_end_to_end(self, isolated_store, capsys):
        from repro.cli import main

        trace_dir = isolated_store / "traces"
        code = main([
            "--config", "small", "--quick", "--jobs", "1",
            "compare", "BLK", "TRD", "--schemes", "besttlp,pbs-ws",
            "--trace", "--trace-dir", str(trace_dir),
        ])
        assert code == 0
        (run_dir,) = trace_dir.iterdir()
        assert run_dir.name.startswith("compare-")
        assert sorted(p.name for p in run_dir.iterdir()) == sorted(
            [STREAM_FILENAME, "trace.chrome.json", MANIFEST_FILENAME]
        )

        header, records = load_live(run_dir / STREAM_FILENAME)
        assert header["run_id"] == run_dir.name
        assert window_timelines(records)  # per-app EB/BW/CMR present
        log = decision_log(records)
        pbs_entries = log[("BLK_TRD", "pbs-ws")]
        assert any(d["kind"] == "sample" for d in pbs_entries)
        assert any(d["kind"] in ("final", "settled") for d in pbs_entries)

        chrome = json.loads((run_dir / "trace.chrome.json").read_text())
        assert chrome["traceEvents"]

        manifest = json.loads((run_dir / MANIFEST_FILENAME).read_text())
        assert validate_manifest(manifest) == []
        assert manifest["command"] == "compare"
        assert manifest["model_digest"] == MODEL_DIGEST
        assert manifest["phases"]  # per-phase wall timings recorded
        assert manifest["files"] == sorted([STREAM_FILENAME, "trace.chrome.json"])
        capsys.readouterr()

        # the summarize subcommand reconstructs the run's story
        assert main(["trace", "summarize", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "== phases (wall) ==" in out
        assert "BLK_TRD pbs-ws app0" in out
        assert "sample" in out

    def test_serial_and_pooled_runs_publish_each_result_once(self, isolated_store):
        """Every scheme window and decision reaches the stream once,
        whether the evaluations ran in process or in pool workers."""
        import shutil
        from collections import Counter

        from repro.cli import main

        def traced(jobs: int) -> tuple[Counter, Counter]:
            store = isolated_store / "store"
            shutil.rmtree(store)
            store.mkdir()
            trace_dir = isolated_store / f"traces-{jobs}"
            assert main([
                "--config", "small", "--quick", "--jobs", str(jobs),
                "compare", "BLK", "TRD",
                "--schemes", "besttlp,dyncta,pbs-ws,opt-ws",
                "--trace", "--trace-dir", str(trace_dir),
            ]) == 0
            (run_dir,) = trace_dir.iterdir()
            _header, records = load_live(run_dir / STREAM_FILENAME)
            windows = Counter(
                (r["workload"], r["scheme"], r["app"], r["cycle"])
                for r in records
                if r["type"] == "window" and r["scheme"] not in ("alone", "surface")
            )
            decisions = Counter(
                r["kind"] for r in records if r["type"] == "decision"
            )
            return windows, decisions

        serial_windows, serial_decisions = traced(1)
        pooled_windows, pooled_decisions = traced(2)
        assert set(serial_windows.values()) == {1}
        assert serial_windows == pooled_windows
        assert serial_decisions == pooled_decisions
        assert serial_decisions["sample"] > 0

    def test_tracer_uninstalled_after_run(self, isolated_store):
        from repro.cli import main

        main(["--config", "small", "--quick", "--jobs", "1",
              "run", "BLK", "TRD", "--scheme", "besttlp",
              "--trace", "--trace-dir", str(isolated_store / "t")])
        assert not get_publisher().enabled

    def test_summarize_missing_run_exits_2(self, capsys):
        from repro.cli import main

        assert main(["trace", "summarize", "no-such-run"]) == 2
        assert "error" in capsys.readouterr().err


class TestProgressLine:
    def _spec(self):
        return SimpleNamespace(tag=("BLK", "alone", 8))

    def test_silent_when_stderr_not_a_tty(self, monkeypatch):
        from repro import cli

        fake = io.StringIO()  # StringIO.isatty() is False
        monkeypatch.setattr(sys, "stderr", fake)
        cli._print_progress(1, 5, self._spec(), 2.0)
        assert fake.getvalue() == ""

    def test_tty_gets_carriage_return_frames(self, monkeypatch):
        from repro import cli

        class FakeTTY(io.StringIO):
            def isatty(self):
                return True

        fake = FakeTTY()
        monkeypatch.setattr(sys, "stderr", fake)
        cli._print_progress(1, 5, self._spec(), 2.0)
        cli._print_progress(5, 5, self._spec(), 0.0)
        out = fake.getvalue()
        assert out.startswith("\r")
        assert "[1/5]" in out and "BLK alone 8" in out
        assert "2.0s" in out  # per-job elapsed rendered
        assert out.endswith("\n")  # final frame closes the line

    def test_rate_and_eta_rendered_mid_sweep(self, monkeypatch):
        from repro import cli

        class FakeTTY(io.StringIO):
            def isatty(self):
                return True

        clock = iter([10.0, 12.0, 14.0]).__next__
        printer = cli._ProgressPrinter(clock=clock)
        fake = FakeTTY()
        monkeypatch.setattr(sys, "stderr", fake)
        printer(1, 5, self._spec(), 2.0)  # anchor backdated to t=8
        printer(2, 5, self._spec(), 2.0)
        out = fake.getvalue()
        assert "0.5/s" in out  # 2 done over the 4s since the anchor
        assert "ETA    6s" in out  # 3 remaining at 0.5/s

    def test_new_batch_reanchors_the_rate_clock(self, monkeypatch):
        from repro import cli

        class FakeTTY(io.StringIO):
            def isatty(self):
                return True

        clock = iter([0.0, 100.0, 102.0]).__next__
        printer = cli._ProgressPrinter(clock=clock)
        fake = FakeTTY()
        monkeypatch.setattr(sys, "stderr", fake)
        printer(2, 2, self._spec(), 1.0)  # first batch finishes
        printer(1, 2, self._spec(), 1.0)  # done fell: new batch, new anchor
        printer(2, 2, self._spec(), 1.0)
        frames = fake.getvalue().split("\r")
        # the second batch's rate reflects its own 3s span, not the gap
        assert "  1.0/s" in frames[2]
        assert "0.7/s" in frames[3]
