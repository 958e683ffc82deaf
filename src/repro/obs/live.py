"""The telemetry stream: one record schema, one writer, ambient publishers.

Every traced run writes exactly one NDJSON file, ``events.ndjson``,
and everything else is a fold of it: the Chrome/Perfetto export
(:mod:`repro.obs.chrome`), ``repro trace summarize``
(:mod:`repro.obs.summarize`), ``repro watch`` (:mod:`repro.obs.dashboard`)
and the manifest's per-phase timings.  The pipeline:

* **Processes publish.**  Library code calls :func:`get_publisher` and
  publishes small JSON records — host spans, job lifecycle, per-window
  EB/BW/CMR/IPC samples, controller decisions with their full detail,
  open-system tenancy changes, profiling frames, metrics snapshots,
  heartbeats.  A :class:`QueuePublisher` installed in each pool worker
  (by :func:`repro.exec.pool`'s initializer) and one in the parent push
  them onto a ``multiprocessing`` queue.  Publishing never blocks
  simulation: a full queue drops the record and counts the drop.
* **The parent writes.**  A :class:`LiveHub` owns the queue, drains it
  on a daemon thread, validates each record against the versioned
  schema, appends it to the stream (single-writer streaming via
  :class:`repro.obs.io.JsonlAppender`), and folds worker ``metrics``
  snapshots into the ambient :class:`~repro.obs.metrics.MetricsRegistry`
  (labelled per worker).
* **Consumers fold.**  The live dashboard consumes records in-process
  through the hub's ``on_record`` callback, or out-of-process by
  tailing the file (``repro watch RUN``); the offline folds read the
  finished file.

Telemetry is ambient and opt-in: the default :class:`NullPublisher`
makes the disabled path one attribute read (``publisher.enabled``).
The stream is observational only: results are never routed through it,
so a published run is byte-identical to a silent one.
"""

from __future__ import annotations

import os
import queue as queue_mod
import threading
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Callable, Iterator

from repro.obs.io import JsonlAppender, read_jsonl
from repro.obs.metrics import get_metrics

__all__ = [
    "HEARTBEAT_S",
    "LIVE_SCHEMA",
    "LIVE_SCHEMA_VERSION",
    "LIVE_RECORD_TYPES",
    "LiveHub",
    "NullPublisher",
    "PROFILE_TOP",
    "QueuePublisher",
    "STREAM_FILENAME",
    "get_publisher",
    "live_header",
    "load_live",
    "parse_live",
    "profile_frames",
    "result_records",
    "set_publisher",
    "validate_live_record",
]

#: Schema identifier written as the first NDJSON line of every stream.
LIVE_SCHEMA = "repro.obs.live"
#: v2: host ``span`` records, decisions with their full detail,
#: uncapped windows — the one stream of a traced run.
LIVE_SCHEMA_VERSION = 2

#: The stream's file name inside a traced run's directory.
STREAM_FILENAME = "events.ndjson"

#: A publisher emits at most one heartbeat per this many wall seconds.
HEARTBEAT_S = 1.0
#: Hot frames kept per cProfile'd job.
PROFILE_TOP = 10

#: Required fields (and their types) per record type.  Records may carry
#: extra fields — the schema pins what consumers can rely on, producers
#: are free to annotate.  ``t`` (unix wall seconds, stamped by the
#: publisher) is optional everywhere: replayed or synthetic streams need
#: not fake clocks.
_RECORD_FIELDS: dict[str, dict[str, type | tuple[type, ...]]] = {
    # one sweep batch was submitted to the executor
    "batch": {"total": int},
    # job lifecycle, stamped by the process that ran the job
    "job_start": {"job": str, "pid": int},
    "job_done": {"job": str, "pid": int, "elapsed_s": (int, float)},
    "job_fail": {"job": str, "pid": int, "error": str},
    # one host phase (wall clock): ``t0`` unix seconds at entry, nesting
    # ``depth`` within its process (pool workers start at 1)
    "span": {
        "name": str, "cat": str, "pid": int, "depth": int,
        "t0": (int, float), "dur_s": (int, float),
    },
    # one per-app controller-window sample (cycle-stamped)
    "window": {
        "workload": str, "scheme": str, "app": int,
        "cycle": (int, float), "eb": (int, float), "bw": (int, float),
        "cmr": (int, float), "ipc": (int, float),
    },
    # one controller decision (cycle-stamped), with the controller's
    # detail (PBS: ``combo``, ``objective``, ``ebs``, ...) alongside
    "decision": {
        "workload": str, "scheme": str, "kind": str, "cycle": (int, float),
    },
    # one roster change of an open-system run (cycle-stamped); carries
    # the post-change roster so consumers need no event replay
    "tenancy": {
        "workload": str, "scheme": str, "event": str, "app": int,
        "cycle": (int, float), "roster": list,
    },
    # liveness signal, throttled to HEARTBEAT_S
    "heartbeat": {"pid": int},
    # top-N hot frames of one cProfile'd job:
    # ``[[label, cum_s, self_s, calls], ...]``
    "profile": {"job": str, "pid": int, "frames": list},
    # a worker registry snapshot (delta since its last publish)
    "metrics": {"label": str, "snapshot": dict},
    # written by the hub as the final record of a closed stream
    "stream_end": {"records": int},
}

LIVE_RECORD_TYPES = frozenset(_RECORD_FIELDS)

#: Internal shutdown sentinel the hub sends itself; never hits disk.
_CLOSE_TYPE = "__close__"


def live_header(run_id: str) -> dict:
    """The schema header record of one stream."""
    return {
        "schema": LIVE_SCHEMA,
        "version": LIVE_SCHEMA_VERSION,
        "run_id": run_id,
    }


def validate_live_record(record: dict) -> list[str]:
    """Problems with one stream record ([] = valid)."""
    rtype = record.get("type")
    if not isinstance(rtype, str) or rtype not in _RECORD_FIELDS:
        return [f"unknown record type {rtype!r}"]
    problems = []
    for name, types in _RECORD_FIELDS[rtype].items():
        if name not in record:
            problems.append(f"{rtype}: missing field {name!r}")
        elif not isinstance(record[name], types) or isinstance(
            record[name], bool
        ):
            problems.append(
                f"{rtype}: field {name!r} has type "
                f"{type(record[name]).__name__}"
            )
    return problems


def parse_live(records: list[dict]) -> tuple[dict, list[dict]]:
    """Split parsed NDJSON into (header, records), validating both."""
    if not records:
        raise ValueError("empty live stream: missing schema header")
    header = records[0]
    if header.get("schema") != LIVE_SCHEMA:
        raise ValueError(
            f"not a repro.obs live stream "
            f"(header schema {header.get('schema')!r})"
        )
    if header.get("version") != LIVE_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported live-stream version {header.get('version')!r} "
            f"(expected {LIVE_SCHEMA_VERSION})"
        )
    for i, record in enumerate(records[1:], start=2):
        problems = validate_live_record(record)
        if problems:
            raise ValueError(f"live stream line {i}: {'; '.join(problems)}")
    return header, records[1:]


def load_live(path: Path) -> tuple[dict, list[dict]]:
    """Read and validate a stream file."""
    return parse_live(read_jsonl(Path(path)))


# --- publishers ---------------------------------------------------------


_NULL_SPAN = nullcontext()


class NullPublisher:
    """The disabled publisher: every operation is a no-op.

    Hot paths guard emission on ``publisher.enabled``, so a silent run
    pays one attribute read and never materializes a record.
    """

    enabled = False
    worker = False
    profile = False

    def publish(self, record: dict) -> None:
        return None

    def heartbeat(self) -> None:
        return None

    def span(self, name: str, cat: str = "host", **args: object) -> nullcontext:
        return _NULL_SPAN


class QueuePublisher:
    """Publishes stream records onto a (multiprocessing) queue.

    One instance lives in each pool worker (``worker=True``, installed
    by the pool initializer) and one in the parent (``worker=False``,
    owned by the :class:`LiveHub`) so the serial executor path streams
    through the same transport.  Throttling is the publisher's job:
    ``publish`` never blocks — a full queue drops the record (counted
    in ``dropped``; telemetry loss must never slow simulation) — and
    ``heartbeat`` emits at most one record per :data:`HEARTBEAT_S`.
    """

    enabled = True

    def __init__(
        self,
        channel: "queue_mod.Queue[dict]",
        *,
        worker: bool = True,
        profile: bool = False,
    ) -> None:
        self.channel = channel
        self.worker = worker
        self.profile = profile
        self.sent = 0
        self.dropped = 0
        self._last_heartbeat: float | None = None
        # A worker's spans run inside a parent-side sweep, so they nest
        # one level below the parent's phases.
        self._depth = 1 if worker else 0

    def worker_config(self) -> dict:
        """The settings to replicate in pool workers."""
        return {"profile": self.profile}

    def publish(self, record: dict) -> None:
        record.setdefault("t", round(time.time(), 6))
        try:
            self.channel.put_nowait(record)
        except queue_mod.Full:
            self.dropped += 1
        else:
            self.sent += 1

    def heartbeat(self) -> None:
        mark = time.monotonic()
        if (
            self._last_heartbeat is not None
            and mark - self._last_heartbeat < HEARTBEAT_S
        ):
            return
        self._last_heartbeat = mark
        self.publish(
            {"type": "heartbeat", "pid": os.getpid(), "sent": self.sent}
        )

    @contextmanager
    def span(self, name: str, cat: str = "host", **args: object) -> Iterator[None]:
        """Publish a ``span`` record timing the ``with`` block.

        Wall time is read *inside this module*, so callers in the
        simulation layers never touch a clock themselves.
        """
        t0 = time.time()
        start = time.perf_counter()
        depth = self._depth
        self._depth += 1
        try:
            yield
        finally:
            self._depth = depth
            self.publish({
                "type": "span",
                "name": name,
                "cat": cat,
                "pid": os.getpid(),
                "depth": depth,
                "t0": round(t0, 6),
                "dur_s": round(time.perf_counter() - start, 6),
                "args": dict(args),
            })


_NULL_PUBLISHER = NullPublisher()
_PUBLISHER: NullPublisher | QueuePublisher = _NULL_PUBLISHER


def get_publisher() -> NullPublisher | QueuePublisher:
    """The ambient publisher (a shared no-op unless one is installed)."""
    return _PUBLISHER


def set_publisher(
    publisher: NullPublisher | QueuePublisher | None,
) -> NullPublisher | QueuePublisher:
    """Install ``publisher`` as the ambient one; return the previous.

    ``None`` disables (installs the shared :class:`NullPublisher`).
    Unlike ``set_metrics``, installing a publisher inside a pool worker
    is the *sanctioned* pattern — the whole point of a
    :class:`QueuePublisher` is that its records cross the process
    boundary back to the parent.
    """
    global _PUBLISHER
    previous = _PUBLISHER
    _PUBLISHER = publisher if publisher is not None else _NULL_PUBLISHER
    return previous


# --- record builders ----------------------------------------------------


def result_records(value: object, tag: tuple | None = None) -> list[dict]:
    """Window/decision/tenancy records from one simulation product.

    Duck-typed so this leaf module never imports the simulator: a
    ``SchemeResult`` (has ``.result`` with ``.windows``, plus
    ``.workload``/``.scheme``/``.decisions``) yields labelled window and
    decision records; a bare ``SimResult`` (has ``.windows``) labels its
    windows from the job ``tag`` (e.g. ``("alone", "BLK", 8)`` or
    ``("surface", "BLK_TRD", combo)``).  Anything else yields nothing.
    Every window is kept, and decisions carry the controller's detail.
    """
    inner = getattr(value, "result", None)
    if inner is not None and hasattr(inner, "windows"):
        result = inner
        workload = str(getattr(value, "workload", "?"))
        scheme = str(getattr(value, "scheme", "?"))
        decisions = list(getattr(value, "decisions", ()) or ())
    elif hasattr(value, "windows"):
        result = value
        parts = tuple(tag) if isinstance(tag, tuple) else ()
        scheme = str(parts[0]) if parts else "run"
        workload = str(parts[1]) if len(parts) > 1 else "?"
        decisions = []
    else:
        return []

    records: list[dict] = []
    for t_cycles, samples in result.windows:
        for app_id in sorted(samples):
            s = samples[app_id]
            records.append({
                "type": "window",
                "workload": workload,
                "scheme": scheme,
                "app": app_id,
                "cycle": t_cycles,
                "eb": s.eb,
                "bw": s.bw,
                "cmr": s.cmr,
                "ipc": s.ipc,
            })
    for d in decisions:
        records.append({
            "type": "decision",
            **d,
            "workload": workload,
            "scheme": scheme,
            "kind": str(d.get("kind", "?")),
            "cycle": float(d.get("cycle", 0.0)),
        })
    for rec in getattr(result, "roster", None) or ():
        records.append({
            "type": "tenancy",
            "workload": workload,
            "scheme": scheme,
            "event": str(rec.get("event", "?")),
            "app": int(rec.get("app", -1)),
            "cycle": float(rec.get("cycle", 0.0)),
            "roster": list(rec.get("roster", [])),
            "abbr": str(rec.get("abbr", "?")),
            "cores": list(rec.get("cores", [])),
        })
    return records


def profile_frames(prof: object, top: int = PROFILE_TOP) -> list[list]:
    """Top-``top`` hot frames of a finished cProfile run.

    Returns ``[[label, cum_s, self_s, calls], ...]`` sorted by
    cumulative time — the payload of a ``profile`` stream record, which
    the Chrome fold renders on its own "profiling" thread.
    """
    import pstats

    stats = pstats.Stats(prof)
    rows: list[tuple[float, float, int, str]] = []
    for (filename, lineno, funcname), entry in stats.stats.items():  # type: ignore[attr-defined]
        _cc, n_calls, self_t, cum_t = entry[:4]
        if filename.startswith("<"):
            label = funcname
        else:
            label = f"{funcname} ({Path(filename).name}:{lineno})"
        rows.append((cum_t, self_t, n_calls, label))
    rows.sort(key=lambda r: (-r[0], r[3]))
    return [
        [label, round(cum_t, 6), round(self_t, 6), int(n_calls)]
        for cum_t, self_t, n_calls, label in rows[:top]
    ]


# --- the parent-side collector ------------------------------------------


class LiveHub:
    """Parent-side owner, and the only writer, of one stream.

    Creates the multiprocessing queue, starts the collector thread,
    writes the schema header, and exposes ``publisher`` — the parent's
    own :class:`QueuePublisher` (``worker=False``) to install as the
    ambient publisher so host spans, the serial executor path and batch
    records flow through the same stream.  ``close()`` stops the
    collector, appends the ``stream_end`` record, and releases the sink;
    it is idempotent.
    """

    def __init__(
        self,
        run_id: str,
        path: Path,
        *,
        profile: bool = False,
        on_record: Callable[[dict], None] | None = None,
    ) -> None:
        import multiprocessing

        self.run_id = run_id
        self.path = Path(path)
        self.queue: "queue_mod.Queue[dict]" = (
            multiprocessing.get_context().Queue()
        )
        self.publisher = QueuePublisher(
            self.queue, worker=False, profile=profile
        )
        self._on_record = on_record
        self._sink = JsonlAppender(self.path)
        self._sink.append(live_header(run_id))
        self.records = 0
        self.invalid = 0
        self.callback_errors = 0
        self._closed = False
        self._thread = threading.Thread(
            target=self._drain, name="live-collector", daemon=True
        )
        self._thread.start()

    # -- collector thread ------------------------------------------------

    def _drain(self) -> None:
        while True:
            try:
                record = self.queue.get(timeout=0.2)
            except queue_mod.Empty:
                continue
            if record.get("type") == _CLOSE_TYPE:
                return
            self._handle(record)

    def _handle(self, record: dict) -> None:
        if validate_live_record(record):
            self.invalid += 1
            return
        self.records += 1
        if record["type"] == "metrics":
            # Worker deltas fold into the parent's ambient registry;
            # gauges are namespaced by the worker label so two workers
            # never clobber each other.
            get_metrics().merge(record["snapshot"], label=record["label"])
        self._sink.append(record)
        if self._on_record is not None:
            try:
                self._on_record(record)
            except Exception:
                # A dashboard bug must never kill telemetry collection.
                self.callback_errors += 1

    # -- lifecycle --------------------------------------------------------

    def close(self) -> Path:
        """Stop collecting, seal the stream, and return its path."""
        if self._closed:
            return self.path
        self._closed = True
        self.queue.put({"type": _CLOSE_TYPE})
        self._thread.join(timeout=10)
        end = {
            "type": "stream_end",
            "records": self.records,
            "invalid": self.invalid,
            "dropped": self.publisher.dropped,
            "t": round(time.time(), 6),
        }
        # The collector thread has exited: the single-writer handoff to
        # this thread is sequential, so the sink stays single-writer.
        self._sink.append(end)
        self._sink.close()
        if self._on_record is not None:
            try:
                self._on_record(end)
            except Exception:
                self.callback_errors += 1
        self.queue.close()
        return self.path
