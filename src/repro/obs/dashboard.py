"""The live TTY dashboard over a :mod:`repro.obs.live` stream.

:class:`LiveState` folds stream records into the current picture of a
sweep — jobs done/failed/active, per-(workload, scheme, app) window
signals, worker liveness, decision counts.  :class:`Dashboard` renders
that state: on a terminal as a multi-line panel redrawn in place (ANSI
cursor-up + erase), elsewhere as plain append-only log lines so piped
output stays readable.  :func:`watch` tails a run's event stream into
a dashboard — the implementation of ``repro watch RUN`` — following the
file until its ``stream_end`` record (the stream is still being written
by a running sweep) or just replaying it when ``follow=False``.

Everything takes injectable clocks/streams so tests can drive a fake
TTY deterministically.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Callable, TextIO

from repro.obs.live import parse_live

__all__ = ["Dashboard", "LiveState", "render_lines", "watch"]

#: How many per-app window series the panel shows before eliding.
_MAX_SERIES_ROWS = 8
#: How many in-flight jobs the panel lists.
_MAX_ACTIVE_ROWS = 4


class LiveState:
    """The current picture of a sweep, folded from stream records."""

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        self.run_id = ""
        self.total = 0
        self.done = 0
        self.failed = 0
        self.batches = 0
        self.window_count = 0
        self.decision_count = 0
        self.tenancy_count = 0
        self.profile_count = 0
        self.ended = False
        #: pid -> job name currently executing there
        self.active: dict[int, str] = {}
        #: every pid that ever ran a job (worker utilization denominator)
        self.workers: set[int] = set()
        #: (workload, scheme, app) -> latest window record
        self.latest_window: dict[tuple[str, str, int], dict] = {}
        #: (workload, scheme, app) -> windows seen so far
        self.series_windows: dict[tuple[str, str, int], int] = {}
        #: most recent decision record, if any
        self.last_decision: dict | None = None
        #: most recent tenancy (roster-change) record, if any
        self.last_tenancy: dict | None = None
        self.last_error = ""
        self._t_first_done: float | None = None
        self._t_last_done: float | None = None

    def apply(self, record: dict) -> None:
        rtype = record.get("type")
        if rtype == "batch":
            # Batches accumulate: one CLI run sweeps alone profiles,
            # then a surface, then schemes — ETA covers all of them.
            self.total += int(record["total"])
            self.batches += 1
        elif rtype == "job_start":
            pid = int(record["pid"])
            self.active[pid] = str(record["job"])
            self.workers.add(pid)
        elif rtype in ("job_done", "job_fail"):
            pid = int(record["pid"])
            self.active.pop(pid, None)
            self.workers.add(pid)
            if rtype == "job_fail":
                self.failed += 1
                self.last_error = f"{record['job']}: {record['error']}"
            else:
                self.done += 1
            mark = self._clock()
            if self._t_first_done is None:
                self._t_first_done = mark - float(
                    record.get("elapsed_s", 0.0) or 0.0
                )
            self._t_last_done = mark
        elif rtype == "window":
            key = (
                str(record["workload"]),
                str(record["scheme"]),
                int(record["app"]),
            )
            self.latest_window[key] = record
            self.series_windows[key] = self.series_windows.get(key, 0) + 1
            self.window_count += 1
        elif rtype == "decision":
            self.decision_count += 1
            self.last_decision = record
        elif rtype == "tenancy":
            self.tenancy_count += 1
            self.last_tenancy = record
        elif rtype == "profile":
            self.profile_count += 1
        elif rtype == "stream_end":
            self.ended = True
            self.active.clear()

    # -- derived signals --------------------------------------------------

    def jobs_per_sec(self) -> float:
        """Completion rate over the span between first and last job."""
        if self._t_first_done is None or self._t_last_done is None:
            return 0.0
        span = self._t_last_done - self._t_first_done
        if span <= 0:
            return 0.0
        return self.done / span

    def eta_s(self) -> float | None:
        """Seconds until the sweep finishes, at the current rate."""
        rate = self.jobs_per_sec()
        remaining = max(0, self.total - self.done - self.failed)
        if rate <= 0 or not remaining:
            return None
        return remaining / rate

    def queue_depth(self) -> int:
        """Jobs submitted but not yet started anywhere."""
        return max(0, self.total - self.done - self.failed - len(self.active))


def render_lines(state: LiveState) -> list[str]:
    """Render one dashboard frame as a list of lines."""
    rate = state.jobs_per_sec()
    eta = state.eta_s()
    head = (
        f"live {state.run_id or 'run'} — jobs {state.done}/{state.total}"
        + (f" ({state.failed} failed)" if state.failed else "")
        + f"  workers {len(state.active)}/{max(len(state.workers), 1)}"
        + f"  queue {state.queue_depth()}"
        + (f"  {rate:.2f} jobs/s" if rate else "")
        + (f"  ETA {eta:.0f}s" if eta is not None else "")
        + ("  [done]" if state.ended else "")
    )
    lines = [head]
    for pid, job in sorted(state.active.items())[:_MAX_ACTIVE_ROWS]:
        lines.append(f"  run  pid {pid}: {job}")
    series = sorted(state.latest_window.items())
    for key, w in series[:_MAX_SERIES_ROWS]:
        workload, scheme, app_id = key
        lines.append(
            f"  {workload} {scheme} app{app_id} x{state.series_windows[key]}"
            f" @{w['cycle']:>9.0f}  "
            f"IPC {w['ipc']:.3f}  EB {w['eb']:.3f}  BW {w['bw']:.3f}  "
            f"CMR {w['cmr']:.3f}"
        )
    if len(series) > _MAX_SERIES_ROWS:
        lines.append(f"  ... {len(series) - _MAX_SERIES_ROWS} more series")
    tail = (
        f"  windows {state.window_count}  decisions {state.decision_count}"
        f"  profiles {state.profile_count}"
    )
    if state.last_decision is not None:
        d = state.last_decision
        tail += f"  last {d['scheme']}.{d['kind']} @{d['cycle']:.0f}"
    lines.append(tail)
    if state.last_tenancy is not None:
        t = state.last_tenancy
        roster = ",".join(str(a) for a in t.get("roster", []))
        lines.append(
            f"  tenancy x{state.tenancy_count}: {t['event']} app{t['app']}"
            f" @{t['cycle']:.0f}  roster [{roster}]"
        )
    if state.last_error:
        lines.append(f"  FAIL {state.last_error:.100s}")
    return lines


class Dashboard:
    """Renders a :class:`LiveState` as records arrive.

    On a TTY the panel is redrawn in place at most once per
    ``min_interval_s`` (plus always on ``stream_end``); on anything else
    it degrades to plain log lines for job completions and failures, so
    redirected output records progress without control characters.
    """

    def __init__(
        self,
        stream: TextIO | None = None,
        *,
        run_id: str = "",
        min_interval_s: float = 0.25,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.state = LiveState(clock=clock)
        self.state.run_id = run_id
        self.stream: TextIO = sys.stderr if stream is None else stream
        isatty = getattr(self.stream, "isatty", None)
        self._tty = bool(isatty()) if callable(isatty) else False
        self.min_interval_s = min_interval_s
        self._clock = clock
        self._last_render: float | None = None
        self._height = 0
        self.renders = 0

    def on_record(self, record: dict) -> None:
        """Fold one stream record and redraw if due (the hub callback)."""
        self.state.apply(record)
        if self._tty:
            mark = self._clock()
            due = (
                self._last_render is None
                or mark - self._last_render >= self.min_interval_s
            )
            if due or record.get("type") == "stream_end":
                self._render()
                self._last_render = mark
        else:
            line = self._plain_line(record)
            if line:
                print(line, file=self.stream, flush=True)

    def _render(self) -> None:
        lines = render_lines(self.state)
        frame = ""
        if self._height:
            # Cursor up over the previous frame, erase to end of screen,
            # repaint: the panel updates in place.
            frame += f"\x1b[{self._height}F\x1b[0J"
        frame += "\n".join(lines) + "\n"
        self.stream.write(frame)
        self.stream.flush()
        self._height = len(lines)
        self.renders += 1

    def _plain_line(self, record: dict) -> str:
        rtype = record.get("type")
        state = self.state
        if rtype == "job_done":
            return (
                f"[{state.done}/{state.total}] {record['job']} "
                f"({record['elapsed_s']:.1f}s, pid {record['pid']})"
            )
        if rtype == "job_fail":
            return f"FAIL {record['job']}: {record['error']}"
        if rtype == "stream_end":
            return (
                f"stream end: {state.done} done, {state.failed} failed, "
                f"{state.window_count} windows, "
                f"{state.decision_count} decisions"
            )
        return ""


def watch(
    path: Path,
    *,
    follow: bool = True,
    stream: TextIO | None = None,
    run_id: str = "",
    poll_s: float = 0.2,
    timeout_s: float | None = None,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
) -> LiveState:
    """Tail a stream file into a dashboard; return final state.

    With ``follow=True`` the file is polled until its ``stream_end``
    record arrives (or ``timeout_s`` elapses — ``None`` waits forever);
    with ``follow=False`` whatever is on disk is replayed once.  Partial
    trailing lines (the writer mid-append) are retried on the next poll.
    """
    path = Path(path)
    dash = Dashboard(stream=stream, run_id=run_id, clock=clock)
    pending = ""
    header_seen = False
    deadline = None if timeout_s is None else clock() + timeout_s
    with path.open("r", encoding="utf-8") as fh:
        while True:
            chunk = fh.read()
            if chunk:
                pending += chunk
                while "\n" in pending:
                    line, pending = pending.split("\n", 1)
                    if not line.strip():
                        continue
                    record = json.loads(line)
                    if not header_seen:
                        try:
                            parse_live([record])  # the schema header
                        except ValueError as exc:
                            raise ValueError(f"{path}: {exc}") from None
                        if not dash.state.run_id:
                            dash.state.run_id = str(record.get("run_id", ""))
                        header_seen = True
                        continue
                    dash.on_record(record)
                    if record.get("type") == "stream_end":
                        return dash.state
                continue
            if not follow:
                break
            if deadline is not None and clock() >= deadline:
                break
            sleep(poll_s)
    return dash.state
