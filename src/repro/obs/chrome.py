"""Chrome trace-event export: open a traced run in Perfetto.

The Chrome trace-event format (and Perfetto's ``ui.perfetto.dev``,
which loads it directly) wants a single JSON object with a
``traceEvents`` array of ``{name, cat, ph, ts, dur, pid, tid, args}``
records, timestamps in microseconds.  :func:`chrome_trace` is a fold of
the run's stream records (:mod:`repro.obs.live`).

The stream's two clock domains map to two Perfetto "processes":

* pid 1 — the host layer: spans, pool jobs and profiling frames, in
  wall-clock microseconds since the run's first record;
* pid 2 — the sim layer: window counters, controller decisions and
  probe samples, rendered at 1 cycle = 1 µs (timestamps are *cycles*;
  the scale is stated in the process name so nobody reads them as real
  time).

Every host process (the parent, each pool worker) gets its own Perfetto
thread, so concurrent jobs do not render as bogus nesting; ``--profile``
hot frames sit on a dedicated "profiling" thread.
"""

from __future__ import annotations

import json
from numbers import Number
from pathlib import Path

from repro.obs.io import atomic_write_text

__all__ = ["chrome_trace", "write_chrome_trace"]

_HOST_PID = 1
_SIM_PID = 2
#: dedicated track for ``--profile`` hot-frame instants, below the
#: dynamically assigned process range so the two never collide
_PROFILE_TID = 90
#: thread ids >= this are dynamically assigned per-process tracks
_WORKER_TID_BASE = 100


def chrome_trace(records: list[dict], run_id: str = "run") -> dict:
    """Render stream records as a Chrome trace-event JSON object."""
    out: list[dict] = [
        _process_name(_HOST_PID, f"{run_id}: host (wall clock)"),
        _process_name(_SIM_PID, f"{run_id}: sim (1 cycle = 1 us)"),
    ]
    starts = (r.get("t0", r.get("t")) for r in records)
    origin = min((s for s in starts if s is not None), default=0.0)
    tracks: dict[int, int] = {}
    any_profile = False

    def host_us(wall_s: float) -> float:
        return round((wall_s - origin) * 1e6, 3)

    def track(pid: int) -> int:
        return tracks.setdefault(pid, _WORKER_TID_BASE + len(tracks))

    for r in records:
        rtype = r["type"]
        if rtype == "span":
            out.append({
                "name": r["name"], "cat": r["cat"], "ph": "X",
                "ts": host_us(r["t0"]), "dur": round(r["dur_s"] * 1e6, 3),
                "pid": _HOST_PID, "tid": track(r["pid"]),
                "args": r.get("args", {}),
            })
        elif rtype == "job_done" and "t" in r:
            out.append({
                "name": r["job"], "cat": "job", "ph": "X",
                "ts": host_us(r["t"] - r["elapsed_s"]),
                "dur": round(r["elapsed_s"] * 1e6, 3),
                "pid": _HOST_PID, "tid": track(r["pid"]),
                "args": {"pid": r["pid"]},
            })
        elif rtype == "profile":
            any_profile = True
            for frame in r["frames"]:
                label, cum_s, self_s, n_calls = (list(frame) + [0] * 4)[:4]
                out.append({
                    "name": f"hot:{label}", "cat": "profile", "ph": "i",
                    "s": "t", "ts": host_us(r.get("t", origin)),
                    "pid": _HOST_PID, "tid": _PROFILE_TID,
                    "args": {"job": r["job"], "pid": r["pid"], "cum_s": cum_s,
                             "self_s": self_s, "calls": n_calls},
                })
        elif rtype == "window":
            out.append(_counter(
                f"{r['workload']}|{r['scheme']}|app{r['app']}", "window",
                r["cycle"], {k: r[k] for k in ("eb", "bw", "cmr", "ipc")},
            ))
        elif rtype == "probe":
            out.append(_counter(r["name"], "probe", r["cycle"], r["values"]))
        elif rtype == "decision":
            cat = "pbs" if r["scheme"].startswith("pbs") else "ctrl"
            out.append({
                "name": f"{cat}.{r['kind']}", "cat": cat, "ph": "i", "s": "t",
                "ts": r["cycle"], "pid": _SIM_PID, "tid": 0,
                "args": {
                    k: v for k, v in r.items()
                    if k not in ("type", "kind", "cycle", "t")
                },
            })
    for pid, tid in sorted(tracks.items(), key=lambda kv: kv[1]):
        out.append(_thread_name(_HOST_PID, tid, f"pid {pid}"))
    if any_profile:
        out.append(_thread_name(_HOST_PID, _PROFILE_TID, "profiling"))
    return {"traceEvents": out, "displayTimeUnit": "ms"}


def write_chrome_trace(path: Path, records: list[dict], run_id: str = "run") -> None:
    """Atomically publish the Chrome export at ``path``."""
    atomic_write_text(Path(path), json.dumps(chrome_trace(records, run_id)))


def _counter(name: str, cat: str, cycle: float, values: dict) -> dict:
    # counter args must be numeric series; drop anything else
    return {
        "name": name, "cat": cat, "ph": "C", "ts": cycle,
        "pid": _SIM_PID, "tid": 0,
        "args": {k: v for k, v in values.items() if isinstance(v, Number)},
    }


def _process_name(pid: int, name: str) -> dict:
    return {
        "name": "process_name",
        "ph": "M",
        "pid": pid,
        "tid": 0,
        "args": {"name": name},
    }


def _thread_name(pid: int, tid: int, name: str) -> dict:
    return {
        "name": "thread_name",
        "ph": "M",
        "pid": pid,
        "tid": tid,
        "args": {"name": name},
    }
