"""Offline trace analysis: ``repro trace summarize <run>``.

Reads a run directory (manifest + event stream) and reconstructs the
run's story as folds of the stream's records: per-phase wall timings,
sweep-job cost distribution, per-application EB/BW/CMR window
timelines, and the PBS decision log (every sampled TLP pair with its
objective, and the steps it took to converge).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.live import STREAM_FILENAME, load_live
from repro.obs.manifest import MANIFEST_FILENAME, validate_manifest

__all__ = [
    "decision_log",
    "engine_counters",
    "job_stats",
    "resolve_trace_path",
    "span_totals",
    "stream_stats",
    "summarize",
    "summary_data",
    "window_timelines",
]

#: Default home of traced runs (the CLI's ``--trace-dir`` default).
TRACES_SUBDIR = Path("results") / "traces"


def resolve_trace_path(
    target: str | Path, trace_dir: Path | None = None
) -> Path:
    """Resolve ``target`` to a run's event stream file.

    Accepts the stream file itself, a run directory containing
    ``events.ndjson``, or a bare run id looked up under ``trace_dir``
    (default ``results/traces``).
    """
    path = Path(target)
    if path.is_file():
        return path
    if not path.is_dir():
        path = Path(trace_dir or TRACES_SUBDIR) / str(target)
    candidate = path / STREAM_FILENAME
    if candidate.is_file():
        return candidate
    raise FileNotFoundError(
        f"no {STREAM_FILENAME} for {str(target)!r} (tried {candidate})"
    )


# --- folds --------------------------------------------------------------


def span_totals(records: list[dict], depth: int | None = 0) -> dict[str, dict]:
    """Span totals by name: ``{name: {count, total_s, max_s}}``.

    ``depth=0`` restricts to top-level phases; ``depth=None`` takes all
    nesting depths.
    """
    totals: dict[str, dict] = {}
    for r in records:
        if r["type"] != "span" or (depth is not None and r["depth"] != depth):
            continue
        slot = totals.setdefault(r["name"], {"count": 0, "total_s": 0.0, "max_s": 0.0})
        slot["count"] += 1
        slot["total_s"] += r["dur_s"]
        slot["max_s"] = max(slot["max_s"], r["dur_s"])
    return totals


def job_stats(records: list[dict]) -> dict:
    """Aggregate the sweep executor's ``job_done`` records.

    A job's queue wait is the wall time from its batch's submission to
    the job's start (both publisher-stamped).
    """
    durs: list[float] = []
    queue_wait = 0.0
    batch_t: float | None = None
    workers: set[int] = set()
    for r in records:
        if r["type"] == "batch":
            batch_t = r.get("t")
        elif r["type"] == "job_start" and batch_t is not None and "t" in r:
            queue_wait += max(0.0, r["t"] - batch_t)
        elif r["type"] == "job_done":
            durs.append(r["elapsed_s"])
            workers.add(r["pid"])
    return {
        "count": len(durs),
        "total_s": sum(durs),
        "mean_s": sum(durs) / len(durs) if durs else 0.0,
        "max_s": max(durs, default=0.0),
        "queue_wait_s": queue_wait,
        "workers": len(workers),
    }


def window_timelines(records: list[dict]) -> dict[tuple[str, str, int], list]:
    """Per-(workload, scheme, app) window series, sorted by cycle.

    Each sample is ``(cycle, {"eb": ..., "bw": ..., "cmr": ..., "ipc": ...})``.
    """
    series: dict[tuple[str, str, int], list] = {}
    for r in records:
        if r["type"] == "window":
            values = {k: r[k] for k in ("eb", "bw", "cmr", "ipc")}
            key = (r["workload"], r["scheme"], r["app"])
            series.setdefault(key, []).append((r["cycle"], values))
    for samples in series.values():
        samples.sort(key=lambda s: s[0])
    return series


def decision_log(records: list[dict]) -> dict[tuple[str, str], list]:
    """Controller decisions grouped by (workload, scheme), by cycle.

    Each entry is the decision's ``kind``, ``cycle`` and detail (the
    record without its type, labels and publish time).
    """
    log: dict[tuple[str, str], list] = {}
    for r in records:
        if r["type"] != "decision":
            continue
        entry = {
            k: v for k, v in r.items()
            if k not in ("type", "workload", "scheme", "t")
        }
        log.setdefault((r["workload"], r["scheme"]), []).append(entry)
    for entries in log.values():
        entries.sort(key=lambda d: d["cycle"])
    return log


def stream_stats(records: list[dict]) -> dict:
    """Record-type counts, plus the ``stream_end`` trailer's counts.

    ``{"records", "types": {type: count}, "dropped", "invalid"}``.
    """
    types: dict[str, int] = {}
    end: dict = {}
    for r in records:
        types[r["type"]] = types.get(r["type"], 0) + 1
        if r["type"] == "stream_end":
            end = r
    return {
        "records": len(records),
        "types": dict(sorted(types.items())),
        "dropped": int(end.get("dropped", 0)),
        "invalid": int(end.get("invalid", 0)),
    }


def engine_counters(metrics: dict | None) -> dict:
    """Pull the engine self-profiling aggregates out of a metrics snapshot.

    Returns ``{"counters": {...}, "gauges": {...}}`` restricted to the
    ``engine.`` namespace the simulator publishes under ``--profile``
    (dispatches per stage, wheel/pool high-water marks); both empty when
    the run was not profiled.
    """
    out: dict = {"counters": {}, "gauges": {}}
    if not isinstance(metrics, dict):
        return out
    for kind in ("counters", "gauges"):
        values = metrics.get(kind)
        if isinstance(values, dict):
            out[kind] = {
                name: value
                for name, value in sorted(values.items())
                if str(name).startswith("engine.")
            }
    return out


def _load_manifest(run_dir: Path) -> tuple[dict | None, list[str]]:
    """The run's manifest and its problems; ``(None, [])`` when absent."""
    manifest_path = run_dir / MANIFEST_FILENAME
    if not manifest_path.is_file():
        return None, []
    try:
        loaded = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return None, [f"unreadable manifest ({exc})"]
    if not isinstance(loaded, dict):
        return None, ["malformed manifest (not a JSON object)"]
    return loaded, validate_manifest(loaded)


def summary_data(target: str | Path, trace_dir: Path | None = None) -> dict:
    """The full summary as one JSON-serializable dict (``--json``).

    Every section of the text renderer — manifest (plus its validation
    problems), phase totals, sweep-job stats, window-timeline
    aggregates, the decision log, engine self-profiling counters, and
    stream record counts — keyed stably so CI can assert on it instead
    of scraping the human output.
    """
    stream_path = resolve_trace_path(target, trace_dir)
    header, records = load_live(stream_path)
    manifest, manifest_problems = _load_manifest(stream_path.parent)
    timelines = {}
    for (workload, scheme, app), samples in sorted(window_timelines(records).items()):
        n = len(samples)
        timelines[f"{workload}|{scheme}|app{app}"] = {
            "windows": n,
            "first_cycle": samples[0][0],
            "last_cycle": samples[-1][0],
            "first_eb": samples[0][1]["eb"],
            "last_eb": samples[-1][1]["eb"],
            "mean": {
                key: sum(s[1][key] for s in samples) / n
                for key in ("eb", "bw", "cmr")
            },
        }
    decisions = {}
    for (workload, scheme), entries in sorted(decision_log(records).items()):
        kinds: dict[str, int] = {}
        for d in entries:
            kinds[d["kind"]] = kinds.get(d["kind"], 0) + 1
        decisions[f"{workload}|{scheme}"] = {
            "count": len(entries),
            "kinds": dict(sorted(kinds.items())),
            "log": entries,
        }
    return {
        "trace": str(stream_path),
        "run_id": header.get("run_id"),
        "n_records": len(records),
        "manifest": manifest,
        "manifest_problems": manifest_problems,
        "phases": span_totals(records),
        "jobs": job_stats(records),
        "window_timelines": timelines,
        "decisions": decisions,
        "engine": engine_counters((manifest or {}).get("metrics")),
        "stream": stream_stats(records),
    }


# --- rendering ----------------------------------------------------------


def _fmt_s(seconds: float) -> str:
    return f"{seconds:8.3f}s"


def _manifest_section(
    manifest: dict | None, problems: list[str], run_dir: Path
) -> list[str]:
    """Render the manifest block, degrading gracefully on failure-path
    manifests (null fields, missing per-phase timings, absent exports)
    instead of raising out of the whole summary."""
    if manifest is None:
        if not problems:
            return [f"  (no {MANIFEST_FILENAME} next to the stream)"]
        return ["", "== manifest ==", f"  WARNING: {problems[0]} — partial summary"]
    lines = ["", "== manifest =="]
    argv = manifest.get("argv") or []
    if not isinstance(argv, list):
        argv = [argv]
    lines.append(
        f"  command: {manifest.get('command')}  "
        f"argv: {' '.join(str(a) for a in argv)}"
    )
    lines.append(
        f"  config: {manifest.get('config')} "
        f"[{manifest.get('config_fingerprint')}]  "
        f"seed: {manifest.get('seed')}  quick: {manifest.get('quick')}  "
        f"jobs: {manifest.get('n_jobs')}"
    )
    lines.append(
        f"  model_digest: {manifest.get('model_digest')}  "
        f"git: {manifest.get('git_rev') or 'n/a'}  "
        f"python: {manifest.get('python')}"
    )
    try:
        duration = float(manifest.get("duration_s") or 0.0)
    except (TypeError, ValueError):
        duration = 0.0
    lines.append(
        f"  started: {manifest.get('started_at')}  "
        f"duration: {duration:.3f}s"
    )
    if not manifest.get("finished_at"):
        lines.append(
            "  WARNING: run did not finish cleanly (no finished_at); "
            "per-phase timings may be missing — partial summary"
        )
    listed = manifest.get("files") or []
    if isinstance(listed, list):
        absent = [
            str(name) for name in listed if not (run_dir / str(name)).is_file()
        ]
        if absent:
            lines.append(
                f"  WARNING: listed file(s) absent: {', '.join(absent)} "
                "— partial summary"
            )
        if "trace.chrome.json" not in listed:
            lines.append(
                "  WARNING: no Chrome/Perfetto export recorded "
                "(failure-path run?)"
            )
    if problems:
        lines.append(f"  INCOMPLETE: missing/invalid fields {problems}")
    return lines


def summarize(target: str | Path, trace_dir: Path | None = None) -> str:
    """Render the human summary of one traced run."""
    data = summary_data(target, trace_dir)
    stream_path = Path(data["trace"])
    lines = [f"trace: {stream_path}  (run {data['run_id'] or '?'}, "
             f"{data['n_records']} records)"]
    lines.extend(_manifest_section(
        data["manifest"], data["manifest_problems"], stream_path.parent
    ))

    lines.append("")
    lines.append("== phases (wall) ==")
    if data["phases"]:
        for name, slot in sorted(
            data["phases"].items(), key=lambda kv: -kv[1]["total_s"]
        ):
            lines.append(
                f"  {_fmt_s(slot['total_s'])}  x{slot['count']:<4d} {name}"
            )
    else:
        lines.append("  (no host spans recorded)")

    jobs = data["jobs"]
    if jobs["count"]:
        lines.append("")
        lines.append("== sweep jobs ==")
        lines.append(
            f"  {jobs['count']} jobs on {jobs['workers']} worker(s): "
            f"total {jobs['total_s']:.3f}s, mean {jobs['mean_s']:.3f}s, "
            f"max {jobs['max_s']:.3f}s, queue wait {jobs['queue_wait_s']:.3f}s"
        )

    if data["window_timelines"]:
        lines.append("")
        lines.append("== per-app window timelines (cycles) ==")
        for name, tl in data["window_timelines"].items():
            mean = tl["mean"]
            lines.append(
                f"  {name.replace('|', ' ')}: {tl['windows']} windows "
                f"[{tl['first_cycle']:.0f}..{tl['last_cycle']:.0f}]  "
                f"EB {tl['first_eb']:.3f}->{tl['last_eb']:.3f} "
                f"(mean {mean['eb']:.3f})  "
                f"BW mean {mean['bw']:.3f}  CMR mean {mean['cmr']:.3f}"
            )

    if data["decisions"]:
        lines.append("")
        lines.append("== controller decision log ==")
    for name, block in data["decisions"].items():
        kind_s = ", ".join(f"{k}={n}" for k, n in block["kinds"].items())
        lines.append(
            f"  {name.replace('|', ' ')}: {block['count']} decisions ({kind_s})"
        )
        for d in block["log"]:  # the search's story, in cycle order
            at = f"    @{d['cycle']:>10.0f}  "
            if d["kind"] == "sample":
                obj = d.get("objective")
                obj_s = f"{obj:.4f}" if isinstance(obj, (int, float)) else "?"
                lines.append(f"{at}sample {tuple(d.get('combo', ()))}  obj={obj_s}")
            elif d["kind"] in ("criticality", "final"):
                detail = {
                    k: v for k, v in d.items() if k not in ("kind", "cycle")
                }
                lines.append(f"{at}{d['kind']}: {detail}")
            elif d["kind"] == "settled":
                lines.append(
                    f"{at}settled on {tuple(d.get('combo', ()))} after "
                    f"{d.get('n_samples', '?')} samples"
                )

    engine = data["engine"]
    if engine["counters"] or engine["gauges"]:
        lines.append("")
        lines.append("== engine counters ==")
        for name, value in engine["counters"].items():
            lines.append(f"  {name:<36} {value:>14,.0f}")
        for name, value in engine["gauges"].items():
            lines.append(f"  {name:<36} {value:>14,.0f}  (high water)")

    stream = data["stream"]
    type_s = ", ".join(f"{k}={n}" for k, n in stream["types"].items())
    lines.append("")
    lines.append("== stream ==")
    lines.append(
        f"  {stream['records']} records ({type_s or 'none'})  "
        f"dropped={stream['dropped']}  invalid={stream['invalid']}"
    )
    return "\n".join(lines)
