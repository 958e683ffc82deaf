"""The process-pool job runner.

Every experiment in this reproduction is dominated by embarrassingly
parallel simulation sweeps: a two-application surface is 64 independent
runs, an alone profile is 8, and a scheme comparison is one run per
(workload, scheme).  :func:`run_jobs` maps a picklable worker function
over a list of picklable job specs with a ``ProcessPoolExecutor``,
preserving the order of the input list in the returned results so
parallel sweeps are bit-identical to serial ones.

Worker-count resolution (:func:`resolve_jobs`):

1. an explicit ``n_jobs`` argument (CLI ``--jobs``);
2. the ``REPRO_JOBS`` environment variable;
3. ``os.cpu_count()``.

``n_jobs=1`` (or a single job) falls back to a plain in-process loop —
no pool, no pickling — so unit tests and cache hits pay no overhead.
A failing job aborts the batch and is re-raised as :class:`JobError`
carrying the failing spec, the original exception as its cause, the
job's duration up to the failure, and the worker-side traceback text
(which cannot cross the process boundary as an object) in ``args``.
``KeyboardInterrupt`` is never wrapped: it cancels the outstanding
futures and propagates as itself.

Telemetry: when the ambient publisher (:func:`repro.obs.live.
get_publisher`) is enabled, each pool worker is initialized with its
own :class:`~repro.obs.live.QueuePublisher` onto the parent's queue and
every job — pooled or serial — streams its lifecycle (``job_start``,
then ``job_done`` with the job's own wall time and the pid that ran it,
or ``job_fail``), per-window counters, optional cProfile hot frames,
and a metrics-registry snapshot back to the collector as it completes —
see :mod:`repro.obs.live`.  With the default
:class:`~repro.obs.live.NullPublisher` the entire machinery is one
attribute read.  Progress callbacks may opt into per-job timing by
accepting a fourth argument: ``progress(done, total, spec,
elapsed_s)``; three-argument callbacks keep working unchanged, and
:class:`ProgressThrottle` wraps either kind to cap the redraw rate.
"""

from __future__ import annotations

import cProfile
import inspect
import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from functools import partial
from typing import Callable, Iterable, TypeVar

from repro.obs.live import (
    QueuePublisher,
    get_publisher,
    profile_frames,
    result_records,
    set_publisher,
)
from repro.obs.metrics import get_metrics

__all__ = [
    "JOBS_ENV_VAR",
    "JobError",
    "ProgressFn",
    "ProgressThrottle",
    "resolve_jobs",
    "run_jobs",
]

#: Environment variable consulted when no explicit ``n_jobs`` is given.
JOBS_ENV_VAR = "REPRO_JOBS"

S = TypeVar("S")
R = TypeVar("R")

#: ``progress(done, total, spec)`` is invoked after each job completes,
#: in completion order; ``done`` counts completed jobs so a CLI can
#: render "12/64".  A callback that accepts a fourth positional
#: argument additionally receives the job's elapsed seconds.
ProgressFn = Callable[..., None]


class JobError(RuntimeError):
    """A job of a parallel batch failed.

    The failing spec is embedded in the message (and kept on ``.spec``)
    so a 64-combination sweep failure names the combination that died;
    the worker's original exception is chained as ``__cause__`` and the
    job's duration up to the failure is kept on ``.duration`` (seconds;
    ``None`` when unknown).  The worker-side traceback text is preserved
    as ``args[1]`` (and ``.remote_traceback``): for pool jobs the
    original's traceback objects do not cross the process boundary, so
    without this the failing *worker* frame would be unrecoverable from
    the parent.
    """

    def __init__(
        self,
        spec: object,
        cause: BaseException,
        duration: float | None = None,
    ) -> None:
        remote = _traceback_text(cause)
        after = f" after {duration:.3f}s" if duration is not None else ""
        super().__init__(
            f"simulation job failed{after}: {spec!r} "
            f"({type(cause).__name__}: {cause})",
            remote,
        )
        self.spec = spec
        self.duration = duration
        self.remote_traceback = remote


def _traceback_text(cause: BaseException) -> str:
    """The worker-side traceback of ``cause``, as text.

    ``concurrent.futures`` re-raises remote failures with the original
    traceback rendered into a ``_RemoteTraceback`` chained as the
    cause's ``__cause__``; ``format_exception`` follows that chain, so
    one call covers both in-process and cross-process failures.
    """
    return "".join(
        traceback.format_exception(type(cause), cause, cause.__traceback__)
    ).rstrip()


def resolve_jobs(n_jobs: int | None = None) -> int:
    """Resolve the worker count: explicit > ``$REPRO_JOBS`` > cpu count."""
    if n_jobs is None:
        env = os.environ.get(JOBS_ENV_VAR, "").strip()
        if env:
            try:
                n_jobs = int(env)
            except ValueError:
                raise ValueError(
                    f"{JOBS_ENV_VAR}={env!r} is not an integer"
                ) from None
        else:
            n_jobs = os.cpu_count() or 1
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    return n_jobs


def _accepts_elapsed(progress: ProgressFn) -> bool:
    """Does the callback take a fourth (elapsed-seconds) argument?

    Extending the hook is opt-in by arity so every existing
    three-argument callback keeps working; inspection failures (builtins,
    exotic callables) conservatively fall back to the legacy signature.
    """
    try:
        sig = inspect.signature(progress)
    except (TypeError, ValueError):
        return False
    positional = 0
    for param in sig.parameters.values():
        if param.kind == inspect.Parameter.VAR_POSITIONAL:
            return True
        if param.kind in (
            inspect.Parameter.POSITIONAL_ONLY,
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
        ):
            positional += 1
    return positional >= 4


def _job_name(spec: object) -> str:
    """A short display name for a job's trace span."""
    tag = getattr(spec, "tag", None)
    if isinstance(tag, tuple) and tag:
        return "job:" + "/".join(str(part) for part in tag)
    return f"job:{type(spec).__name__}"


class ProgressThrottle:
    """Rate-limits a progress callback to one delivery per interval.

    A 64-job sweep on a fast cache emits hundreds of completions per
    second; redrawing a TTY line for each is wasted stderr traffic.
    The throttle forwards at most one call per ``min_interval_s`` —
    plus, always, the final ``done == total`` call so the finished line
    lands — and keeps the 3-arg/4-arg hook contract: it accepts the
    elapsed argument itself and forwards it only when the wrapped
    callback does.
    """

    def __init__(
        self,
        progress: ProgressFn,
        min_interval_s: float = 0.1,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.progress = progress
        self.min_interval_s = min_interval_s
        self._clock = clock
        self._last: float | None = None
        self._with_elapsed = _accepts_elapsed(progress)
        self.delivered = 0
        self.dropped = 0

    def __call__(
        self, done: int, total: int, spec: object, elapsed: float = 0.0
    ) -> None:
        mark = self._clock()
        if done < total and (
            self._last is not None
            and mark - self._last < self.min_interval_s
        ):
            self.dropped += 1
            return
        self._last = mark
        self.delivered += 1
        if self._with_elapsed:
            self.progress(done, total, spec, elapsed)
        else:
            self.progress(done, total, spec)


def _init_live_worker(channel: object, config: dict) -> None:
    """Pool-worker initializer for live-telemetry runs.

    Installs a worker-side :class:`~repro.obs.live.QueuePublisher` onto
    the parent's queue (the one sanctioned worker-side ambient install —
    each child owns its process-local slot) and resets the worker's
    metrics registry: a forked child inherits the parent's counters, and
    since workers publish snapshot-then-reset *deltas*, starting from
    the parent's totals would double-count them on merge.
    """
    set_publisher(QueuePublisher(channel, worker=True, **config))
    get_metrics().reset()
    if config.get("profile"):
        from repro.sim.engine import set_engine_profiling

        set_engine_profiling(True)


def _timed_call(worker: Callable[[S], R], spec: S) -> tuple[R, float]:
    """Run one job and report ``(result, elapsed_seconds)``.

    With the ambient publisher enabled it also streams the job: its
    lifecycle (start/done/fail), window records from its result,
    cProfile hot frames when profiling, and — in pool workers — the
    metrics-registry delta accumulated by the job, then a throttled
    heartbeat.  Module-level so it pickles.
    """
    publisher = get_publisher()
    if not publisher.enabled:
        t0 = time.perf_counter()
        value = worker(spec)
        return value, time.perf_counter() - t0
    pid = os.getpid()
    name = _job_name(spec)
    publisher.publish({"type": "job_start", "job": name, "pid": pid})
    prof = cProfile.Profile() if publisher.profile else None
    t0 = time.perf_counter()
    try:
        if prof is not None:
            value = prof.runcall(worker, spec)
        else:
            value = worker(spec)
    except Exception as exc:
        publisher.publish(
            {
                "type": "job_fail",
                "job": name,
                "pid": pid,
                "error": f"{type(exc).__name__}: {exc}",
            }
        )
        raise
    elapsed = time.perf_counter() - t0
    publisher.publish(
        {
            "type": "job_done",
            "job": name,
            "pid": pid,
            "elapsed_s": round(elapsed, 6),
        }
    )
    # A scheme's run (anything with a ``.result``) is streamed by the
    # parent's emit_scheme_events — the single seam that also covers
    # cached and in-process scheme evaluations — so workers publish
    # window records only for bare SimResults (alone/surface jobs).
    if not hasattr(getattr(value, "result", None), "windows"):
        for record in result_records(value, getattr(spec, "tag", None)):
            publisher.publish(record)
    if prof is not None:
        publisher.publish(
            {
                "type": "profile",
                "job": name,
                "pid": pid,
                "frames": profile_frames(prof),
            }
        )
    if publisher.worker:
        # Ship this job's metrics delta; the parent merges it into the
        # ambient registry.  The parent/serial path skips this — its
        # registry *is* the ambient one, nothing to ship.
        registry = get_metrics()
        snapshot = registry.snapshot()
        registry.reset()
        if snapshot["counters"] or snapshot["gauges"]:
            publisher.publish(
                {
                    "type": "metrics",
                    "label": f"pid{pid}",
                    "snapshot": snapshot,
                }
            )
    publisher.heartbeat()
    return value, elapsed


def _notify(
    progress: ProgressFn | None,
    with_elapsed: bool,
    done: int,
    total: int,
    spec: object,
    elapsed: float,
) -> None:
    if progress is None:
        return
    if with_elapsed:
        progress(done, total, spec, elapsed)
    else:
        progress(done, total, spec)


def run_jobs(
    worker: Callable[[S], R],
    specs: Iterable[S],
    n_jobs: int | None = None,
    progress: ProgressFn | None = None,
) -> list[R]:
    """Map ``worker`` over ``specs``, returning results in spec order.

    ``worker`` and every spec must be picklable (a module-level function
    and frozen dataclasses / plain tuples).  Results come back in the
    order of ``specs`` regardless of completion order, so callers can
    ``zip`` them against the spec list.
    """
    specs = list(specs)
    total = len(specs)
    if total == 0:
        return []
    n_jobs = resolve_jobs(n_jobs)
    publisher = get_publisher()
    live = publisher.enabled
    with_elapsed = progress is not None and _accepts_elapsed(progress)

    # The batch record seeds the dashboard's total/ETA and the summary's
    # queue waits.  Only the parent-side publisher announces it: a
    # worker's own nested run_jobs (rare — cache hits short-circuit)
    # would otherwise inflate the sweep total.
    if live and not publisher.worker:
        publisher.publish({"type": "batch", "total": total})

    if n_jobs == 1 or total == 1:
        results: list[R] = []
        for done, spec in enumerate(specs, start=1):
            t0 = time.perf_counter()
            try:
                value, elapsed = _timed_call(worker, spec)
            except Exception as exc:
                raise JobError(
                    spec, exc, duration=time.perf_counter() - t0
                ) from exc
            results.append(value)
            _notify(progress, with_elapsed, done, total, spec, elapsed)
        return results

    # Worker-side timing is only worth the extra pickling when someone
    # consumes it: an elapsed-aware callback or the stream.
    timed = with_elapsed or live
    call = partial(_timed_call, worker) if timed else worker
    pool_kwargs: dict = {}
    if live:
        # fork-inherited queue: the initializer installs a worker-side
        # publisher bound to the parent collector's channel
        pool_kwargs = {
            "initializer": _init_live_worker,
            "initargs": (publisher.channel, publisher.worker_config()),
        }

    slots: list[R | None] = [None] * total
    with ProcessPoolExecutor(
        max_workers=min(n_jobs, total), **pool_kwargs
    ) as pool:
        submitted = time.perf_counter()
        futures = {pool.submit(call, spec): i for i, spec in enumerate(specs)}
        done = 0
        try:
            for future in as_completed(futures):
                i = futures[future]
                try:
                    value = future.result()
                except Exception as exc:
                    raise JobError(
                        specs[i], exc,
                        duration=time.perf_counter() - submitted,
                    ) from exc
                if timed:
                    value, elapsed = value  # type: ignore[misc]
                else:
                    elapsed = time.perf_counter() - submitted
                slots[i] = value  # type: ignore[assignment]
                done += 1
                _notify(progress, with_elapsed, done, total, specs[i], elapsed)
        except (Exception, KeyboardInterrupt):
            # Abort the rest of the batch promptly on first failure or
            # Ctrl-C.  Deliberately narrower than BaseException: a
            # SystemExit/GeneratorExit unwinds through the context
            # manager's own cleanup instead of an eager cancel, and
            # KeyboardInterrupt is never wrapped in JobError — it
            # propagates as itself so callers can tell "user stopped
            # the sweep" from "a job died".
            pool.shutdown(wait=False, cancel_futures=True)
            raise
    return slots  # type: ignore[return-value]
