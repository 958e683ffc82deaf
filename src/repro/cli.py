"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``profile APP [APP...]``
    Alone-profile applications: bestTLP, IPC and EB per TLP level.

``run APP_A APP_B [--scheme S] [--seed N]``
    Evaluate one scheme on a two-application workload.

``compare APP_A APP_B [--schemes S1,S2,...]``
    Evaluate several schemes side by side on one workload.

``sim open --scenario NAME [--policy P]``
    Run an open-system scenario: applications arrive and depart mid-run
    while a registered scheduler policy (see ``docs/policies.md``)
    adapts.  Reports time-weighted WS/FI/HS over the churning roster
    and the roster timeline.

``table4``
    Regenerate the Table IV characterization for the whole zoo.

``zoo``
    List the 26 applications and their memory-signature parameters.

``lint [PATHS...]``
    Run the repo's static invariant checker (:mod:`repro.devtools`)
    over the tree: determinism, layering, picklability, and
    friends.  See ``docs/devtools.md``.

``trace summarize RUN``
    Summarize a traced run (per-phase timings, per-app EB/BW/CMR
    window timelines, the controller decision log).  ``RUN`` is a run
    id under the trace directory, a run directory, or its stream file.
    ``--json`` emits the same summary machine-readably.
    See ``docs/observability.md``.

``watch RUN``
    Follow the live dashboard of a running (or finished) traced sweep
    by tailing its ``events.ndjson`` stream.

``eval``
    Measure every claim EXPERIMENTS.md makes and gate on its bounds
    (exit 1 if one fails).  On the medium config at seed 1, the
    campaign EXPERIMENTS.md tabulates, it also rewrites EXPERIMENTS.md's
    tables and ``results/reports/``.  With ``--quick``, a few pairs at
    test scale, gating only the claims that hold by construction.  See
    :mod:`repro.experiments.eval`.

All simulation commands accept ``--config {paper,medium,small}``, ``--quick``
(short test-scale runs), ``--seed N`` and ``--jobs N`` (parallel
simulation workers; default ``$REPRO_JOBS``, else all cores) — before
or after the subcommand.  Heavy products are cached under ``results/``.
With ``--trace``, a run additionally writes its NDJSON event stream,
the stream's Chrome/Perfetto export, and a provenance manifest under
``results/traces/<run-id>/``.  ``--watch`` (live dashboard) and
``--profile`` (cProfile worker jobs + engine self-profiling counters)
both imply ``--trace``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from pathlib import Path

from repro.config import GPUConfig, medium_config, paper_config, small_config
from repro.core.runner import ALL_SCHEMES, RunLengths
from repro.devtools.linter import add_arguments as lint_add_arguments
from repro.devtools.linter import run as lint_run
from repro.exec import ProgressThrottle, resolve_jobs
from repro.experiments.common import MODEL_DIGEST, ExperimentContext
from repro.experiments.open_system import SCENARIOS, run_open_scenario
from repro.experiments.report import render_table
from repro.experiments.table4 import run_table4
from repro.obs.chrome import write_chrome_trace
from repro.obs.dashboard import Dashboard
from repro.obs.dashboard import watch as watch_live
from repro.obs.live import STREAM_FILENAME, LiveHub, load_live, set_publisher
from repro.obs.manifest import RunManifest
from repro.obs.metrics import MetricsRegistry, get_metrics, set_metrics
from repro.obs.summarize import (
    resolve_trace_path,
    span_totals,
    summarize,
    summary_data,
)
from repro.sim import set_engine_profiling
from repro.workloads.table4 import APPLICATIONS, app_by_abbr

__all__ = ["main", "build_parser", "traced_run"]

_CONFIGS = {
    "paper": paper_config,
    "medium": medium_config,
    "small": small_config,
}

#: Default home of traced runs; ``--trace-dir`` overrides it.
DEFAULT_TRACE_DIR = "results/traces"

#: Commands that run simulations (and therefore accept ``--trace``).
_SIM_COMMANDS = ("profile", "run", "compare", "table4", "sim", "eval")


def _add_common_options(parser: argparse.ArgumentParser, *, top: bool) -> None:
    """Add the global options to ``parser``.

    They are defined both on the top-level parser (with real defaults)
    and on every subparser (with ``SUPPRESS`` defaults, so a flag given
    before the subcommand is not clobbered), which lets users write
    either ``repro --quick compare A B`` or ``repro compare A B --quick``.
    """
    d = (lambda v: v) if top else (lambda v: argparse.SUPPRESS)
    parser.add_argument("--config", choices=sorted(_CONFIGS),
                        default=d("medium"),
                        help="GPU scale preset (default: medium)")
    parser.add_argument("--quick", action="store_true", default=d(False),
                        help="short test-scale simulations")
    parser.add_argument("--seed", type=int, default=d(1),
                        help="simulation seed")
    parser.add_argument("--jobs", type=int, default=d(None), metavar="N",
                        help="parallel simulation workers "
                        "(default: $REPRO_JOBS, else all cores; 1 = serial)")
    parser.add_argument("--trace", action="store_true", default=d(False),
                        help="record a structured trace of the run "
                        "(JSONL + Perfetto export + manifest)")
    parser.add_argument("--trace-dir", default=d(DEFAULT_TRACE_DIR),
                        metavar="DIR",
                        help=f"where traced runs are written "
                        f"(default: {DEFAULT_TRACE_DIR})")
    parser.add_argument("--watch", action="store_true", default=d(False),
                        help="render a live telemetry dashboard while the "
                        "run executes (implies --trace)")
    parser.add_argument("--profile", action="store_true", default=d(False),
                        help="profile worker jobs with cProfile and enable "
                        "engine self-profiling counters (implies --trace)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Effective-bandwidth TLP management for multi-programmed "
        "GPUs (HPCA 2018 reproduction)",
    )
    _add_common_options(parser, top=True)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        _add_common_options(p, top=False)
        return p

    p_profile = add_command("profile", "alone-profile applications")
    p_profile.add_argument("apps", nargs="+", metavar="APP")

    p_run = add_command("run", "evaluate one scheme on a pair")
    p_run.add_argument("apps", nargs=2, metavar="APP")
    p_run.add_argument("--scheme", default="pbs-ws", choices=ALL_SCHEMES)

    p_compare = add_command("compare", "compare schemes on a pair")
    p_compare.add_argument("apps", nargs=2, metavar="APP")
    p_compare.add_argument(
        "--schemes",
        default="besttlp,maxtlp,dyncta,modbypass,pbs-ws,opt-ws",
        help="comma-separated scheme names",
    )

    p_sim = add_command("sim", "open-system simulation runs")
    sim_sub = p_sim.add_subparsers(dest="sim_command", required=True)
    p_open = sim_sub.add_parser(
        "open", help="run an open-system arrival/departure scenario"
    )
    _add_common_options(p_open, top=False)
    p_open.add_argument(
        "--scenario", default="two-phase", choices=sorted(SCENARIOS),
        help="named scenario (default: two-phase)",
    )
    p_open.add_argument(
        "--policy", default="pbs-ws",
        help="registered scheduler policy (default: pbs-ws); "
        "see `repro sim open --list-policies`",
    )
    p_open.add_argument(
        "--list-policies", action="store_true",
        help="list registered policies and exit",
    )

    add_command("table4", "regenerate the Table IV characterization")
    add_command("zoo", "list the application zoo")
    add_command("eval", "check EXPERIMENTS.md's claims and regenerate its tables")

    # lint has its own option set (no sim config/seed/jobs): it is the
    # static-analysis pass over the tree, not a simulation command.
    p_lint = sub.add_parser(
        "lint", help="check repo invariants (determinism, cache schema, ...)"
    )
    lint_add_arguments(p_lint)

    # trace inspects finished runs; it runs no simulations either.
    p_trace = sub.add_parser("trace", help="inspect traces of past runs")
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_summarize = trace_sub.add_parser(
        "summarize", help="summarize one traced run"
    )
    p_summarize.add_argument(
        "run", metavar="RUN",
        help="run id under the trace directory, a run directory, "
        f"or an {STREAM_FILENAME} path",
    )
    p_summarize.add_argument(
        "--trace-dir", default=DEFAULT_TRACE_DIR, metavar="DIR",
        help=f"where traced runs live (default: {DEFAULT_TRACE_DIR})",
    )
    p_summarize.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the summary as machine-readable JSON",
    )

    # watch follows the live stream of a traced run; no sim options.
    p_watch = sub.add_parser(
        "watch", help="follow the live dashboard of a traced run"
    )
    p_watch.add_argument(
        "run", metavar="RUN",
        help="run id under the trace directory, a run directory, "
        f"or an {STREAM_FILENAME} path",
    )
    p_watch.add_argument(
        "--trace-dir", default=DEFAULT_TRACE_DIR, metavar="DIR",
        help=f"where traced runs live (default: {DEFAULT_TRACE_DIR})",
    )
    p_watch.add_argument(
        "--no-follow", action="store_true",
        help="replay what is on disk and exit instead of tailing",
    )
    p_watch.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="stop following after S seconds (default: wait for the end)",
    )
    return parser


class _ProgressPrinter:
    """Sweep-completion reporting: one updating line on a terminal.

    Writes carriage-return progress to *stderr* and only when stderr is
    a terminal, so piped/redirected output never fills with ``\\r``
    frames.  The fourth argument opts into the pool's per-job timing
    (see :data:`repro.exec.ProgressFn`), which also feeds the jobs/sec
    and ETA fields.  A ``done`` value at or below the previous call's
    marks the start of a new batch and re-anchors the rate clock.
    """

    def __init__(self, clock=time.monotonic) -> None:
        self._clock = clock
        self._t0: float | None = None
        self._prev_done = 1 << 62

    def __call__(
        self, done: int, total: int, spec: object, elapsed: float = 0.0
    ) -> None:
        if not sys.stderr.isatty():
            return
        mark = self._clock()
        if self._t0 is None or done <= self._prev_done:
            # New batch: anchor the rate clock, backdated by this job's
            # own runtime so the first frame's rate is already sane.
            self._t0 = mark - (elapsed or 0.0)
        self._prev_done = done
        tag = getattr(spec, "tag", None)
        label = " ".join(str(p) for p in tag) if tag else ""
        timing = f" {elapsed:5.1f}s" if elapsed else ""
        extra = ""
        span = mark - self._t0
        if span > 0:
            rate = done / span
            extra = f" {rate:5.1f}/s"
            if done < total and rate > 0:
                eta = (total - done) / rate
                extra += f" ETA {eta:4.0f}s"
        end = "\n" if done == total else ""
        print(f"\r  [{done}/{total}] {label:<40.40s}{timing}{extra}",
              end=end, file=sys.stderr, flush=True)


#: The module-level hook tests and callers target; one shared instance
#: so consecutive batches in a run reuse the same rate state.
_print_progress = _ProgressPrinter()


def _context(args: argparse.Namespace) -> ExperimentContext:
    config: GPUConfig = _CONFIGS[args.config]()
    lengths = RunLengths.quick() if args.quick else RunLengths()
    if getattr(args, "watch", False):
        # The dashboard owns the terminal; a competing \r line would
        # tear its in-place repaints.
        progress = None
    elif sys.stderr.isatty():
        progress = ProgressThrottle(_print_progress)
    else:
        progress = None
    # Resolve eagerly so a bad --jobs / $REPRO_JOBS fails before any
    # simulation starts, with a clean error instead of a mid-sweep one.
    n_jobs = resolve_jobs(args.jobs)
    return ExperimentContext(config=config, lengths=lengths, seed=args.seed,
                             n_jobs=n_jobs, progress=progress)


def _cmd_profile(args: argparse.Namespace) -> int:
    ctx = _context(args)
    for abbr in args.apps:
        profile = ctx.alone(app_by_abbr(abbr))
        rows = [
            (lv, s.ipc, s.bw, s.cmr, s.eb,
             "<- bestTLP" if lv == profile.best_tlp else "")
            for lv, s in sorted(profile.sweep.items())
        ]
        print(render_table(
            ("TLP", "IPC", "BW", "CMR", "EB", ""),
            rows,
            title=f"{profile.abbr}: alone profile "
            f"(bestTLP={profile.best_tlp})",
        ))
        print()
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    ctx = _context(args)
    apps = ctx.pair_apps(*args.apps)
    result = ctx.scheme(apps, args.scheme)
    print(render_table(
        ("metric", "value"),
        [
            ("TLP combo", str(result.combo)),
            ("WS", result.ws),
            ("FI", result.fi),
            ("HS", result.hs),
            (f"SD-{args.apps[0]}", result.sds[0]),
            (f"SD-{args.apps[1]}", result.sds[1]),
            (f"EB-{args.apps[0]}", result.ebs[0]),
            (f"EB-{args.apps[1]}", result.ebs[1]),
        ],
        title=f"{result.workload} under {args.scheme}",
    ))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    ctx = _context(args)
    apps = ctx.pair_apps(*args.apps)
    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    unknown = [s for s in schemes if s not in ALL_SCHEMES]
    if unknown:
        print(f"unknown schemes: {', '.join(unknown)}", file=sys.stderr)
        return 2
    results = ctx.schemes(apps, schemes)
    rows = [
        (scheme, str(r.combo), r.ws, r.fi, r.hs)
        for scheme, r in results.items()
    ]
    print(render_table(
        ("scheme", "combo", "WS", "FI", "HS"),
        rows,
        title=f"scheme comparison on {'_'.join(args.apps)}",
    ))
    return 0


def _cmd_sim(args: argparse.Namespace) -> int:
    # Only `sim open` exists today; the subparser enforces that.
    from repro.core.policy import available_policies
    from repro.core.runner import emit_scheme_events

    if args.list_policies:
        for name in available_policies():
            print(name)
        return 0
    if args.policy not in available_policies():
        print(
            f"unknown policy {args.policy!r}; available: "
            f"{', '.join(available_policies())}",
            file=sys.stderr,
        )
        return 2
    ctx = _context(args)
    scenario = SCENARIOS[args.scenario]
    report = run_open_scenario(ctx, scenario, policy=args.policy)
    emit_scheme_events(report)
    print(render_table(
        ("metric", "value"),
        [
            ("arrivals", report.n_arrivals),
            ("departures", report.n_departures),
            ("epochs", len(report.epochs)),
            ("TW-WS", report.ws),
            ("TW-FI", report.fi),
            ("TW-HS", report.hs),
        ],
        title=f"open-system {scenario.name} under {args.policy}",
    ))
    if report.result.roster:
        print()
        print(render_table(
            ("cycle", "event", "app", "abbr", "roster", "cores"),
            [
                (int(r["cycle"]), r["event"], r["app"], r["abbr"],
                 ",".join(str(a) for a in r["roster"]),
                 ",".join(str(c) for c in r["cores"]))
                for r in report.result.roster
            ],
            title="roster timeline",
        ))
    return 0


def _cmd_table4(args: argparse.Namespace) -> int:
    print(run_table4(_context(args)).render())
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    # Imported here: the eval pulls in every experiment driver.
    from repro.experiments.eval import main as eval_main

    return eval_main(_context(args), quick=args.quick)


def _cmd_zoo(args: argparse.Namespace) -> int:
    rows = [
        (p.abbr, p.r_m, p.coalesce, "yes" if p.divergent else "no",
         p.footprint_lines, p.p_reuse, p.p_seq, p.shared_frac)
        for p in APPLICATIONS
    ]
    print(render_table(
        ("app", "r_m", "coal", "div", "footprint", "reuse", "seq", "shared"),
        rows,
        title="Table IV application zoo (synthetic memory signatures)",
    ))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    path = resolve_trace_path(args.run, Path(args.trace_dir))
    if getattr(args, "as_json", False):
        print(json.dumps(summary_data(path), indent=2, sort_keys=True))
    else:
        print(summarize(path))
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    state = watch_live(
        resolve_trace_path(args.run, Path(args.trace_dir)),
        follow=not args.no_follow,
        timeout_s=args.timeout,
        run_id=str(args.run),
    )
    return 0 if state.ended or args.no_follow else 1


_COMMANDS = {
    "profile": _cmd_profile,
    "run": _cmd_run,
    "compare": _cmd_compare,
    "sim": _cmd_sim,
    "table4": _cmd_table4,
    "zoo": _cmd_zoo,
    "eval": _cmd_eval,
    "lint": lint_run,
    "trace": _cmd_trace,
    "watch": _cmd_watch,
}


@contextmanager
def traced_run(
    out_dir: Path,
    manifest: RunManifest,
    *,
    profile: bool = False,
    watch: bool = False,
) -> Iterator[Path]:
    """Record everything run inside the block as one traced run.

    Installs a fresh metrics registry and a :class:`LiveHub` whose
    publisher becomes the ambient one, so ``out_dir`` receives the
    run's event stream; on exit it folds the stream into the
    Chrome/Perfetto export and the manifest's per-phase timings.  The
    manifest is written even when the block fails: a crashed run's
    partial stream is exactly the one worth inspecting.  ``watch``
    attaches a dashboard to the stream in-process; ``profile`` enables
    cProfile around worker jobs and the engine's self-profiling
    counters.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    run_id = manifest.run_id
    # A fresh metrics registry isolates this run's counters (cache
    # hits/misses, engine counters) from anything else in the process.
    previous_metrics = set_metrics(MetricsRegistry())
    dashboard = Dashboard(run_id=run_id) if watch else None
    hub = LiveHub(
        run_id,
        out_dir / STREAM_FILENAME,
        profile=profile,
        on_record=dashboard.on_record if dashboard is not None else None,
    )
    previous_publisher = set_publisher(hub.publisher)
    previous_profiling = set_engine_profiling(True) if profile else None
    written: list[str] = []
    phases: dict = {}
    try:
        try:
            yield out_dir
        finally:
            set_publisher(previous_publisher)
            if previous_profiling is not None:
                set_engine_profiling(previous_profiling)
            # Close the hub while this run's metrics registry is still
            # ambient: the final drain merges the last worker metric
            # deltas into it.
            hub.close()
            written.append(STREAM_FILENAME)
    finally:
        metrics_snapshot = get_metrics().snapshot()
        set_metrics(previous_metrics)
        try:
            _header, records = load_live(hub.path)
            phases = span_totals(records)
            write_chrome_trace(out_dir / "trace.chrome.json", records, run_id)
            written.append("trace.chrome.json")
        finally:
            # ``files`` records what actually landed on disk, and
            # ``repro trace summarize`` degrades to a partial summary.
            manifest.finish(
                phases=phases, metrics=metrics_snapshot, files=sorted(written)
            )
            manifest.write(out_dir)
            print(f"trace written to {out_dir}", file=sys.stderr)


def _run_traced(args: argparse.Namespace, argv: list[str]) -> int:
    """Run a simulation command as a :func:`traced_run`.

    Produces ``<trace-dir>/<run-id>/`` holding the event stream, its
    Chrome/Perfetto export, and the provenance manifest.
    """
    run_id = (
        f"{args.command}-{time.strftime('%Y%m%d-%H%M%S')}-seed{args.seed}"
    )
    manifest = RunManifest.start(
        run_id=run_id,
        command=args.command,
        argv=argv,
        config_name=args.config,
        config_dict=dataclasses.asdict(_CONFIGS[args.config]()),
        seed=args.seed,
        quick=args.quick,
        n_jobs=resolve_jobs(args.jobs),
        model_digest=MODEL_DIGEST,
        repo_root=Path(__file__).resolve().parents[2],
    )
    with traced_run(
        Path(args.trace_dir) / run_id,
        manifest,
        profile=getattr(args, "profile", False),
        watch=getattr(args, "watch", False),
    ):
        return _COMMANDS[args.command](args)


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    try:
        traced = (
            getattr(args, "trace", False)
            or getattr(args, "watch", False)   # --watch implies --trace
            or getattr(args, "profile", False)  # --profile implies --trace
        )
        if args.command in _SIM_COMMANDS and traced:
            return _run_traced(args, argv)
        return _COMMANDS[args.command](args)
    except KeyError as exc:  # unknown application abbreviation
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # bad --jobs / $REPRO_JOBS value
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:  # missing trace/run to summarize
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
