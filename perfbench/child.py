"""One fresh interpreter of a benchmark run: set a workload up, then time it.

``run.py`` starts this script; it is not meant to be run by hand.  It prints
one JSON object on its last line of standard output.

Both modes set the workload up and report how long that took since the
parent started this interpreter (``--t0``, on the system-wide monotonic
clock), then repeat the workload's timed pass for ``--seconds`` (0: one pass)
with only the counting probes installed.  A pass is the workload's steps,
each timed on its own and scaled by the calibration kernel
(``calibrate.py``), which runs before the first step, after every step and,
in ``untraced`` mode, during the steps.  In ``traced`` mode the child then
installs the span probes and repeats the pass for ``--seconds`` again.
The per-layer metrics are medians over the traced passes, and the spans are
written to ``.perfbench-traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import uuid
from collections import Counter
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACE_DIR = ROOT / ".perfbench-traces"
OVERHEAD = "bench.trace_overhead_frac"


class Pass(NamedTuple):
    #: the pass's program time: its steps' wall time less the kernel runs
    wall_s: float
    #: the pass's program time in reference seconds (see ``calibrate.py``)
    scaled_s: float
    #: every calibration kernel time measured during and around the pass
    kernel_s: list[float]
    counts: Counter
    spans: list[dict]
    report: object  # workloads.PassReport


def measure(workload, rec, seconds: float, sample: bool) -> list[Pass]:
    """Repeat the workload's timed pass for about ``seconds``.

    A pass starts while more than half a pass is left before the deadline,
    so that runs overshoot no more on average than they undershoot.  Each
    step is scaled by the mean of the kernel times measured just before it,
    just after it and, with ``sample``, during it in every process that did
    its work (``calibrate.py``).
    """
    import calibrate
    import probes

    passes = []
    deadline = time.monotonic() + seconds
    cycle = 0.0  # duration of the last pass with its set-up and checks
    while not passes or time.monotonic() + cycle / 2 < deadline:
        started = time.monotonic()
        workload.prepare(len(passes))
        before = probes.engine_counters()
        kernel_s = [calibrate.calibrate()]
        outs, wall, scaled = [], 0.0, 0.0
        for step in workload.steps():
            rec.active = True
            t0 = time.monotonic()
            if sample:
                calibrate.start_sampling()
            try:
                outs.append(step())
            finally:
                calibrate.stop_sampling()
            took = time.monotonic() - t0
            rec.active = False
            own = calibrate.take_samples()
            workers = rec.take_kernel()
            # pool workers ran their kernels side by side, so the step lost
            # about one worker's share of them
            took -= sum(own) + (statistics.fmean(map(sum, workers.values()))
                                if workers else 0.0)
            around = [kernel_s[-1], *own, *(k for ks in workers.values()
                                            for k in ks), calibrate.calibrate()]
            kernel_s += around[1:]
            wall += took
            scaled += took * calibrate.REFERENCE_S / statistics.fmean(around)
        spans, counts = rec.take()
        # engine counters of simulations run in this process (pool workers
        # send theirs back through the probes)
        for name, value in probes.engine_counters().items():
            counts[name] += value - before.get(name, 0)
        passes.append(Pass(wall, scaled, kernel_s, counts, spans,
                           workload.check_pass(outs, counts)))
        cycle = time.monotonic() - started
    return passes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("untraced", "traced"), required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        raise SystemExit(f"imported repro from {repro.__file__}, not {ROOT}/src")
    import probes
    from workloads import WORKLOADS

    probes.install_counters()
    workload = WORKLOADS[args.workload](args.seed, args.tmp)
    workload.setup()
    setup_s = time.monotonic() - args.t0
    from calibrate import calibrate

    setup_kernel_s = calibrate()

    run_id = uuid.uuid4().hex[:12]
    rec = probes.Recorder(run_id, spans=False)
    probes.set_recorder(rec)
    # the traced child samples no step, so that no span holds a kernel run
    untraced = measure(workload, rec, args.seconds,
                       sample=args.mode == "untraced")
    usage = max(resource.getrusage(who).ru_maxrss for who in
                (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    out = {
        "setup_s": setup_s,
        "setup_kernel_s": setup_kernel_s,
        "walls": [p.wall_s for p in untraced],
        "scaled": [p.scaled_s for p in untraced],
        "kernel_s": [k for p in untraced for k in p.kernel_s],
        "sim_cycles": [p.counts["sim.cycles"] for p in untraced],
        "peak_rss_mib": usage / 1024,
        "sim": untraced[0].report.sim,
        "operations": sum(p.report.operations for p in untraced),
        "checks": [c for p in untraced for c in p.report.checks],
    }
    if args.mode == "traced":
        passes, out["layers"] = traced(args, workload, run_id, out["scaled"])
        out["operations"] += sum(p.report.operations for p in passes)
        out["checks"] += [c for p in passes for c in p.report.checks]
    print(json.dumps(out))
    return 0


def traced(args, workload, run_id: str, untraced_scaled: list[float]):
    """Run the traced passes; return them and their per-layer metrics."""
    import probes
    from layers import layer_metrics
    from provenance import provenance

    names = [m["name"] for m in
             json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    probes.install_spans()
    rec = probes.Recorder(run_id, spans=True)
    probes.set_recorder(rec)
    passes = measure(workload, rec, args.seconds, sample=False)
    per_pass = [
        layer_metrics([n for n in names if n != OVERHEAD], p.spans, p.counts,
                      p.report.extra)
        for p in passes
    ]
    layers = {n: statistics.median(m[n] for m in per_pass) for n in per_pass[0]}
    layers[OVERHEAD] = (statistics.median(p.scaled_s for p in passes)
                        / statistics.median(untraced_scaled) - 1)
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl"
    header = {"run": run_id, "workload": args.workload, "pid": os.getpid(),
              **provenance(ROOT, args.seed, workload.workers)}
    with path.open("w") as fh:
        fh.write(json.dumps(header) + "\n")
        for index, p in enumerate(passes):
            for span in p.spans:
                fh.write(json.dumps({"pass": index, **span}) + "\n")
    return passes, layers


if __name__ == "__main__":
    sys.exit(main())
