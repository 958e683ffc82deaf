"""The repository's stack benchmark; README.md in this directory explains it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 20 --trace 0

It prints the run's provenance, its output checks and one ``name value unit``
line per metric, then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports
the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` reports its
per-layer metrics, from a separate traced pass.

Every measurement runs in a fresh interpreter (``child.py``) with its own
temporary directory under ``.perfbench-tmp/``.  Times are reported in
reference seconds: each timed step is scaled by a fixed calibration kernel
(``calibrate.py``) that samples the host's speed before, during and after
it, so that the host's drifting speed cancels out.  The raw seconds are
printed beside them.  The run writes nothing to the repository's
``results/``, ``.lint-cache/`` or ``BENCH_engine.json`` and checks that it
did not.  Without the program's sources under ``src/`` it exits with code 2
and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from calibrate import REFERENCE_S, calibrate
from provenance import provenance
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TMP_BASE = ROOT / ".perfbench-tmp"
#: an untraced run starts fresh interpreters one after another, each setting
#: the workload up and timing one pass, as a user's command would, until the
#: passes add up to ``--seconds`` and at least this many interpreters ran
MIN_INTERPRETERS = 3
#: every child of one run must be done within this many seconds
BUDGET_S = 170.0
#: the repository's own outputs, which the benchmark must leave untouched
GUARDED = ("results", ".lint-cache", "BENCH_engine.json")
#: printed beside the simulated outputs; shape-only references, because the
#: model uses synthetic stand-in applications and much shorter runs
REFERENCES = {
    "pbs_ws_norm": "paper ~1.21; EXPERIMENTS.md campaign 1.090",
    "pbs_fi_norm": "paper ~2x; EXPERIMENTS.md campaign 1.823",
}
REFERENCE_NOTE = ("shape only: synthetic stand-ins and shorter runs, "
                  "no error figure claimed")
#: the value of an end-to-end metric that a workload does not measure
NOT_MEASURED = 1.0


class ChildError(RuntimeError):
    """A child interpreter failed or ran past the run's time budget."""


def guarded_state() -> dict[str, tuple[int, int]]:
    """Size and modification time of every file the benchmark must not touch."""
    state = {}
    for name in GUARDED:
        path = ROOT / name
        files = [path] if path.is_file() else (
            sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [])
        for f in files:
            st = f.stat()
            state[str(f.relative_to(ROOT))] = (st.st_size, st.st_mtime_ns)
    return state


def run_child(args: argparse.Namespace, mode: str, seconds: float,
              deadline: float) -> dict:
    """Run ``child.py`` in ``mode`` in a fresh interpreter and temp dir."""
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{mode}-", dir=TMP_BASE))
    kernel_s = calibrate()
    t0 = time.monotonic()
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--mode", mode,
        "--tmp", str(tmp), "--t0", repr(t0),
    ]
    # A session of its own, so that a child over budget is stopped
    # together with its pool workers.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildError(f"{mode} child ran past the {BUDGET_S:.0f} s budget")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0:
        raise ChildError(f"{mode} child exited with code {proc.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])
    # set-up is scaled by the kernel's times just before the interpreter
    # started and just after its set-up
    result["setup_scaled"] = result["setup_s"] * REFERENCE_S / statistics.fmean(
        (kernel_s, result["setup_kernel_s"]))
    result["kernel_s"].insert(0, kernel_s)
    return result


def measure(args: argparse.Namespace) -> list[dict]:
    """One traced child, or untraced ones that time one pass each."""
    deadline = time.monotonic() + BUDGET_S
    TMP_BASE.mkdir(exist_ok=True)
    if args.trace:
        # half the run untraced, half traced
        return [run_child(args, "traced", args.seconds / 2, deadline)]
    results: list[dict] = []
    timed = elapsed = 0.0
    while len(results) < MIN_INTERPRETERS or (
            timed < args.seconds and time.monotonic() + elapsed < deadline):
        started = time.monotonic()
        results.append(run_child(args, "untraced", 0, deadline))
        timed += results[-1]["walls"][0]
        elapsed = time.monotonic() - started
    return results


def end_to_end(workload, results: list[dict],
               success_rate: float) -> tuple[dict[str, float], set[str]]:
    """The end-to-end values, and the names the workload does not measure.

    A time is the median over the interpreters, in reference seconds.
    """
    scaled = [r["scaled"][0] for r in results]
    values = {
        "wall_s": statistics.median(scaled),
        "setup_s": statistics.median(r["setup_scaled"] for r in results),
        "peak_rss_mib": max(r["peak_rss_mib"] for r in results),
        "success_rate": success_rate,
        "sim_cycles_per_s": statistics.median(
            r["sim_cycles"][0] / w for r, w in zip(results, scaled)),
        **results[0]["sim"],
    }
    unmeasured = {"sim_cycles_per_s", "pbs_ws_norm", "pbs_ws_of_opt"}
    unmeasured -= set(workload.measures)
    values.update(dict.fromkeys(unmeasured, NOT_MEASURED))
    return values, unmeasured


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    workload = WORKLOADS[args.workload]
    before = guarded_state()
    try:
        results = measure(args)
    except ChildError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    checks = [tuple(c) for r in results for c in r["checks"]]
    checks += [
        ("simulated outputs equal in every interpreter",
         all(r["sim"] == results[0]["sim"] for r in results)),
        ("results/, .lint-cache/ and BENCH_engine.json unchanged",
         guarded_state() == before),
    ]
    correct = all(ok for _, ok in checks)
    attempted = sum(r["operations"] for r in results)
    failed = 0 if correct else attempted
    if args.trace:
        values, unmeasured = results[0]["layers"], set()
    else:
        values, unmeasured = end_to_end(workload, results,
                                        1 - failed / attempted)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}

    prov = provenance(ROOT, args.seed, workload.workers)
    print(f"# perfbench {args.workload} trace={args.trace} "
          f"interpreters={len(results)} "
          f"untraced passes={sum(len(r['walls']) for r in results)}")
    print("# provenance " + " ".join(f"{k}={v}" for k, v in prov.items()))
    kernel_s = [k for r in results for k in r["kernel_s"]]
    print(f"# raw seconds: pass median "
          f"{statistics.median(w for r in results for w in r['walls']):.4g} s, "
          f"set-up median {statistics.median(r['setup_s'] for r in results):.4g} s;"
          f" calibration kernel median {statistics.median(kernel_s):.4g} s "
          f"(range {min(kernel_s):.4g}-{max(kernel_s):.4g}, "
          f"reference {REFERENCE_S} s)")
    tally = Counter((name, ok) for name, ok in checks)
    for (name, ok), n in sorted(tally.items()):
        print(f"# check {'ok' if ok else 'FAILED'} x{n}: {name}")
    for name, metric in metrics.items():
        note = ""
        if name in unmeasured:
            note = f"  [not measured by {args.workload}; reported as {NOT_MEASURED}]"
        elif name in REFERENCES and name in results[0]["sim"]:
            note = f"  [{REFERENCES[name]}; {REFERENCE_NOTE}]"
        print(f"{name} {metric['value']:.6g} {metric['unit']}{note}")
    if not args.trace and "pbs_fi_norm" in results[0]["sim"]:
        print(f"# pbs_fi_norm {results[0]['sim']['pbs_fi_norm']:.6g} ratio  "
              f"[{REFERENCES['pbs_fi_norm']}; {REFERENCE_NOTE}]")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
