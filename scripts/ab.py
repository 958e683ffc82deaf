#!/usr/bin/env python
"""A/B the stack benchmark: a base revision against the working tree.

Usage::

    python scripts/ab.py BASE_REF WORKLOAD [SEED]

Exports ``BASE_REF`` and the working tree's tracked files (through
``git stash create``, which changes neither the tree nor the stash list)
with ``git archive`` into a temporary directory each, and runs
``perfbench/run.py --trace 0`` for ``WORKLOAD`` on both exports, for
``PAIRS`` pairs at ``SEED`` (default 1).  Both sides start from the same
kind of fresh tree, with no ``__pycache__``; an untracked file is in
neither, so ``git add`` a new one first.  Each run lasts ``run_seconds``
of ``BENCHMARK.json``, and the pairs alternate which side runs first, so
a drift in the host's speed falls on both.

It prints, for every end-to-end metric of ``BENCHMARK.json``, each
side's median and quartiles, the number of pairs the working tree won,
and whether its median is better than the base's by more than the
base's quartile spread.  It appends one entry to ``BENCH_ab.json``:
both revisions and their ``src/`` digests, whether the working tree
differed from HEAD (not counting ``BENCH_ab.json`` itself), the host,
Python, nproc, workload, seeds, and every pair's values.
"""

from __future__ import annotations

import io
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LEDGER = ROOT / "BENCH_ab.json"
PAIRS = 10


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(ref: str, into: Path) -> None:
    """Extract the tree of ``ref`` into ``into``."""
    archive = subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in ``tree``: its metrics and provenance."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"ab: perfbench failed in {tree} (exit {proc.returncode}):\n"
                 f"{proc.stderr}")
    verdict = json.loads(lines[-1])
    prov = next(line for line in lines if line.startswith("# provenance "))
    fields = dict(part.split("=", 1) for part in prov.split()[2:])
    return {"correct": verdict["correct"],
            "metrics": {k: v["value"] for k, v in verdict["metrics"].items()},
            "provenance": fields}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3) or not all(arg.isdigit() for arg in argv[2:]):
        print("usage: python scripts/ab.py BASE_REF WORKLOAD [SEED]", file=sys.stderr)
        return 2
    ref, workload, *rest = argv
    seed = int(rest[0]) if rest else 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if workload not in {w["name"] for w in spec["workloads"]}:
        print(f"ab: unknown workload {workload!r}", file=sys.stderr)
        return 2
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]
    base_rev = git("rev-parse", "--short=12", ref)
    head_rev = git("rev-parse", "--short=12", "HEAD")
    dirty = bool(git("status", "--porcelain", "--untracked-files=no",
                     "--", ".", f":(exclude){LEDGER.name}"))

    scratch = Path(tempfile.mkdtemp(prefix="ab-"))
    pairs = []
    try:
        trees = {"base": scratch / "base", "head": scratch / "head"}
        export(ref, trees["base"])
        export(git("stash", "create") or "HEAD", trees["head"])
        for i in range(PAIRS):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            runs = {side: bench(trees[side], workload, seed, seconds) for side in order}
            pairs.append({"first": order[0], **runs})
            wall = {side: runs[side]["metrics"]["wall_s"] for side in order}
            print(f"pair {i + 1}/{PAIRS} ({order[0]} first): wall_s base "
                  f"{wall['base']:.4g}, head {wall['head']:.4g}", file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    summary = {}
    print(f"{workload}: {base_rev} (base) against {head_rev}"
          f"{' + uncommitted changes' if dirty else ''} (head), "
          f"{PAIRS} pairs of {seconds} s runs, seed {seed}")
    print(f"{'metric':<18} {'base q1/median/q3':<30} {'head q1/median/q3':<30} "
          f"{'head/base':>9} {'won':>5}  beyond base IQR")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        base = [p["base"]["metrics"][name] for p in pairs]
        head = [p["head"]["metrics"][name] for p in pairs]
        won = sum((h < b) if lower else (h > b) for b, h in zip(base, head))
        bq, hq = quartiles(base), quartiles(head)
        ratio = hq[1] / bq[1] if bq[1] else float("nan")
        gain = bq[1] - hq[1] if lower else hq[1] - bq[1]
        clear = gain > bq[2] - bq[0]
        summary[name] = {"better": m["better"], "base": bq, "head": hq,
                         "median_ratio": ratio, "won": won,
                         "beyond_base_iqr": clear}
        print(f"{name:<18} {'/'.join(f'{v:.4g}' for v in bq):<30} "
              f"{'/'.join(f'{v:.4g}' for v in hq):<30} {ratio:>9.4f} "
              f"{won:>2}/{PAIRS}  {'yes' if clear else 'no'}")
    correct = all(p[side]["correct"] for p in pairs for side in ("base", "head"))
    print(f"every run correct: {correct}")

    prov = pairs[0]["head"]["provenance"]
    entry = {
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workload": workload,
        "run_seconds": seconds,
        "seeds": [seed] * PAIRS,
        "base": {"ref": ref, "git": base_rev,
                 "src_sha256": pairs[0]["base"]["provenance"]["src_sha256"]},
        "head": {"git": head_rev, "uncommitted_changes": dirty,
                 "src_sha256": prov["src_sha256"]},
        "host": {"node": platform.node(), "cpu": cpu_model(),
                 "machine": prov["machine"], "nproc": int(prov["nproc"])},
        "python": prov["python"],
        "correct": correct,
        "summary": summary,
        "pairs": [{"first": p["first"], "base": p["base"]["metrics"],
                   "head": p["head"]["metrics"]} for p in pairs],
    }
    ledger = json.loads(LEDGER.read_text()) if LEDGER.exists() else []
    ledger.append(entry)
    LEDGER.write_text(json.dumps(ledger, indent=1) + "\n")
    print(f"appended to {LEDGER.name} (entry {len(ledger)})")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
