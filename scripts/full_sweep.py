"""Full evaluation sweep: all schemes on all 25 evaluated pairs.

Pass ``--trace`` to record the sweep the way ``repro ... --trace``
records a run (event stream + Perfetto export + manifest under
``results/traces/``); summarize it afterwards with
``python -m repro trace summarize <run-id>``.
"""
import argparse
import dataclasses
import math
import sys
import time
from pathlib import Path

from repro import medium_config
from repro.cli import traced_run
from repro.experiments.common import CACHE_FORMAT, ExperimentContext
from repro.obs import RunManifest
from repro.workloads.generator import EVALUATED_PAIRS

SCHEMES = ("besttlp", "maxtlp", "dyncta", "ccws", "modbypass",
           "pbs-ws", "pbs-fi", "pbs-hs",
           "pbs-offline-ws", "pbs-offline-fi", "pbs-offline-hs",
           "bf-ws", "bf-fi", "bf-hs",
           "opt-ws", "opt-fi", "opt-hs")

def run_sweep(ctx):
    t0 = time.time()
    tables = ctx.schemes_for(
        [ctx.pair_apps(*names) for names in EVALUATED_PAIRS], SCHEMES)
    print(f"{len(tables)} workloads x {len(SCHEMES)} schemes "
          f"in {time.time()-t0:.1f}s")
    rows = {"_".join(names): r for names, r in zip(EVALUATED_PAIRS, tables)}
    for name, r in rows.items():
        print(f"{name:10s} "
              f"WS: base={r['besttlp'].ws:.2f} pbs={r['pbs-ws'].ws:.2f} "
              f"off={r['pbs-offline-ws'].ws:.2f} bf={r['bf-ws'].ws:.2f} opt={r['opt-ws'].ws:.2f} | "
              f"FI: base={r['besttlp'].fi:.2f} pbs={r['pbs-fi'].fi:.2f} "
              f"bf={r['bf-fi'].fi:.2f} opt={r['opt-fi'].fi:.2f}", flush=True)
    print("\n=== normalized gmeans (vs besttlp) ===")
    for metric, attr in (("WS", "ws"), ("FI", "fi"), ("HS", "hs")):
        print(f"--- {metric} ---")
        for s in SCHEMES:
            vals = [getattr(rows[w][s], attr) / max(getattr(rows[w]["besttlp"], attr), 1e-9)
                    for w in rows]
            g = math.exp(sum(math.log(max(v, 1e-9)) for v in vals) / len(vals))
            print(f"  {s:16s} {g:.3f}")

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true",
                        help="record a structured trace of the sweep")
    parser.add_argument("--trace-dir", default="results/traces", metavar="DIR")
    args = parser.parse_args(argv)
    config = medium_config()
    ctx = ExperimentContext(config=config, seed=args.seed)
    if not args.trace:
        run_sweep(ctx)
        return
    run_id = f"full_sweep-{time.strftime('%Y%m%d-%H%M%S')}-seed{args.seed}"
    manifest = RunManifest.start(
        run_id=run_id, command="full_sweep", argv=list(sys.argv[1:]),
        config_name="medium", config_dict=dataclasses.asdict(config),
        seed=args.seed, quick=False, n_jobs=ctx.n_jobs,
        cache_format=CACHE_FORMAT,
        repo_root=Path(__file__).resolve().parents[1],
    )
    with traced_run(Path(args.trace_dir) / run_id, manifest):
        run_sweep(ctx)

if __name__ == "__main__":
    main()
