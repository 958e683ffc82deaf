"""Parallel sweep executor: serial-vs-parallel surface speedup.

Profiles a TLP sub-lattice of BLK_TRD twice — once serially, once on a
4-worker process pool — verifies the results are byte-identical through
the cache serialization, and reports the wall-clock speedup.  On a
machine with >= 4 cores the parallel sweep must be at least 2x faster.
"""

from __future__ import annotations

import json
import os
import time

from repro.config import medium_config
from repro.core.runner import RunLengths, profile_surface
from repro.experiments.common import _result_to_dict
from repro.workloads.table4 import app_by_abbr

SEED = 1
LEVELS = (1, 4, 8, 24)  # 16 combinations: enough work to amortize forking
N_JOBS = 4


def test_parallel_surface_speedup():
    cfg = medium_config()
    apps = [app_by_abbr("BLK"), app_by_abbr("TRD")]
    lengths = RunLengths()

    t0 = time.perf_counter()
    serial = profile_surface(
        cfg, apps, lengths=lengths, seed=SEED, levels=LEVELS, n_jobs=1
    )
    t_serial = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = profile_surface(
        cfg, apps, lengths=lengths, seed=SEED, levels=LEVELS, n_jobs=N_JOBS
    )
    t_parallel = time.perf_counter() - t0

    # Determinism: the parallel sweep is byte-identical to the serial one.
    assert list(parallel) == list(serial)
    for combo in serial:
        assert json.dumps(_result_to_dict(parallel[combo])) == json.dumps(
            _result_to_dict(serial[combo])
        ), f"parallel result diverged at combo {combo}"

    speedup = t_serial / t_parallel if t_parallel > 0 else float("inf")
    cores = os.cpu_count() or 1
    print(f"{len(serial)} combinations on {cores} cores: serial {t_serial:.2f}s, "
          f"{N_JOBS} workers {t_parallel:.2f}s, speedup {speedup:.2f}x")

    if cores >= 4:
        assert speedup >= 2.0, (
            f"expected >= 2x speedup with {N_JOBS} workers on {cores} cores, "
            f"got {speedup:.2f}x ({t_serial:.2f}s -> {t_parallel:.2f}s)"
        )
