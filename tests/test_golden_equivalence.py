"""Golden equivalence: the engine must reproduce its recorded fixtures
with exact float equality.

The fixtures under ``tests/golden/`` were recorded before the
transaction/calendar-queue hot-path refactor; any engine change that
alters a single event's ordering or a single float shows up here as a
hard failure.  Exact ``==`` on floats is deliberate — determinism is a
repo invariant (R001), so divergence is an engine bug, not noise.

``scripts/regen_golden.py`` rewrites the fixtures when a *semantic*
change is intended (and ``--check`` verifies them standalone), and
stamps their digest into ``MODEL_DIGEST``, the result store's model
version.
"""

import json

import pytest

from repro.config import small_config
from repro.exec.jobs import SimJob, run_sim_job
from repro.exec.pool import run_jobs
from repro.experiments.common import MODEL_DIGEST
from repro.workloads.table4 import app_by_abbr

from tests.golden_cases import (
    CASES,
    STATIC_SCHEMES,
    case_result,
    fixture_path,
    fixtures_digest,
    result_payload,
)

_SECTIONS = (
    "samples", "cycles", "tlp_timeline", "windows", "final_tlp",
    "dram_utilization",
)


@pytest.mark.parametrize("case", CASES, ids=[c.name for c in CASES])
def test_engine_reproduces_golden_fixture(case):
    path = fixture_path(case)
    assert path.exists(), (
        f"missing golden fixture {path}; run "
        "'PYTHONPATH=src python scripts/regen_golden.py'"
    )
    recorded = json.loads(path.read_text())["result"]
    fresh = case_result(case)
    # Compare section by section so a mismatch names the diverging part
    # (a window log split, a TLP actuation, a sample float, a scheme's
    # pick) directly.
    for section in case.schemes or _SECTIONS:
        assert fresh[section] == recorded[section], (
            f"{case.name}: section {section!r} diverges from the recorded "
            "fixture — the engine changed semantics, not just speed"
        )
    assert fresh == recorded


def test_fixture_matrix_covers_every_dispatch_path():
    """The matrix keeps controller, backpressure, quota, split,
    multi-geometry and static-search coverage; shrinking it silently
    would hollow out the equivalence guarantee (and ``MODEL_DIGEST``,
    which sees only what the fixtures pin)."""
    controllers = {c.controller for c in CASES}
    assert set(STATIC_SCHEMES) <= {s for c in CASES for s in c.schemes}
    assert {"dyncta", "ccws", "modbypass", "pbs-ws", "pbs-fi"} <= controllers
    assert any(c.config == "tiny-dramq" for c in CASES)
    assert any(c.config == "medium" for c in CASES)
    assert any(c.l2_way_quota for c in CASES)
    assert any(c.core_split for c in CASES)
    assert any(len(c.apps) == 1 for c in CASES)


def test_model_digest_is_the_fixtures_digest():
    """The result store keys on ``MODEL_DIGEST``; a fixture regenerated
    without it would leave every stored result of the old model live."""
    assert MODEL_DIGEST == fixtures_digest(), (
        "MODEL_DIGEST is stale; run 'PYTHONPATH=src python scripts/regen_golden.py'"
    )


def test_engine_bit_identical_across_n_jobs():
    """Pooled execution must not perturb results: the same jobs run
    serially and on two worker processes are bit-identical."""
    cfg = small_config()
    apps = (app_by_abbr("BLK"), app_by_abbr("TRD"))
    jobs = [
        SimJob(
            config=cfg,
            apps=apps,
            combo=(8, level),
            cycles=4000,
            warmup=1000,
            seed=5,
            tag=("golden-njobs", level),
        )
        for level in (1, 8, 24)
    ]
    serial = run_jobs(run_sim_job, jobs, n_jobs=1)
    pooled = run_jobs(run_sim_job, jobs, n_jobs=2)
    assert [result_payload(r) for r in serial] == [
        result_payload(r) for r in pooled
    ]
