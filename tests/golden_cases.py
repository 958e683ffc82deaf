"""The golden-equivalence case matrix.

Each :class:`GoldenCase` pins one (config, workload, scheme, seed)
combination; its recorded :class:`~repro.sim.SimResult` lives as JSON
under ``tests/golden/``.  The engine is required to reproduce every
fixture with **exact float equality** — determinism is a repo invariant
(lint rule R001), so any divergence after an engine change is a bug in
the change, not noise.

The matrix deliberately walks every dispatch path of the hot loop:

* alone runs and co-runs at fixed TLP (the L1/L2/DRAM happy path);
* maxTLP co-runs and a tiny DRAM queue (MSHR and channel-queue
  backpressure, deferred re-drive);
* an L2 way quota (partitioned fill/eviction);
* every controller family (DynCTA, CCWS, Mod+Bypass with its bypass
  actuation, online PBS), which exercises window cuts, the TLP
  timeline, and delayed actuation events;
* a second cache/channel geometry (``medium_config``);
* every static scheme over one profiled surface (the alone sweeps, the
  brute-force, oracle and offline-PBS searches, and the slowdown
  metrics), pinned by pick and metric rather than by run.

Regenerate fixtures with ``python scripts/regen_golden.py`` — but only
when a *semantic* change is intended; a pure performance refactor must
never need to.  Their digest is the result store's model version
(``MODEL_DIGEST``), so regenerating them also moves every store key.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from repro.config import GPUConfig, medium_config, small_config
from repro.core.ccws import CCWSController
from repro.core.controller import TLPController
from repro.core.dyncta import DynCTAController
from repro.core.modbypass import ModBypassController
from repro.core.pbs import PBSController
from repro.core.runner import (
    RunLengths,
    evaluate_scheme,
    profile_alone,
    profile_surface,
    run_combo,
)
from repro.experiments.common import _result_to_dict
from repro.sim import SimResult
from repro.workloads.table4 import app_by_abbr

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


@dataclass(frozen=True)
class GoldenCase:
    """One pinned simulation of the equivalence matrix."""

    name: str
    apps: tuple[str, ...]
    combo: tuple[int, ...]
    cycles: int
    warmup: int
    seed: int
    config: str = "small"  # "small" | "medium" | "tiny-dramq"
    controller: str | None = None  # None | "dyncta" | "ccws" | "modbypass" | "pbs-*"
    sample_period: float = 800.0
    core_split: tuple[int, ...] | None = None
    l2_way_quota: tuple[tuple[int, int], ...] | None = None
    #: static schemes evaluated over the case's alone profiles and
    #: surface, both profiled at ``cycles``/``warmup``; such a case pins
    #: each scheme's pick and metrics instead of one run
    schemes: tuple[str, ...] = ()


#: every scheme that runs one combination, picked before the run
STATIC_SCHEMES = (
    "besttlp", "maxtlp",
    "bf-ws", "bf-fi", "bf-hs",
    "opt-ws", "opt-fi", "opt-hs",
    "pbs-offline-ws", "pbs-offline-fi", "pbs-offline-hs",
)

CASES: tuple[GoldenCase, ...] = (
    GoldenCase("alone-blk", ("BLK",), (8,), 8000, 2000, seed=3),
    GoldenCase("corun-blk-trd", ("BLK", "TRD"), (8, 8), 10000, 2000, seed=7),
    GoldenCase("corun-maxtlp-bfs-gups", ("BFS", "GUPS"), (24, 24), 8000, 2000,
               seed=11),
    GoldenCase("tinyq-gups-blk", ("GUPS", "BLK"), (16, 16), 8000, 2000, seed=3,
               config="tiny-dramq"),
    GoldenCase("quota-trd-blk", ("TRD", "BLK"), (24, 24), 8000, 2000, seed=5,
               l2_way_quota=((0, 2),)),
    GoldenCase("split-lud-trd", ("LUD", "TRD"), (8, 16), 8000, 2000, seed=9,
               config="medium", core_split=(2, 6)),
    GoldenCase("dyncta-blk-trd", ("BLK", "TRD"), (24, 24), 30000, 3000, seed=7,
               controller="dyncta"),
    GoldenCase("ccws-gups-trd", ("GUPS", "TRD"), (24, 24), 20000, 2000, seed=13,
               controller="ccws"),
    GoldenCase("modbypass-trd-blk", ("TRD", "BLK"), (24, 24), 30000, 3000,
               seed=5, controller="modbypass"),
    GoldenCase("pbs-ws-bfs-blk", ("BFS", "BLK"), (24, 24), 30000, 3000, seed=9,
               controller="pbs-ws"),
    GoldenCase("pbs-fi-blk-trd", ("BLK", "TRD"), (24, 24), 30000, 3000, seed=4,
               controller="pbs-fi"),
    GoldenCase("medium-corun-blk-trd", ("BLK", "TRD"), (8, 8), 6000, 1500,
               seed=1, config="medium"),
    GoldenCase("static-blk-trd", ("BLK", "TRD"), (), 4000, 1000, seed=3,
               schemes=STATIC_SCHEMES),
)


def fixture_path(case: GoldenCase) -> Path:
    return GOLDEN_DIR / f"{case.name}.json"


def build_config(case: GoldenCase) -> GPUConfig:
    if case.config == "small":
        return small_config()
    if case.config == "medium":
        return medium_config()
    if case.config == "tiny-dramq":
        return small_config().with_(dram_queue_depth=4)
    raise ValueError(f"unknown golden config {case.config!r}")


def build_controller(case: GoldenCase) -> TLPController | None:
    n = len(case.apps)
    period = case.sample_period
    if case.controller is None:
        return None
    if case.controller == "dyncta":
        return DynCTAController(n, sample_period=period)
    if case.controller == "ccws":
        return CCWSController(n, sample_period=period)
    if case.controller == "modbypass":
        return ModBypassController(n, sample_period=period)
    if case.controller.startswith("pbs-"):
        metric = case.controller.rsplit("-", 1)[-1]
        scale = "sampled" if metric in ("fi", "hs") else None
        return PBSController(metric, n_apps=n, scale=scale, sample_period=period)
    raise ValueError(f"unknown golden controller {case.controller!r}")


def run_case(case: GoldenCase) -> SimResult:
    """Simulate one case exactly as the fixture recorded it."""
    return run_combo(
        build_config(case),
        [app_by_abbr(a) for a in case.apps],
        case.combo,
        case.cycles,
        case.warmup,
        seed=case.seed,
        controller=build_controller(case),
        core_split=case.core_split,
        l2_way_quota=dict(case.l2_way_quota) if case.l2_way_quota else None,
    )


def result_payload(result: SimResult) -> dict:
    """JSON-normalized result dict (tuples -> lists, float-exact)."""
    return json.loads(json.dumps(_result_to_dict(result)))


def schemes_payload(case: GoldenCase) -> dict:
    """Each static scheme's pick and metrics, over profiles and a surface
    whose lengths equal the evaluation's, so every pick reuses a run."""
    config = build_config(case)
    apps = [app_by_abbr(a) for a in case.apps]
    lengths = RunLengths(case.cycles, case.warmup, case.cycles, case.warmup)
    alone = [
        profile_alone(config, app, config.n_cores // len(apps), lengths,
                      case.seed, n_jobs=1)
        for app in apps
    ]
    surface = profile_surface(config, apps, lengths, case.seed, n_jobs=1)
    payload = {}
    for scheme in case.schemes:
        r = evaluate_scheme(config, apps, scheme, alone, surface=surface,
                            lengths=lengths, seed=case.seed)
        payload[scheme] = {"combo": r.combo, "sds": r.sds, "ws": r.ws,
                           "fi": r.fi, "hs": r.hs}
    return json.loads(json.dumps(payload))


def case_result(case: GoldenCase) -> dict:
    """What the case's fixture records under ``"result"``."""
    if case.schemes:
        return schemes_payload(case)
    return result_payload(run_case(case))


def case_payload(case: GoldenCase) -> dict:
    """The fixture's self-describing header."""
    return {
        "name": case.name,
        "apps": list(case.apps),
        "combo": list(case.combo),
        "cycles": case.cycles,
        "warmup": case.warmup,
        "seed": case.seed,
        "config": case.config,
        "controller": case.controller,
        "sample_period": case.sample_period,
        "core_split": list(case.core_split) if case.core_split else None,
        "l2_way_quota": (
            [list(q) for q in case.l2_way_quota] if case.l2_way_quota else None
        ),
        # Run cases omit the key, which keeps their fixtures as recorded.
        **({"schemes": list(case.schemes)} if case.schemes else {}),
    }


def fixtures_digest() -> str:
    """The sha256 of every fixture's canonical JSON, in name order: the
    model version ``MODEL_DIGEST`` must equal.  Canonical encoding makes
    it independent of the files' whitespace and line endings."""
    digest = hashlib.sha256()
    for path in sorted(GOLDEN_DIR.glob("*.json")):
        data = json.loads(path.read_text())
        digest.update(
            json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
        )
    return digest.hexdigest()
