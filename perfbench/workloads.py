"""The benchmark's workloads.

Every workload runs on ``medium_config()`` with the simulator seeded by the
run's ``--seed``.  A workload has an untimed ``setup``, and a pass that the
child repeats for the run length: an untimed ``prepare``, the timed
``steps``, each timed on its own, and an untimed ``check_pass`` that checks
the steps' outputs, cleans up for the next pass and reports what the pass
did.  README.md says why each workload exists.
"""

from __future__ import annotations

import os
import shutil
import tarfile
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

# Each workload imports what it uses in ``setup``, so that set-up time
# counts the imports that workload needs and no others.

#: The sweep's fixed prefix of ``repro.workloads.generator.EVALUATED_PAIRS``.
SWEEP_PAIRS = 2
#: Two representative pairs for the long online-PBS runs.  BLK_TRD was left
#: out: its online-PBS event count moves by up to 19% from seed to seed,
#: which alone would make the workload's wall time unsteady across seeds.
PBS_PAIRS = (("BFS", "FFT"), ("FWT", "TRD"))
#: The sweep's pool size, fixed instead of read from the host's core count.
SWEEP_WORKERS = 2
#: The lint workload's input: ``src``, ``tests`` and ``scripts`` (plus
#: ``pyproject.toml``, which marks the lint root) at commit fb13cb8.
LINT_TREE = Path(__file__).resolve().parent / "lint-tree-fb13cb8.tar.xz"


@dataclass
class PassReport:
    """What one pass did and whether its outputs were right."""

    operations: int
    #: (description, passed) of every output check made on the pass
    checks: list[tuple[str, bool]] = field(default_factory=list)
    #: simulated outputs (deterministic for a seed)
    sim: dict[str, float] = field(default_factory=dict)
    #: per-layer values measured outside the spans
    extra: dict[str, float] = field(default_factory=dict)


def pbs_stats(results: list, run_cycles: int) -> dict[str, float]:
    """Search statistics of online-PBS runs, from their decision logs.

    A search runs from the start of the run, or from a ``research`` record,
    to the next ``settled`` record (or the end of the run).
    """
    searching = samples = searches = 0
    for r in results:
        start: float | None = 0.0
        searches += 1
        for d in r.decisions:
            if d["kind"] == "sample":
                samples += 1
            elif d["kind"] == "research" and start is None:
                start = d["cycle"]
                searches += 1
            elif d["kind"] == "settled" and start is not None:
                searching += d["cycle"] - start
                start = None
        if start is not None:
            searching += run_cycles - start
    return {
        "core.pbs.search_frac": searching / (run_cycles * len(results)),
        "core.pbs.samples": samples,
        "core.pbs.searches": searches,
    }


class Workload:
    """One benchmark workload; the module docstring gives its life cycle."""

    name = ""
    #: the end-to-end metrics, beyond wall time, set-up time, memory and
    #: success rate, that this workload measures
    measures: tuple[str, ...] = ()
    #: pool size of the timed region (1: serial, in one process)
    workers = 1

    def __init__(self, seed: int, tmp: Path) -> None:
        self.seed = seed
        self.tmp = tmp

    def setup(self) -> None:
        pass

    def prepare(self, index: int) -> None:
        pass

    def steps(self) -> list[Callable[[], object]]:
        """The pass's timed steps; ``check_pass`` gets their outputs."""
        raise NotImplementedError

    def check_pass(self, out: list, counts: dict) -> PassReport:
        raise NotImplementedError


class SweepCold(Workload):
    """Fig. 9 then Fig. 10 at ``--quick`` into an empty store."""

    name = "sweep-cold"
    measures = ("sim_cycles_per_s", "pbs_ws_norm", "pbs_ws_of_opt")
    workers = SWEEP_WORKERS

    def setup(self) -> None:
        from repro.config import medium_config
        from repro.core.runner import RunLengths
        from repro.experiments import fig9
        from repro.experiments.common import ExperimentContext, ResultStore
        from repro.workloads.generator import EVALUATED_PAIRS

        self.fig9 = fig9
        self.pairs = EVALUATED_PAIRS[:SWEEP_PAIRS]
        self.lengths = RunLengths.quick()
        self.context = lambda store_dir: ExperimentContext(
            medium_config(), lengths=self.lengths, seed=self.seed,
            store=ResultStore(store_dir), n_jobs=SWEEP_WORKERS,
        )
        self.reference: tuple | None = None

    def prepare(self, index: int) -> None:
        self.store_dir = self.tmp / f"store-{index}"
        self.ctx = self.context(self.store_dir)

    def steps(self) -> list[Callable[[], object]]:
        return [partial(self.fig9.run_fig9, self.ctx, self.pairs),
                partial(self.fig9.run_fig10, self.ctx, self.pairs)]

    def sweep_checks(self, report: PassReport) -> None:
        """optWS/optFI are at least their twins' WS/FI, pair by pair.

        Exact: at ``--quick`` all of them reuse the same surface runs.
        The results are read back from the pass's store.
        """
        ctx = self.context(self.store_dir)
        pbs = []
        for names in self.pairs:
            apps = ctx.pair_apps(*names)
            for metric, schemes in (("ws", self.fig9.WS_SCHEMES),
                                    ("fi", self.fig9.FI_SCHEMES)):
                results = ctx.schemes(apps, schemes)
                opt = getattr(results[f"opt-{metric}"], metric)
                twins = ("besttlp", f"bf-{metric}", f"pbs-offline-{metric}")
                report.checks.append((
                    f"{'_'.join(names)}: opt-{metric} {metric} >= "
                    + ", ".join(twins),
                    all(getattr(results[t], metric) <= opt for t in twins),
                ))
                pbs.append(results[f"pbs-{metric}"])
        report.extra.update(pbs_stats(pbs, self.lengths.dynamic_cycles))

    def check_pass(self, out: list, counts: dict) -> PassReport:
        fig9, fig10 = out
        report = PassReport(operations=counts["exec.jobs"])
        self.sweep_checks(report)
        tables = (fig9.per_workload, fig10.per_workload)
        if self.reference is None:
            self.reference = tables
        report.checks.append(
            ("tables equal the first pass's", tables == self.reference))
        report.sim = {
            "pbs_ws_norm": fig9.gmean("pbs-ws"),
            "pbs_ws_of_opt": fig9.gmean("pbs-ws") / fig9.gmean("opt-ws"),
            "pbs_fi_norm": fig10.gmean("pbs-fi"),
        }
        report.extra["pbs_fi_norm"] = report.sim["pbs_fi_norm"]
        shutil.rmtree(self.store_dir)
        return report


class PbsOnline(Workload):
    """Online PBS-WS at the campaign's dynamic length, serially."""

    name = "pbs-online"
    measures = ("sim_cycles_per_s", "pbs_ws_norm")

    def setup(self) -> None:
        from repro.config import TLP_LEVELS, medium_config
        from repro.core.runner import RunLengths
        from repro.experiments.common import ExperimentContext, ResultStore
        from repro.experiments.report import geomean

        self.geomean = geomean
        self.levels = TLP_LEVELS
        self.lengths = RunLengths()
        self.store_dir = self.tmp / "store"
        self.context = lambda n_jobs=1: ExperimentContext(
            medium_config(), lengths=self.lengths, seed=self.seed,
            store=ResultStore(self.store_dir), n_jobs=n_jobs,
        )
        # Set-up may use the pool; the timed region runs serially.
        ctx = self.context(n_jobs=SWEEP_WORKERS)
        self.apps = [ctx.pair_apps(*names) for names in PBS_PAIRS]
        for apps in self.apps:
            ctx.alone_for(apps)
        self.base = [ctx.scheme(apps, "besttlp") for apps in self.apps]
        self.setup_files = set(os.listdir(self.store_dir))
        self.reference: list | None = None

    def prepare(self, index: int) -> None:
        self.ctx = self.context()

    def steps(self) -> list[Callable[[], object]]:
        return [partial(self.ctx.scheme, apps, "pbs-ws") for apps in self.apps]

    def check_pass(self, out: list, counts: dict) -> PassReport:
        report = PassReport(operations=len(out))
        reread = self.context()
        for names, apps, result in zip(PBS_PAIRS, self.apps, out):
            pair = "_".join(names)
            report.checks.append((
                f"{pair}: pbs-ws read back from the store equals the result",
                reread.scheme(apps, "pbs-ws") == result,
            ))
            settled = [d for d in result.decisions if d["kind"] == "settled"]
            combo = result.combo
            report.checks.append((
                f"{pair}: final combination {combo} is a lattice point "
                "matching the last settled record",
                combo is not None
                and len(combo) == len(apps)
                and all(level in self.levels for level in combo)
                and bool(settled)
                and list(combo) == settled[-1]["combo"],
            ))
        if self.reference is None:
            self.reference = out
        report.checks.append(("results equal the first pass's", out == self.reference))
        for name in set(os.listdir(self.store_dir)) - self.setup_files:
            os.unlink(self.store_dir / name)
        report.sim = {"pbs_ws_norm": self.geomean(
            r.ws / b.ws for r, b in zip(out, self.base))}
        report.extra.update(pbs_stats(out, self.lengths.dynamic_cycles))
        return report


class Lint(Workload):
    """``lint_paths`` over a frozen tree: a cold pass, then a cached one."""

    name = "lint"

    def setup(self) -> None:
        from repro.devtools import linter

        self.linter = linter
        self.root = self.tmp / "tree"
        with tarfile.open(LINT_TREE) as tar:
            tar.extractall(self.root, filter="data")
        self.paths = [self.root / d for d in ("src", "tests", "scripts")]
        self.files = len(linter.iter_python_files(self.paths))
        self.reference: list | None = None

    def prepare(self, index: int) -> None:
        shutil.rmtree(self.root / ".lint-cache", ignore_errors=True)

    def steps(self) -> list[Callable[[], object]]:
        lint = partial(self.linter.lint_paths, self.paths, root=self.root)
        return [lint, lint]  # cold, then cached

    def check_pass(self, out: list, counts: dict) -> PassReport:
        cold, cached = out
        if self.reference is None:
            self.reference = cold
        report = PassReport(operations=2 * self.files)
        report.checks += [
            ("cold and cached passes return identical findings", cold == cached),
            ("findings equal the first pass's", cold == self.reference),
            ("the cold pass wrote the semantic cache",
             (self.root / ".lint-cache").is_dir()),
        ]
        report.extra = {"devtools.files": self.files,
                        "devtools.findings": len(cold)}
        return report


WORKLOADS = {w.name: w for w in (SweepCold, PbsOnline, Lint)}
