"""§VI-D sensitivity studies.

Three studies from the paper's discussion section:

* **three-application workloads** — PBS extends beyond pairs: the
  criticality ranking orders the search and each non-critical
  application is tuned in turn;
* **core partitioning** — unequal core splits between the two
  applications (PBS sits on top of whatever split the system chose);
* **L2 partitioning** — way-partitioning the shared L2 between the
  applications, with and without TLP management.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.runner import evaluate_scheme
from repro.experiments.common import ExperimentContext
from repro.experiments.report import render_table
from repro.sim import split_cores
from repro.workloads.table4 import app_by_abbr

__all__ = [
    "ThreeAppResult",
    "CoreSplitResult",
    "L2PartitionResult",
    "run_three_apps",
    "run_core_split",
    "run_l2_partition",
]


@dataclass
class ThreeAppResult:
    workload: str
    ws: dict[str, float]
    fi: dict[str, float]

    def render(self) -> str:
        rows = [(s, self.ws[s], self.fi[s]) for s in self.ws]
        return render_table(
            ("scheme", "WS", "FI"),
            rows,
            title=f"§VI-D: three-application workload {self.workload}",
        )


def run_three_apps(
    ctx: ExperimentContext, names=("BFS", "FFT", "BLK"),
    schemes=("besttlp", "maxtlp", "pbs-ws", "pbs-fi"),
) -> ThreeAppResult:
    apps = [app_by_abbr(n) for n in names]
    if ctx.config.n_cores < len(apps):
        raise ValueError(
            f"{ctx.config.n_cores} cores cannot host {len(apps)} applications"
        )
    # Every core is used (8 cores over 3 apps is 3+3+2), and each
    # application's alone baseline runs on its own share.
    results = ctx.schemes(apps, schemes, split_cores(ctx.config.n_cores, len(apps)))
    return ThreeAppResult(workload="_".join(names),
                          ws={s: r.ws for s, r in results.items()},
                          fi={s: r.fi for s, r in results.items()})


@dataclass
class CoreSplitResult:
    workload: str
    #: split -> scheme -> WS
    ws: dict[tuple[int, int], dict[str, float]]

    def render(self) -> str:
        schemes = next(iter(self.ws.values())).keys()
        rows = [
            (f"{split[0]}+{split[1]} cores",)
            + tuple(values[s] for s in schemes)
            for split, values in sorted(self.ws.items())
        ]
        return render_table(
            ("core split",) + tuple(schemes),
            rows,
            title=f"§VI-D: core-partitioning sensitivity ({self.workload})",
        )


def run_core_split(
    ctx: ExperimentContext, pair_names=("BLK", "TRD"),
    schemes=("besttlp", "pbs-ws"),
) -> CoreSplitResult:
    apps = ctx.pair_apps(*pair_names)
    n = ctx.config.n_cores
    # Quarter / even / three-quarter splits; the second app takes the
    # remainder so every split sums to n (the engine rejects idle cores).
    candidates = [(n // 4, n - n // 4), (n // 2, n - n // 2),
                  (3 * n // 4, n - 3 * n // 4)]
    splits = sorted({s for s in candidates if s[0] >= 1 and s[1] >= 1})
    ws = {
        split: {s: r.ws for s, r in ctx.schemes(apps, schemes, split).items()}
        for split in splits
    }
    return CoreSplitResult(workload="_".join(pair_names), ws=ws)


@dataclass
class L2PartitionResult:
    workload: str
    #: partitioning label -> scheme -> WS
    ws: dict[str, dict[str, float]]

    def render(self) -> str:
        schemes = next(iter(self.ws.values())).keys()
        rows = [
            (label,) + tuple(values[s] for s in schemes)
            for label, values in self.ws.items()
        ]
        return render_table(
            ("L2 policy",) + tuple(schemes),
            rows,
            title=f"§VI-D: L2-partitioning sensitivity ({self.workload})",
        )


def run_l2_partition(
    ctx: ExperimentContext, pair_names=("BLK", "TRD"),
    schemes=("besttlp", "pbs-ws"),
) -> L2PartitionResult:
    apps = ctx.pair_apps(*pair_names)
    alone = ctx.alone_for(apps)
    half_ways = ctx.config.l2_per_channel.assoc // 2
    # The shared L2 is the context's own evaluation, served by its store.
    ws = {"shared L2": {s: r.ws for s, r in ctx.schemes(apps, schemes).items()}}
    ws["way-partitioned L2"] = {
        scheme: evaluate_scheme(
            ctx.config, apps, scheme, alone, lengths=ctx.lengths, seed=ctx.seed,
            l2_way_quota={0: half_ways, 1: half_ways},
        ).ws
        for scheme in schemes
    }
    return L2PartitionResult(workload="_".join(pair_names), ws=ws)
