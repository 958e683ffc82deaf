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

from repro.core.runner import evaluate_scheme, profile_alone
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
    split = split_cores(ctx.config.n_cores, len(apps))
    alone = [
        profile_alone(ctx.config, a, n, lengths=ctx.lengths, seed=ctx.seed)
        for a, n in zip(apps, split)
    ]
    ws, fi = {}, {}
    for scheme in schemes:
        r = evaluate_scheme(
            ctx.config, apps, scheme, alone,
            lengths=ctx.lengths, seed=ctx.seed, core_split=split,
        )
        ws[scheme], fi[scheme] = r.ws, r.fi
    return ThreeAppResult(workload="_".join(names), ws=ws, fi=fi)


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
    ws: dict[tuple[int, int], dict[str, float]] = {}
    for split in splits:
        alone = [
            profile_alone(ctx.config, a, split[i], lengths=ctx.lengths,
                          seed=ctx.seed)
            for i, a in enumerate(apps)
        ]
        ws[split] = {}
        for scheme in schemes:
            r = evaluate_scheme(
                ctx.config, apps, scheme, alone,
                lengths=ctx.lengths, seed=ctx.seed, core_split=split,
            )
            ws[split][scheme] = r.ws
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
    from repro.core.runner import run_combo
    from repro.core.dyncta import DynCTAController  # noqa: F401 (doc link)

    apps = ctx.pair_apps(*pair_names)
    alone = ctx.alone_for(apps)
    half_ways = ctx.config.l2_per_channel.assoc // 2
    ws: dict[str, dict[str, float]] = {}
    for label, quota in (("shared L2", None),
                         ("way-partitioned L2", {0: half_ways, 1: half_ways})):
        ws[label] = {}
        for scheme in schemes:
            if scheme == "besttlp":
                combo = tuple(p.best_tlp for p in alone)
                result = run_combo(
                    ctx.config, apps, combo, ctx.lengths.eval_cycles,
                    ctx.lengths.eval_warmup, seed=ctx.seed,
                    l2_way_quota=quota,
                )
            else:
                from repro.core.pbs import PBSController

                metric = scheme.rsplit("-", 1)[-1]
                controller = PBSController(
                    metric, n_apps=2,
                    sample_period=ctx.lengths.sample_period,
                )
                result = run_combo(
                    ctx.config, apps, (24, 24), ctx.lengths.dynamic_cycles,
                    ctx.lengths.dynamic_warmup, seed=ctx.seed,
                    controller=controller, l2_way_quota=quota,
                )
            sds = [
                result.samples[a].ipc / alone[a].ipc_alone for a in (0, 1)
            ]
            ws[label][scheme] = sum(sds)
    return L2PartitionResult(workload="_".join(pair_names), ws=ws)
