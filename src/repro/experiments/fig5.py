"""Figure 5: IPC alone-ratio versus EB alone-ratio across two-application
workloads.

The paper's argument for optimizing EB-based rather than IPC-based sums:
the bias either sum has toward one co-runner is its *alone ratio*
max(M1/M2, M2/M1), and across all pairs the EB alone-ratio is much lower
than the IPC alone-ratio, so EB sums are the safer proxy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.experiments.common import ExperimentContext
from repro.experiments.report import geomean, render_table
from repro.metrics.bandwidth import alone_ratio
from repro.workloads.table4 import APPLICATIONS

__all__ = ["Fig5Result", "run_fig5"]


@dataclass
class Fig5Result:
    pairs: list[tuple[str, str]]
    ipc_ar: list[float]
    eb_ar: list[float]

    @property
    def mean_ipc_ar(self) -> float:
        return geomean(self.ipc_ar)

    @property
    def mean_eb_ar(self) -> float:
        return geomean(self.eb_ar)

    @property
    def eb_wins_fraction(self) -> float:
        """Fraction of pairs where the EB bias is smaller."""
        wins = sum(1 for i, e in zip(self.ipc_ar, self.eb_ar) if e <= i)
        return wins / len(self.pairs)

    def render(self) -> str:
        worst = sorted(
            zip(self.pairs, self.ipc_ar, self.eb_ar),
            key=lambda t: -t[1],
        )[:10]
        table = render_table(
            ("pair", "IPC_AR", "EB_AR"),
            [(f"{a}_{b}", i, e) for (a, b), i, e in worst],
            title="Figure 5: alone ratios (10 most IPC-biased pairs shown)",
        )
        return table + (
            f"\npairs={len(self.pairs)}  gmean IPC_AR={self.mean_ipc_ar:.2f}"
            f"  gmean EB_AR={self.mean_eb_ar:.2f}"
            f"  EB bias smaller in {self.eb_wins_fraction:.0%} of pairs"
        )


def run_fig5(ctx: ExperimentContext) -> Fig5Result:
    zoo = ctx.alone_for(list(APPLICATIONS), n_cores=ctx.config.n_cores // 2)
    profiles = {p.abbr: p for p in zoo}
    pairs, ipc_ar, eb_ar = [], [], []
    for a, b in itertools.combinations(sorted(profiles), 2):
        pa, pb = profiles[a], profiles[b]
        pairs.append((a, b))
        ipc_ar.append(alone_ratio(pa.ipc_alone, pb.ipc_alone))
        eb_ar.append(alone_ratio(pa.eb_alone, pb.eb_alone))
    return Fig5Result(pairs=pairs, ipc_ar=ipc_ar, eb_ar=eb_ar)
