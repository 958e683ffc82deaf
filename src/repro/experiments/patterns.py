"""Pattern-consistency survey across the full evaluated workload set.

Figure 6 demonstrates the pattern on one workload; the paper asserts it
holds "in all our evaluated workloads" (§V).  This experiment quantifies
that claim: for every evaluated pair and both applications, it measures
how tightly the EB-WS inflection point clusters across iso-co-runner-TLP
curves, and how many search samples PBS needs versus the exhaustive 64.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.offline import pbs_offline_search
from repro.experiments.common import ExperimentContext
from repro.experiments.fig6 import run_fig6
from repro.experiments.report import render_table
from repro.workloads.generator import EVALUATED_PAIRS

__all__ = ["PatternSurvey", "run_pattern_survey"]


@dataclass
class PatternSurvey:
    #: workload -> (consistency app0, consistency app1)
    consistency: dict[str, tuple[float, float]]
    #: workload -> number of distinct combos PBS sampled
    pbs_samples: dict[str, int]

    @property
    def mean_consistency(self) -> float:
        values = [c for pair in self.consistency.values() for c in pair]
        return sum(values) / len(values)

    @property
    def mean_samples(self) -> float:
        return sum(self.pbs_samples.values()) / len(self.pbs_samples)

    def render(self) -> str:
        rows = [
            (wl, self.consistency[wl][0], self.consistency[wl][1],
             self.pbs_samples[wl])
            for wl in sorted(self.consistency)
        ]
        table = render_table(
            ("workload", "consistency app0", "consistency app1",
             "PBS samples (of 64)"),
            rows,
            title="§V pattern survey across the evaluated workloads",
        )
        return table + (
            f"\nmean consistency = {self.mean_consistency:.2f}   "
            f"mean PBS samples = {self.mean_samples:.1f} / 64"
        )


def run_pattern_survey(
    ctx: ExperimentContext, pairs=EVALUATED_PAIRS
) -> PatternSurvey:
    consistency: dict[str, tuple[float, float]] = {}
    samples: dict[str, int] = {}
    for names in pairs:
        fig6 = run_fig6(ctx, pair_names=names)
        consistency[fig6.workload] = (
            fig6.pattern_consistency(0),
            fig6.pattern_consistency(1),
        )
        surface = ctx.surface(ctx.pair_apps(*names))
        _, log = pbs_offline_search(surface, "ws", 2)
        samples[fig6.workload] = log.n_samples
    return PatternSurvey(consistency=consistency, pbs_samples=samples)
