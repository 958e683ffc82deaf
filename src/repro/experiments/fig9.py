"""Figures 9 and 10 (and the §VI-C HS results): scheme comparison across
workloads.

For each workload, every scheme's WS / FI / HS is normalized to the
bestTLP+bestTLP baseline; the representative ten are reported per
workload, and the geometric mean is taken across the full evaluated set,
exactly as the paper's figures do.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.common import ExperimentContext
from repro.experiments.report import geomean, render_table
from repro.workloads.generator import EVALUATED_PAIRS, REPRESENTATIVE_PAIRS

__all__ = ["SchemeComparison", "run_fig9", "run_fig10", "run_comparison"]

#: schemes reported in Figure 9 (WS flavours)
WS_SCHEMES = (
    "besttlp", "dyncta", "modbypass",
    "pbs-ws", "pbs-offline-ws", "bf-ws", "opt-ws",
)
#: schemes reported in Figure 10 (FI flavours)
FI_SCHEMES = (
    "besttlp", "dyncta", "modbypass",
    "pbs-fi", "pbs-offline-fi", "bf-fi", "opt-fi",
)
#: schemes reported in the §VI-C HS discussion
HS_SCHEMES = (
    "besttlp", "dyncta", "modbypass",
    "pbs-hs", "pbs-offline-hs", "bf-hs", "opt-hs",
)


@dataclass
class SchemeComparison:
    metric: str  # "ws" | "fi" | "hs"
    schemes: tuple[str, ...]
    #: workload -> scheme -> normalized metric
    per_workload: dict[str, dict[str, float]]
    representative: list[str] = field(default_factory=list)

    def gmean(self, scheme: str) -> float:
        return geomean(
            values[scheme] for values in self.per_workload.values()
        )

    def render(self) -> str:
        headers = ("workload",) + self.schemes
        rows = []
        # The representative workloads this comparison ran, else all.
        shown = [wl for wl in self.representative if wl in self.per_workload]
        shown = shown or sorted(self.per_workload)
        for wl in shown:
            values = self.per_workload[wl]
            rows.append((wl,) + tuple(values[s] for s in self.schemes))
        rows.append(
            ("Gmean(all)",) + tuple(self.gmean(s) for s in self.schemes)
        )
        fig = {"ws": "Figure 9 (WS)", "fi": "Figure 10 (FI)",
               "hs": "§VI-C (HS)"}[self.metric]
        return render_table(
            headers, rows,
            title=f"{fig}: normalized to bestTLP+bestTLP "
            f"({len(self.per_workload)} workloads in Gmean)",
        )


def run_comparison(
    ctx: ExperimentContext,
    metric: str,
    schemes: tuple[str, ...],
    pairs=EVALUATED_PAIRS,
    representative=REPRESENTATIVE_PAIRS,
) -> SchemeComparison:
    tables = ctx.schemes_for([ctx.pair_apps(*names) for names in pairs], schemes)
    per_workload: dict[str, dict[str, float]] = {}
    for names, results in zip(pairs, tables):
        base_value = getattr(results["besttlp"], metric)
        per_workload["_".join(names)] = {
            s: getattr(r, metric) / max(base_value, 1e-12)
            for s, r in results.items()
        }
    return SchemeComparison(
        metric=metric,
        schemes=schemes,
        per_workload=per_workload,
        representative=["_".join(n) for n in representative],
    )


def run_fig9(ctx: ExperimentContext, pairs=EVALUATED_PAIRS) -> SchemeComparison:
    return run_comparison(ctx, "ws", WS_SCHEMES, pairs)


def run_fig10(ctx: ExperimentContext, pairs=EVALUATED_PAIRS) -> SchemeComparison:
    return run_comparison(ctx, "fi", FI_SCHEMES, pairs)
