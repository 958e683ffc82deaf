"""Monitoring-interval sensitivity (§V-E).

The paper empirically found a sampling window of a few thousand cycles
per TLP combination sufficient — "trends do not change significantly
beyond" it.  This experiment sweeps the online PBS-WS controller's
sample period on one workload and reports the achieved WS and the
search cost, showing the flat region the paper's choice sits in.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.experiments.common import ExperimentContext
from repro.experiments.report import render_table

__all__ = ["SamplingSweep", "run_sampling_sweep"]

DEFAULT_PERIODS = (1000, 2000, 3000, 6000)


@dataclass
class SamplingSweep:
    workload: str
    #: period -> (WS, final combo, cycles spent searching)
    rows: dict[int, tuple[float, tuple[int, ...] | None, float]]

    def ws(self, period: int) -> float:
        return self.rows[period][0]

    @property
    def flat_region_spread(self) -> float:
        """max/min WS across the swept periods (1.0 = fully flat)."""
        values = [ws for ws, _, _ in self.rows.values()]
        return max(values) / max(min(values), 1e-12)

    def render(self) -> str:
        table_rows = [
            (period, ws, str(combo), search_cycles)
            for period, (ws, combo, search_cycles) in sorted(self.rows.items())
        ]
        table = render_table(
            ("sample period", "WS", "final combo", "search cycles"),
            table_rows,
            title=f"§V-E monitoring-interval sensitivity ({self.workload}, "
                  f"PBS-WS)",
        )
        return table + (
            f"\nmax/min WS across periods = {self.flat_region_spread:.2f}"
        )


def run_sampling_sweep(
    ctx: ExperimentContext,
    pair_names=("BLK", "TRD"),
    periods=DEFAULT_PERIODS,
) -> SamplingSweep:
    apps = ctx.pair_apps(*pair_names)
    rows: dict[int, tuple[float, tuple[int, ...] | None, float]] = {}
    for period in periods:
        # each period's run is the context's online PBS-WS scheme at that
        # sample period, stored under its own key
        lengths = dataclasses.replace(ctx.lengths, sample_period=period)
        r = dataclasses.replace(ctx, lengths=lengths).scheme(apps, "pbs-ws")
        # search cost: time of the last TLP actuation (settling point)
        settled_at = max((t for t, _, _ in r.result.tlp_timeline), default=0.0)
        rows[period] = (r.ws, r.combo, settled_at)
    return SamplingSweep(workload="_".join(pair_names), rows=rows)
