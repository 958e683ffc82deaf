"""Table IV: per-application characterization.

For every application in the zoo: IPC at bestTLP, EB at bestTLP, and the
behaviour group G1–G4.  As in the paper, groups are assigned from the
measured alone-EB values — the quartile edges in
:data:`repro.workloads.table4.GROUP_QUANTILES` bucket the 26 apps into
four EB bands from low (G1) to high (G4).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import ExperimentContext
from repro.experiments.report import render_table
from repro.workloads.table4 import APPLICATIONS, GROUP_QUANTILES

__all__ = ["Table4Row", "Table4Result", "run_table4", "group_scale_factors"]


@dataclass
class Table4Row:
    abbr: str
    best_tlp: int
    ipc: float
    eb: float
    group: str


@dataclass
class Table4Result:
    rows: list[Table4Row]

    def row(self, abbr: str) -> Table4Row:
        for r in self.rows:
            if r.abbr == abbr:
                return r
        raise KeyError(abbr)

    @property
    def groups(self) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {"G1": [], "G2": [], "G3": [], "G4": []}
        for r in self.rows:
            out[r.group].append(r.abbr)
        return out

    def group_mean_eb(self, group: str) -> float:
        ebs = [r.eb for r in self.rows if r.group == group]
        if not ebs:
            raise KeyError(f"no applications in group {group}")
        return sum(ebs) / len(ebs)

    def render(self) -> str:
        ordered = sorted(self.rows, key=lambda r: r.eb)
        return render_table(
            ("app", "bestTLP", "IPC@bestTLP", "EB@bestTLP", "group"),
            [(r.abbr, r.best_tlp, r.ipc, r.eb, r.group) for r in ordered],
            title="Table IV: application characteristics (sorted by EB)",
        )


def run_table4(ctx: ExperimentContext) -> Table4Result:
    profiles = ctx.alone_for(list(APPLICATIONS), n_cores=ctx.config.n_cores // 2)
    ebs = sorted(p.eb_alone for p in profiles)

    def quantile(q: float) -> float:
        idx = q * (len(ebs) - 1)
        lo = int(idx)
        hi = min(lo + 1, len(ebs) - 1)
        return ebs[lo] + (ebs[hi] - ebs[lo]) * (idx - lo)

    edges = [quantile(q) for q in GROUP_QUANTILES]

    def group_of(eb: float) -> str:
        for i, edge in enumerate(edges):
            if eb <= edge:
                return f"G{i + 1}"
        return f"G{len(edges) + 1}"

    rows = [
        Table4Row(
            abbr=p.abbr,
            best_tlp=p.best_tlp,
            ipc=p.ipc_alone,
            eb=p.eb_alone,
            group=group_of(p.eb_alone),
        )
        for p in profiles
    ]
    return Table4Result(rows=rows)


def group_scale_factors(
    table: Table4Result, abbrs: tuple[str, ...]
) -> list[float]:
    """The paper's user-supplied scaling mode: each application uses the
    average alone-EB of the group it belongs to (§IV)."""
    return [table.group_mean_eb(table.row(a).group) for a in abbrs]
