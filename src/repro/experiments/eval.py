"""``repro eval``: EXPERIMENTS.md's claims, measured, reported and gated.

dataset → runner → scorers → report → gate, in one module.  The dataset
is :data:`CLAIMS`, one :class:`Claim` per statement EXPERIMENTS.md makes:
a scalar measured through the drivers of :mod:`repro.experiments`, and a
bound.  :func:`run_eval` fills the store at the context's seed (a
:class:`Run`) and scores every claim.  :func:`main` prints the report,
writes the figures under ``results/reports/`` and EXPERIMENTS.md's tables
between its ``<!-- eval:SECTION -->`` markers, and returns the gate.

The full tier (``repro eval``) runs every evaluated pair at
``RunLengths()`` and gates every claim.  The quick tier (``repro --quick
eval``) runs :data:`QUICK_PAIRS` at ``RunLengths.quick()``: it measures
every claim, so a crashing driver fails it, but gates only the ``exact``
ones, which hold by construction at any run length and seed.  Only the
campaign EXPERIMENTS.md tabulates (the full tier on ``medium_config()``
at seed 1) writes the outputs; any other run writes nothing.
"""

from __future__ import annotations

import dataclasses
import operator
import re
import sys
import traceback
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Any

from repro.analysis.model import validate_eq1, validate_eq5
from repro.config import GPUConfig, medium_config, paper_config
from repro.core.runner import ALL_SCHEMES, RunLengths
from repro.core.splitsearch import joint_split_search
from repro.experiments.common import ExperimentContext, atomic_write_text
from repro.experiments.fig1 import run_fig1
from repro.experiments.fig2 import run_fig2
from repro.experiments.fig3 import run_fig3
from repro.experiments.fig4 import run_fig4, run_observation2
from repro.experiments.fig5 import run_fig5
from repro.experiments.fig6 import run_fig6
from repro.experiments.fig7 import run_fig7
from repro.experiments.fig8 import run_fig8
from repro.experiments.fig9 import FI_SCHEMES, HS_SCHEMES, WS_SCHEMES, run_comparison
from repro.experiments.fig11 import run_fig11
from repro.experiments.latency import run_latency_study
from repro.experiments.patterns import run_pattern_survey
from repro.experiments.report import geomean, render_table
from repro.experiments.robustness import run_robustness
from repro.experiments.sampling import run_sampling_sweep
from repro.experiments.sensitivity import run_core_split, run_l2_partition, run_three_apps
from repro.experiments.table4 import group_scale_factors, run_table4
from repro.metrics.slowdown import fairness_index, harmonic_speedup
from repro.sim import SimResult, Simulator
from repro.workloads.generator import EVALUATED_PAIRS, REPRESENTATIVE_PAIRS
from repro.workloads.table4 import app_by_abbr

__all__ = ["Claim", "CLAIMS", "QUICK_PAIRS", "Run", "Evaluation", "run_eval",
           "render_report", "render_blocks", "update_doc", "write_reports", "main"]

_REPO = Path(__file__).resolve().parents[3]
DOC_PATH = _REPO / "EXPERIMENTS.md"
REPORTS_DIR = _REPO / "results" / "reports"

#: The quick tier's workloads: every figure's fixed pair is among them.
QUICK_PAIRS: tuple[tuple[str, str], ...] = (("BLK", "TRD"), ("BFS", "FFT"), ("BLK", "BFS"))

# --- dataset ---------------------------------------------------------------

_OPS: dict[str, Callable[[float, float], bool]] = {
    ">": operator.gt, "≥": operator.ge, "<": operator.lt, "≤": operator.le,
    "=": operator.eq, "±": lambda value, tol: abs(value - 1.0) <= tol,
}


@dataclass(frozen=True)
class Claim:
    """One statement of EXPERIMENTS.md: a measured scalar and a bound.

    ``id`` is ``SECTION.NAME``; the section names the EXPERIMENTS.md
    block that tabulates it.  ``op`` is one of ``> ≥ < ≤ =``, or ``±``
    for "within ``bound`` of 1".  ``exact`` claims hold by construction
    at any run length and seed.
    """

    id: str
    text: str
    measure: Callable[[Run], float]
    op: str
    bound: float
    paper: str = ""
    fmt: str = "{:.3f}"
    exact: bool = False

    @property
    def section(self) -> str:
        return self.id.split(".", 1)[0]

    def holds(self, value: float) -> bool:
        return _OPS[self.op](value, self.bound)

    @property
    def bound_text(self) -> str:
        return f"1 ± {self.bound:g}" if self.op == "±" else f"{self.op} {self.bound:g}"


def _claims(section: str, rows: Sequence[tuple], exact: bool | set[str] = False,
            **flags: Any) -> list[Claim]:
    """Claims from ``(name, text, measure, op, bound[, paper[, fmt]])``
    rows; ``exact`` is True for all of them, or the names of the exact ones."""
    return [Claim(f"{section}.{name}", *rest, exact=exact is True or name in (exact or ()),
                  **flags) for name, *rest in rows]


def _gmeans(section: str, metric: str, gmeans: Sequence[tuple],
            ratios: Sequence[tuple]) -> list[Claim]:
    """Fig. 9/10/HS: a claim per scheme's gmean (bestTLP's is 1 exactly),
    one per ratio of two gmeans, and the oracle's lead pair by pair."""
    def gmean(r: Run, scheme: str) -> float:
        return getattr(r, section).gmean(scheme)

    return [
        *(Claim(f"{section}.{s}", f"{label} gmean", lambda r, s=s: gmean(r, s), op, bound, paper,
                exact=s == "besttlp") for s, label, op, bound, paper in gmeans),
        *(Claim(f"{section}.{a}-{rel}-{b}", f"{a} / {b}", lambda r, a=a, b=b: gmean(r, a)
                / gmean(r, b), op, bound, paper) for a, rel, b, op, bound, paper in ratios),
        Claim(f"{section}.opt-dominates", f"least opt{metric.upper()} / best of its BF, "
              "PBS-offline and bestTLP twins, pair by pair", lambda r: _dominance(r, metric),
              "≥", 1, "oracle", exact=True),
    ]


def _dominance(r: Run, metric: str) -> float:
    """Least ratio, over the pairs, of the metric's oracle to the best of
    its BF, PBS-offline and bestTLP twins, all on the oracle's surface."""
    twins = (f"bf-{metric}", f"pbs-offline-{metric}", "besttlp")
    return min(getattr(t[f"opt-{metric}"], metric) / max(getattr(t[s], metric) for s in twins)
               for t in r.tables)


def _steps(r: Run, a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Lattice steps between two TLP combinations (the larger per app)."""
    index = r.ctx.config.tlp_levels.index
    return max(abs(index(x) - index(y)) for x, y in zip(a, b))


def _kept(r: Run, metric: str) -> float:
    """FI or HS at BLK_TRD's PBS pick over that at the oracle's."""
    apps = r.ctx.pair_apps(*r.fig7.abbrs)
    surface, alone = r.ctx.surface(apps), r.ctx.alone_for(apps)

    def value(combo: tuple[int, ...]) -> float:
        sds = [surface[combo].samples[a].ipc / alone[a].ipc_alone for a in (0, 1)]
        return fairness_index(sds) if metric == "fi" else harmonic_speedup(sds)

    return (value(getattr(r.fig7, f"pbs_{metric}_combo"))
            / value(getattr(r.fig7, f"opt_{metric}_combo")))


def _gains(r: Run) -> list[float]:
    return [x.ws_opt / x.ws_base for x in r.fig4.rows]


def _obs1(r: Run) -> float:
    """Share of the pairs optWS improves by > 2% whose EB-WS improves too
    (1 when no pair improves: the observation holds vacuously)."""
    improved = [x for x in r.fig4.rows if x.ws_opt > 1.02 * x.ws_base]
    return sum(x.ebws_opt > x.ebws_base for x in improved) / len(improved) if improved else 1.0


def _ablation(attr: str, a: str, b: str) -> Callable[[Run], float]:
    return lambda r: getattr(r.ablation[a].samples[0], attr) / getattr(
        r.ablation[b].samples[0], attr)


def _latencies(r: Run) -> list[dict[str, float]]:
    return [s for by_app in r.latency.latency.values() for s in by_app.values()]


def _p99_gain(r: Run) -> float:
    base, opt = (r.latency.latency[k] for k in ("bestTLP+bestTLP", "optWS"))
    return min(base[a]["p99"] / opt[a]["p99"] for a in base)


CLAIMS: tuple[Claim, ...] = (
    *_claims("fig1", [
        ("besttlp-ws", "bestTLP+bestTLP WS, normalized", lambda r: r.fig1.ws["besttlp"], "=", 1),
        ("besttlp-fi", "bestTLP+bestTLP FI, normalized", lambda r: r.fig1.fi["besttlp"], "=", 1),
        ("opt-ws", "optWS / bestTLP, WS", lambda r: r.fig1.ws["opt-ws"], ">", 1.03, "~tens of %"),
        ("opt-fi", "optFI / bestTLP, FI", lambda r: r.fig1.fi["opt-fi"], ">", 1.3, "up to ~3×"),
        ("maxtlp-ws", "maxTLP+maxTLP / bestTLP, WS", lambda r: r.fig1.ws["maxtlp"], "<", 1, "< 1"),
        ("maxtlp-fi", "maxTLP+maxTLP / optFI, FI",
         lambda r: r.fig1.fi["maxtlp"] / r.fig1.fi["opt-fi"], "<", 1, "< 1"),
    ], exact={"besttlp-ws", "besttlp-fi"}),
    *_claims("fig2", [
        ("ipc-peak", "highest IPC of the sweep (1 at bestTLP)", lambda r: max(r.fig2.ipc), "=", 1),
        ("ipc-at-max", "IPC at TLP 24 / at bestTLP", lambda r: r.fig2.ipc[-1], "<", 1, "falls"),
        ("cmr-growth", "least CMR ratio of a TLP level to the one below",
         lambda r: min(b / a for a, b in zip(r.fig2.cmr, r.fig2.cmr[1:])), ">", 1, "grows"),
        ("eb-rollover", "peak EB / EB at TLP 24", lambda r: max(r.fig2.eb) / r.fig2.eb[-1], ">", 1,
         "rolls over"),
        ("corr", "corr(IPC, EB) over the sweep", lambda r: r.fig2.ipc_eb_correlation, "≥", 0.99,
         "EB tracks IPC"),
        ("corr-others", "least corr(IPC, EB) of JPEG, BLK, TRD and LPS",
         lambda r: min(f.ipc_eb_correlation for f in r.fig2_others.values()), ">", 0.96),
    ], exact={"ipc-peak"}),
    *_claims("fig3", [
        ("l2-gain", "EB seen by L1 / BW at DRAM (B / A)",
         lambda r: r.fig3.eb_at_l2 / r.fig3.bw_at_dram, "≥", 1, "A ≤ B"),
        ("l1-gain", "EB seen by the core / by L1 (C / B)",
         lambda r: r.fig3.eb_at_core / r.fig3.eb_at_l2, "≥", 1, "B ≤ C"),
        ("core-gain", "EB seen by the core / BW at DRAM (C / A)",
         lambda r: r.fig3.eb_at_core / r.fig3.bw_at_dram, ">", 1.2, "amplified"),
        ("blk-gain", "BLK: C / A", lambda r: r.fig3_blk.eb_at_core / r.fig3_blk.bw_at_dram,
         "≤", 1.1, "EB = BW"),
    ], exact={"l2-gain", "l1-gain"}),
    *_claims("table4", [
        ("apps", "applications characterized", lambda r: len(r.table4.rows), "=", 26, "26", "{}"),
        ("min-group", "applications in the smallest of G1–G4",
         lambda r: min(map(len, r.table4.groups.values())), "≥", 4, "", "{}"),
        ("compute-in-g1", "of LUD, NW, SAD, HISTO and QTC, those in G1",
         lambda r: len({"LUD", "NW", "SAD", "HISTO", "QTC"} & {*r.table4.groups["G1"]}), "=", 5,
         "", "{}"),
        ("g4-over-g1", "mean EB of G4 / of G1",
         lambda r: r.table4.group_mean_eb("G4") / r.table4.group_mean_eb("G1"), ">", 2),
        ("bfs-over-gups", "EB of BFS / of GUPS",
         lambda r: r.table4.row("BFS").eb / r.table4.row("GUPS").eb, ">", 1),
        ("scale", "least group scaling factor of BFS and FFT",
         lambda r: min(group_scale_factors(r.table4, ("BFS", "FFT"))), ">", 0),
    ], exact={"apps"}),
    *_claims("fig4", [
        ("missing", "pairs without a row", lambda r: len(r.representative) - len(r.fig4.rows),
         "=", 0, "", "{}"),
        ("obs2-missing", "pairs without an optIT row",
         lambda r: len(r.representative) - len(r.obs2.rows), "=", 0, "", "{}"),
        ("min-gain", "least optWS / bestTLP, WS", lambda r: min(_gains(r)), "≥", 1, "oracle"),
        ("gain", "gmean optWS / bestTLP, WS", lambda r: geomean(_gains(r)), ">", 1.05, "large"),
        ("obs1", "share of WS-improved pairs whose EB-WS improves", _obs1, "≥", 1,
         "all but a few", "{:.0%}"),
        ("obs2", "pairs with optIT ≠ optWS", lambda r: len(r.obs2.divergent_workloads), "≥", 2,
         "several", "{}"),
        ("obs2-worst", "least WS at optIT / at optWS",
         lambda r: min(ratio for *_, ratio in r.obs2.rows.values()), ">", 0),
        ("obs2-best", "largest WS at optIT / at optWS",
         lambda r: max(ratio for *_, ratio in r.obs2.rows.values()), "≤", 1, "oracle"),
    ], exact={"missing", "obs2-missing", "min-gain", "obs2-worst", "obs2-best"}),
    *_claims("fig5", [
        ("pairs", "application pairs", lambda r: len(r.fig5.pairs), "=", 325, "", "{}"),
        ("min-ratio", "least alone ratio, IPC or EB", lambda r: min(r.fig5.ipc_ar + r.fig5.eb_ar),
         "≥", 1),
        ("ipc-ar", "gmean IPC alone ratio", lambda r: r.fig5.mean_ipc_ar, "≥", 1, "", "{:.2f}"),
        ("eb-ar", "gmean EB alone ratio", lambda r: r.fig5.mean_eb_ar, "≥", 1, "", "{:.2f}"),
        ("eb-of-ipc", "gmean EB alone ratio / IPC alone ratio",
         lambda r: r.fig5.mean_eb_ar / r.fig5.mean_ipc_ar, "<", 1, "≪ 1"),
        ("eb-wins", "share of pairs whose EB bias is the smaller",
         lambda r: r.fig5.eb_wins_fraction, ">", 0.6, "most", "{:.0%}"),
    ], exact={"pairs", "min-ratio", "ipc-ar", "eb-ar"}),
    *_claims("fig6", [
        ("min-consistency", "pattern consistency, lower app",
         lambda r: min(map(r.fig6.pattern_consistency, (0, 1))), "≥", 0.5, "holds", "{:.0%}"),
        ("max-consistency", "pattern consistency, higher app",
         lambda r: max(map(r.fig6.pattern_consistency, (0, 1))), "≥", 0.65, "holds", "{:.0%}"),
        ("survey-missing", "evaluated pairs without a survey row",
         lambda r: len(r.pairs) - len(r.survey.consistency), "=", 0, "", "{}"),
        ("survey-consistency", "mean pattern consistency, evaluated pairs",
         lambda r: r.survey.mean_consistency, ">", 0.6, "every workload", "{:.2f}"),
        ("survey-samples", "mean PBS-WS samples per search, of 64",
         lambda r: r.survey.mean_samples, "<", 35, "a fraction", "{:.1f}"),
    ], exact={"survey-missing"}),
    *_claims("fig7", [
        ("fi-kept", "FI at the PBS-FI pick / at optFI", lambda r: _kept(r, "fi"), "≥", 0.6),
        ("hs-kept", "HS at the PBS-HS pick / at optHS", lambda r: _kept(r, "hs"), "≥", 0.7),
        ("diff-grows", "least rise of the scaled EB difference along an iso curve",
         lambda r: min(s[-1] - s[0] for s in r.fig7.eb_diff.values()), ">", 0, "monotone"),
        ("fi-steps", "lattice steps from the PBS-FI pick to optFI",
         lambda r: _steps(r, r.fig7.pbs_fi_combo, r.fig7.opt_fi_combo), "≤", 2, "close", "{}"),
        ("hs-steps", "lattice steps from the PBS-HS pick to optHS",
         lambda r: _steps(r, r.fig7.pbs_hs_combo, r.fig7.opt_hs_combo), "≤", 1, "close", "{}"),
    ]),
    *_claims("fig8", [
        ("core-bits", "counter bits per core", lambda r: r.fig8.per_core_bits, "=", 64, "64"),
        ("table-bytes", "sampling table bytes", lambda r: r.fig8.sampling_table_bytes, "≤", 160,
         "~160"),
        ("storage-bytes", "storage bytes, whole GPU", lambda r: r.fig8.total_storage_bytes,
         "<", 1024, "negligible"),
        ("relay-bits", "bits relayed per sampling window",
         lambda r: r.fig8.relay_bits_per_window, "<", 256, "~69"),
        ("relay-cycles", "relay latency in cycles", lambda r: r.fig8.relay_latency_cycles,
         "=", 100, "100"),
    ], fmt="{:g}", exact=True),
    *_gmeans("fig9", "ws", [
        ("besttlp", "bestTLP+bestTLP", "=", 1, "1.00"),
        ("maxtlp", "maxTLP+maxTLP", "<", 1, "< 1"),
        ("dyncta", "++DynCTA", ">", 1, "~+7%"),
        ("modbypass", "Mod+Bypass", ">", 1, "above DynCTA"),
        ("pbs-ws", "PBS-WS (online)", ">", 1, "~+21%"),
        ("pbs-offline-ws", "PBS-WS (offline)", ">", 1.08, "≈ online"),
        ("bf-ws", "BF-WS", ">", 1, "within ~1% of optWS"),
        ("opt-ws", "optWS", ">", 1.08, "~+25%"),
    ], [
        ("modbypass", "of", "dyncta", "±", 0.01, "> 1"),
        ("pbs-ws", "over", "dyncta", ">", 1, "> 1"),
        ("pbs-ws", "over", "modbypass", ">", 1, "> 1"),
        ("pbs-ws", "of", "pbs-offline-ws", "<", 1, "≈ 1"),
        ("pbs-offline-ws", "over", "dyncta", ">", 1, "> 1"),
        ("pbs-offline-ws", "over", "modbypass", ">", 1, "> 1"),
        ("pbs-offline-ws", "of", "bf-ws", ">", 0.95, "≈ 1"),
        ("bf-ws", "of", "opt-ws", ">", 0.95, "within ~1%"),
    ]),
    *_gmeans("fig10", "fi", [
        ("besttlp", "bestTLP+bestTLP", "=", 1, "1.00"),
        ("dyncta", "++DynCTA", ">", 1, "~1.0"),
        ("modbypass", "Mod+Bypass", ">", 1, "modest gain"),
        ("pbs-fi", "PBS-FI (online)", ">", 1.2, "~2×"),
        ("pbs-offline-fi", "PBS-FI (offline)", ">", 1, "≈ BF-FI"),
        ("bf-fi", "BF-FI (sampled scaling)", ">", 1, "below optFI"),
        ("opt-fi", "optFI", ">", 1.6, "~2.2–2.5×"),
    ], [
        ("modbypass", "of", "dyncta", "<", 1, "> 1"),
        ("pbs-fi", "over", "dyncta", ">", 1, "> 1"),
        ("pbs-fi", "over", "modbypass", ">", 1, "> 1"),
        ("pbs-fi", "of", "pbs-offline-fi", "<", 1, "> 1 in many workloads"),
        ("pbs-offline-fi", "of", "bf-fi", ">", 0.8, "≈ 1"),
        ("bf-fi", "of", "opt-fi", ">", 0.7, "< 1 (scaling error)"),
    ]),
    *_gmeans("hs", "hs", [
        ("besttlp", "bestTLP+bestTLP", "=", 1, "1.00"),
        ("dyncta", "++DynCTA", ">", 1, ""),
        ("modbypass", "Mod+Bypass", ">", 1, ""),
        ("pbs-hs", "PBS-HS (online)", ">", 1, "above offline"),
        ("pbs-offline-hs", "PBS-HS (offline)", ">", 1, ""),
        ("bf-hs", "BF-HS", ">", 1, ""),
        ("opt-hs", "optHS", ">", 1.15, "large gain"),
    ], [
        ("modbypass", "of", "dyncta", "<", 1, "> 1"),
        ("pbs-hs", "over", "dyncta", ">", 1, "> 1"),
        ("pbs-hs", "over", "pbs-offline-hs", ">", 1, "> 1"),
        ("pbs-hs", "of", "bf-hs", "<", 1, "< 1"),
        ("pbs-offline-hs", "of", "bf-hs", ">", 0.8, "≈ 1"),
        ("bf-hs", "of", "opt-hs", "≥", 0.99, "≈ 1"),
    ]),
    *_claims("fig11", [
        *((f"{m}-changes", f"PBS-{m.upper()}: TLP changes", lambda r, m=m: r.fig11[m].n_changes,
           ">", 10, "search phase", "{}") for m in ("ws", "fi")),
        *((f"{m}-dwell", f"PBS-{m.upper()}: share of the run at its dominant combination",
           lambda r, m=m: r.fig11[m].dominant_dwell_fraction, ">", 0.25, "settled", "{:.0%}")
          for m in ("ws", "fi")),
        ("off-lattice", "TLP levels outside 1–24 in either timeline",
         lambda r: sum(not 1 <= tlp <= 24 for t in r.fig11.values() for _, *c in t.segments
                       for tlp in c), "=", 0, "", "{}"),
        ("settle-steps", "lattice steps between the PBS-WS and PBS-FI dominant combos",
         lambda r: _steps(r, *(t.dominant_combo for t in r.fig11.values())), "=", 0,
         "different combos", "{}"),
    ], exact={"off-lattice"}),
    *_claims("sens", [
        ("three-ws", "BFS_FFT_BLK: PBS-WS / bestTLP, WS",
         lambda r: r.three.ws["pbs-ws"] / r.three.ws["besttlp"], ">", 0.9, "extends to 3"),
        ("three-fi", "BFS_FFT_BLK: PBS-FI / bestTLP, FI",
         lambda r: r.three.fi["pbs-fi"] / r.three.fi["besttlp"], ">", 0.5, "functional"),
        ("three-min-ws", "BFS_FFT_BLK: least WS of any scheme", lambda r: min(r.three.ws.values()),
         ">", 0),
        ("core-split", "BLK_TRD: least PBS-WS / bestTLP WS over three core splits",
         lambda r: min(v["pbs-ws"] / v["besttlp"] for v in r.cores.ws.values()), ">", 0.9, "≈ 1"),
        ("l2", "BLK_TRD: least PBS-WS / bestTLP WS, shared or way-partitioned L2",
         lambda r: min(v["pbs-ws"] / v["besttlp"] for v in r.l2.ws.values()), ">", 0.9, "> 1"),
    ]),
    *_claims("eq", [
        ("eq1-r2", "Eq. 1: least R² of IPC = k·EB, each app of the representative pairs",
         lambda r: min(fit.r2 for *_, fit in r.eq1), "≥", 0.99, "IPC ∝ EB"),
        ("eq1-slope", "Eq. 1: least slope", lambda r: min(fit.slope for *_, fit in r.eq1), ">", 0),
        ("eq5-r2", "Eq. 5: median R² of WS on the alone-scaled EB sum",
         lambda r: median(fit.r2 for _, fit in r.eq5), "≥", 0.99, "WS from EBs"),
        ("eq5-slope", "Eq. 5: median slope", lambda r: median(fit.slope for _, fit in r.eq5),
         "±", 0.1, "≈ 1"),
    ]),
    *_claims("ablation", [
        ("frfcfs-row-hits", "BLK: row-hit rate, FR-FCFS / no row-hit priority",
         _ablation("row_hit_rate", "base", "no-row-hit-priority"), "=", 1, "> 1"),
        ("frfcfs-bw", "BLK: bandwidth, FR-FCFS / no row-hit priority",
         _ablation("bw", "base", "no-row-hit-priority"), "=", 1, "> 1"),
        ("queue-latency", "BLK at TLP 24: memory latency, bounded / unbounded DRAM queue",
         _ablation("avg_mem_latency", "tlp24", "unbounded"), "=", 1, "< 1"),
        ("mshr-bw", "BLK at TLP 24: bandwidth, 4 / 64 L1 MSHRs", _ablation("bw", "mshr4", "tlp24"),
         "<", 1, "MLP ceiling"),
        ("row-hits", "BLK: row-hit rate, 256 B / 2 KB DRAM rows",
         _ablation("row_hit_rate", "rows256", "base"), "<", 1, "locality pays"),
        ("paper-scale", "BLK_TRD on 24 cores: BLK IPC at (12, 2) / at (12, 12)",
         lambda r: r.scale[12, 2].samples[0].ipc / r.scale[12, 12].samples[0].ipc, ">", 1),
        ("paper-scale-dram", "BLK_TRD on 24 cores at (12, 12): DRAM utilization",
         lambda r: r.scale[12, 12].dram_utilization, ">", 0, "", "{:.2f}"),
        ("paper-scale-dram-max", "BLK_TRD on 24 cores at (12, 12): DRAM utilization",
         lambda r: r.scale[12, 12].dram_utilization, "≤", 1, "", "{:.2f}"),
        ("paper-scale-cores", "cores the run uses", lambda r: r.scale["cores"], "=", 24, "", "{}"),
    ], exact={"frfcfs-row-hits", "frfcfs-bw", "queue-latency", "paper-scale-dram-max",
              "paper-scale-cores"}),
    *_claims("sampling", [
        ("rows", "sample periods swept", lambda r: len(r.sampling.rows), "=", 4, "", "{}"),
        ("spread", "BLK_TRD PBS-WS: max / min WS over 1k–6k-cycle periods",
         lambda r: r.sampling.flat_region_spread, "≤", 1.1, "no significant change"),
        ("settled", "periods whose search settled on the lattice",
         lambda r: sum(c is not None and set(c) <= set(r.ctx.config.tlp_levels)
                       for _, c, _ in r.sampling.rows.values()), "=", 4, "", "{}"),
    ], exact={"rows"}),
    *_claims("robustness", [
        ("opt-over-base", "least optWS / bestTLP WS gmean over seeds 1–3",
         lambda r: min(g["opt-ws"] / g["besttlp"] for g in r.robustness.gmeans.values()), "≥", 1),
        ("bf-of-opt", "least BF-WS / optWS WS gmean over seeds 1–3",
         lambda r: min(g["bf-ws"] / g["opt-ws"] for g in r.robustness.gmeans.values()), "≥", 0.9),
        *((f"{s}-mean", f"{s} WS gmean, mean over seeds 1–3",
           lambda r, s=s: r.robustness.spread(s)[0], ">", 1)
          for s in ("pbs-offline-ws", "bf-ws", "opt-ws")),
        ("pbs-offline-ws-std", "pbs-offline-ws WS gmean, std over seeds 1–3",
         lambda r: r.robustness.spread("pbs-offline-ws")[1], "<", 0.2),
    ], exact={"opt-over-base"}),
    *_claims("ccws", [
        ("of-dyncta", "CCWS / DynCTA, WS gmean",
         lambda r: r.ccws.gmean("ccws") / r.ccws.gmean("dyncta"), "±", 0.25, "local heuristic"),
        ("pbs-headroom", "PBS-WS offline / the better of CCWS and DynCTA, WS gmean",
         lambda r: r.ccws.gmean("pbs-offline-ws") / max(map(r.ccws.gmean, ("ccws", "dyncta"))),
         "≥", 0.95, "PBS ahead"),
    ]),
    *_claims("latency", [
        ("ordered", "largest P50 − P95 or P95 − P99 in cycles, any app and combo",
         lambda r: max(max(s["p50"] - s["p95"], s["p95"] - s["p99"]) for s in _latencies(r)),
         "≤", 0, "", "{:.1f}"),
        ("samples", "fewest latency samples of any app and combo",
         lambda r: min(s["count"] for s in _latencies(r)), ">", 0, "", "{}"),
        ("queue-depth", "JPEG_TRD: larger mean DRAM queue depth of the two combos",
         lambda r: max(r.latency.queue_depth.values()), "=", 0, "optWS drains queues", "{:.1f}"),
        ("p99-gain", "JPEG_TRD: P99 at bestTLP / at optWS, the less helped app", _p99_gain,
         "≥", 2, "tail compressed", "{:.2f}"),
    ], exact={"ordered", "queue-depth"}),
    *_claims("split", [
        ("equal", "equal core splits among the candidates",
         lambda r: sum(s[0] == s[1] for s in r.split.candidates), "≥", 1, "", "{}"),
        ("gain", "BLK_TRD: joint pick's WS / the equal split's PBS WS",
         lambda r: r.split.value / next(v for s, (_, v) in r.split.candidates.items()
                                        if s[0] == s[1]), "≥", 1),
        ("cores", "cores the chosen split uses / cores of the GPU",
         lambda r: sum(r.split.split) / r.ctx.config.n_cores, "≤", 1),
        ("off-lattice", "levels of the chosen combination off the lattice",
         lambda r: sum(lv not in r.ctx.config.tlp_levels for lv in r.split.combo), "=", 0, "",
         "{}"),
    ], exact=True),
)

# --- runner ------------------------------------------------------------------


def _ablations(r: Run) -> dict[str, SimResult]:
    """BLK alone on half the cores, streaming at TLP 16 or 24, under
    one substrate change each."""
    config, lengths = r.ctx.config, r.ctx.lengths

    def streaming(cfg: GPUConfig, tlp: int) -> SimResult:
        sim = Simulator(cfg, [app_by_abbr("BLK")], core_split=(cfg.n_cores // 2,),
                        seed=r.ctx.seed)
        return sim.run(lengths.eval_cycles, warmup=lengths.eval_warmup, initial_tlp={0: tlp})

    return {
        "base": streaming(config, 16),
        "no-row-hit-priority": streaming(config.with_(frfcfs_cap=0), 16),
        "rows256": streaming(config.with_(row_bytes=256), 16),
        "tlp24": streaming(config, 24),
        "unbounded": streaming(config.with_(dram_queue_depth=100_000), 24),
        "mshr4": streaming(config.with_(l1=dataclasses.replace(config.l1, mshr_entries=4)), 24),
    }


def _paper_scale(r: Run) -> dict[Any, Any]:
    """BLK_TRD on the Table I GPU, BLK at TLP 12 and TRD at 12 or 2."""
    config, apps, lengths = paper_config(), [app_by_abbr("BLK"), app_by_abbr("TRD")], r.ctx.lengths
    out: dict[Any, Any] = {}
    for combo in ((12, 12), (12, 2)):
        sim = Simulator(config, apps, seed=r.ctx.seed)
        out["cores"] = len({core.core_id for core in sim.cores})
        out[combo] = sim.run(lengths.eval_cycles, warmup=lengths.eval_warmup,
                             initial_tlp=dict(enumerate(combo)))
    return out


#: Every driver a claim or report reads, by the :class:`Run` key of its output.
_DRIVERS: dict[str, Callable[[Run], Any]] = {
    "fig1": lambda r: run_fig1(r.ctx),
    "fig2": lambda r: run_fig2(r.ctx),
    "fig2_others": lambda r: {a: run_fig2(r.ctx, abbr=a) for a in ("JPEG", "BLK", "TRD", "LPS")},
    "fig3": lambda r: run_fig3(r.ctx),
    "fig3_blk": lambda r: run_fig3(r.ctx, abbr="BLK"),
    "table4": lambda r: run_table4(r.ctx),
    "fig4": lambda r: run_fig4(r.ctx, r.representative),
    "obs2": lambda r: run_observation2(r.ctx, r.representative),
    "fig5": lambda r: run_fig5(r.ctx),
    "fig6": lambda r: run_fig6(r.ctx),
    "survey": lambda r: run_pattern_survey(r.ctx, r.pairs),
    "fig7": lambda r: run_fig7(r.ctx),
    "fig8": lambda r: run_fig8(paper_config()),
    **{name: lambda r, m=metric, s=schemes: run_comparison(r.ctx, m, s, r.pairs, r.representative)
       for name, metric, schemes in (("fig9", "ws", ("maxtlp", *WS_SCHEMES)),
                                     ("fig10", "fi", FI_SCHEMES), ("hs", "hs", HS_SCHEMES))},
    "fig11": lambda r: {m: run_fig11(r.ctx, ("BLK", "BFS"), f"pbs-{m}") for m in ("ws", "fi")},
    "three": lambda r: run_three_apps(r.ctx),
    "cores": lambda r: run_core_split(r.ctx),
    "l2": lambda r: run_l2_partition(r.ctx),
    "eq1": lambda r: [("_".join(p), p[a], validate_eq1(r.ctx.surface(r.ctx.pair_apps(*p)), a))
                      for p in r.representative for a in (0, 1)],
    "eq5": lambda r: [("_".join(p), validate_eq5(r.ctx.surface(apps), r.ctx.alone_for(apps)))
                      for p in r.representative for apps in [r.ctx.pair_apps(*p)]],
    "ablation": _ablations,
    "scale": _paper_scale,
    "sampling": lambda r: run_sampling_sweep(r.ctx),
    "robustness": lambda r: run_robustness(r.ctx),
    "ccws": lambda r: run_comparison(r.ctx, "ws", ("besttlp", "ccws", "dyncta", "pbs-offline-ws"),
                                     (("BLK", "TRD"), ("BFS", "FFT"), ("JPEG", "LIB")), ()),
    "latency": lambda r: run_latency_study(r.ctx),
    "split": lambda r: joint_split_search(r.ctx.config, r.ctx.pair_apps("BLK", "TRD"),
                                          lengths=r.ctx.lengths, seed=r.ctx.seed),
}


class Run:
    """The measurements at the context's seed.

    Building it fills the store with every scheme on every pair: one
    :meth:`~ExperimentContext.schemes_for` call, whose tables the
    pair-by-pair claims read.  ``run.fig9`` is then that driver's
    output, computed on first use.  A driver that raises is
    remembered: each claim it feeds fails with its error.
    """

    def __init__(self, ctx: ExperimentContext, pairs: Sequence[tuple[str, str]],
                 representative: Sequence[tuple[str, str]]) -> None:
        self.ctx, self.pairs, self.representative = ctx, pairs, representative
        self.tables = ctx.schemes_for([ctx.pair_apps(*p) for p in pairs], ALL_SCHEMES)
        self._memo: dict[str, Any] = {}

    def __getattr__(self, name: str) -> Any:
        if name not in _DRIVERS:
            raise AttributeError(name)
        if name not in self._memo:
            try:
                self._memo[name] = _DRIVERS[name](self)
            except Exception as exc:  # a driver's failure fails its claims
                self._memo[name] = exc
        if isinstance(self._memo[name], Exception):
            raise self._memo[name]
        return self._memo[name]

    def outputs(self) -> dict[str, Any]:
        """The output of every driver that ran and did not raise."""
        return {k: v for k, v in self._memo.items() if not isinstance(v, Exception)}


@dataclass
class Evaluation:
    """Every claim's value, and the verdicts."""

    claims: tuple[Claim, ...]
    quick: bool
    run: Run
    #: claim id -> the value, or the exception measuring it raised
    values: dict[str, Any]

    def gated(self, claim: Claim) -> bool:
        return claim.exact or not self.quick

    def errored(self, claim: Claim) -> bool:
        return isinstance(self.values[claim.id], Exception)

    def holds(self, claim: Claim) -> bool:
        return not self.errored(claim) and claim.holds(self.values[claim.id])

    @property
    def failures(self) -> list[Claim]:
        """Gated claims that do not hold, and every claim that could not
        be measured (in either tier: a crashing driver fails the gate)."""
        return [c for c in self.claims
                if self.errored(c) or self.gated(c) and not self.holds(c)]

    def measured(self, claim: Claim) -> str:
        """The value, or the error."""
        value = self.values[claim.id]
        if isinstance(value, Exception):
            return f"error: {type(value).__name__}: {value}"
        return claim.fmt.format(value)


def run_eval(
    ctx: ExperimentContext,
    *,
    quick: bool,
    pairs: Sequence[tuple[str, str]] = EVALUATED_PAIRS,
    representative: Sequence[tuple[str, str]] = REPRESENTATIVE_PAIRS,
    claims: Sequence[Claim] = CLAIMS,
) -> Evaluation:
    """Measure every claim at the context's seed."""
    run = Run(ctx, pairs, representative)
    values: dict[str, Any] = {}
    for claim in claims:
        try:
            values[claim.id] = claim.measure(run)
        except Exception as exc:  # reported, and fails the claim
            values[claim.id] = exc
    return Evaluation(tuple(claims), quick, run, values)


# --- report ------------------------------------------------------------------


def render_report(evaluation: Evaluation) -> str:
    """The claims table, then a line per failed gated claim."""
    def status(c: Claim) -> str:
        if evaluation.errored(c):
            return "ERROR"
        verdict = "pass" if evaluation.holds(c) else "FAIL"
        return verdict if evaluation.gated(c) else f"({verdict.lower()})"

    claims, failures = evaluation.claims, evaluation.failures
    tier = "quick tier: parenthesized claims are not gated" if evaluation.quick else "full tier"
    lines = [render_table(
        ("claim", "paper", "measured", "bound", "status"),
        [(c.id, c.paper, evaluation.measured(c), c.bound_text, status(c)) for c in claims],
        title=f"repro eval, seed {evaluation.run.ctx.seed} ({tier})",
    )]
    lines += [f"FAIL {c.id}: {c.text}: measured {evaluation.measured(c)}, bound {c.bound_text}"
              for c in failures]
    lines.append(f"{len(claims)} claims, {len(failures)} fail the gate")
    return "\n".join(lines)


def render_blocks(evaluation: Evaluation) -> dict[str, str]:
    """EXPERIMENTS.md's table of each section's claims: nothing in them
    depends on the host or the clock, so the same results give the same
    bytes."""
    blocks: dict[str, list[str]] = {}
    for c in evaluation.claims:
        blocks.setdefault(c.section, [
            "| claim | statement | paper | measured | bound | holds |", "|---|---|---|---|---|---|",
        ]).append(f"| `{c.id}` | {c.text} | {c.paper} | {evaluation.measured(c)} | "
                  f"{c.bound_text} | {'yes' if evaluation.holds(c) else 'no'} |")
    return {section: "\n".join(rows) for section, rows in blocks.items()}


_BLOCK = re.compile(r"(<!-- eval:([\w-]+) -->\n).*?(<!-- /eval -->)", re.S)


def update_doc(text: str, blocks: dict[str, str]) -> str:
    """``text`` with each marked block replaced by its section's table.

    Every section needs exactly one block and every block a section, so
    no claim goes untabulated and no table outlives its claims.
    """
    found = sorted(m.group(2) for m in _BLOCK.finditer(text))
    if found != sorted(blocks):
        raise ValueError(f"EXPERIMENTS.md blocks {found} do not match the claim sections "
                         f"{sorted(blocks)}")
    return _BLOCK.sub(lambda m: f"{m.group(1)}{blocks[m.group(2)]}\n{m.group(3)}", text)


def write_reports(run: Run, out_dir: Path | None = None) -> list[str]:
    """Write the rendering of every driver output of ``run`` that renders
    (a figure, or a dict of them) to ``<out_dir>/<driver>.txt``, by
    default under ``results/reports/``; returns the drivers written."""
    (out_dir or REPORTS_DIR).mkdir(parents=True, exist_ok=True)
    written = []
    for name, out in run.outputs().items():
        parts = list(out.values()) if isinstance(out, dict) else [out]
        if all(hasattr(part, "render") for part in parts):
            text = "\n\n".join(part.render() for part in parts)
            atomic_write_text((out_dir or REPORTS_DIR) / f"{name}.txt", text + "\n")
            written.append(name)
    return written


# --- gate --------------------------------------------------------------------


def main(ctx: ExperimentContext, *, quick: bool) -> int:
    """Run a tier, print its report and return the exit code: 1 if any
    claim fails the gate, else 0.

    The outputs are written only for the campaign EXPERIMENTS.md
    tabulates, the full tier on ``medium_config()`` at seed 1; any other
    run leaves them as they are and says so.
    """
    pairs = QUICK_PAIRS if quick else EVALUATED_PAIRS
    evaluation = run_eval(ctx, quick=quick, pairs=pairs,
                          representative=QUICK_PAIRS if quick else REPRESENTATIVE_PAIRS)
    print(render_report(evaluation))
    errors = {id(v): v for v in evaluation.values.values() if isinstance(v, Exception)}
    for exc in errors.values():  # each failed driver's traceback, once
        traceback.print_exception(exc)
    if (quick, ctx.config, ctx.lengths, ctx.seed) == (False, medium_config(), RunLengths(), 1):
        write_reports(evaluation.run)
        if DOC_PATH.exists():
            atomic_write_text(DOC_PATH, update_doc(DOC_PATH.read_text(),
                                                   render_blocks(evaluation)))
    else:
        print("EXPERIMENTS.md and results/reports/ not written: they hold the full tier "
              "on the medium config at seed 1", file=sys.stderr)
    return 1 if evaluation.failures else 0
