"""Unit and clock-domain annotation vocabulary for the quantity algebra.

The paper's arithmetic lives in a handful of physical dimensions — sim
cycles, DRAM lines, bytes, instructions, host wall-clock time — and the
headline quantities are ratios of them: IPC (inst/cycle), attained
bandwidth as a *fraction of peak* (dimensionless), CMR (dimensionless),
EB = BW/CMR.  A single mixed-unit expression (cycles added to wall
seconds, a fraction-of-peak compared against absolute lines-per-cycle)
silently corrupts fidelity in a way no golden fixture pinpoints.

These aliases are ``typing.Annotated`` wrappers: at runtime they are
*exactly* ``float``/``int`` (zero cost — every annotated module also has
``from __future__ import annotations``, so the annotations are never
even evaluated), but the static checker in
:mod:`repro.devtools.semantic.units` recognizes them by name and
propagates them flow-sensitively through the tree.  Rules R012
(unit-confusion) and R013 (clock-domain separation) consume the result;
see ``docs/devtools.md`` for the annotation guide.

Compound units are derived, not declared: ``Lines / Cycles`` is
lines-per-cycle, ``Lines * BytesPerLine`` is bytes, ``Insts / Cycles``
is IPC.  Add a new base dimension here *and* in the checker's
``_BASE_DIMS`` table; add compound aliases freely (they are recognized
by their dimension formula).
"""

from __future__ import annotations

from typing import Annotated

__all__ = [
    "Bytes",
    "BytesPerCycle",
    "BytesPerLine",
    "Count",
    "Cycles",
    "Fraction",
    "FractionOfPeak",
    "Insts",
    "InstsPerCycle",
    "Ipc",
    "Lines",
    "LinesPerCycle",
    "TraceTicks",
    "WallMicroseconds",
    "WallSeconds",
    "WholeCycles",
]

# --- clock domains ----------------------------------------------------------

#: Simulated time, in cycles of the (single) simulator clock domain.
Cycles = Annotated[float, "unit:cycle"]

#: Same dimension as :data:`Cycles` for integer-valued quantities
#: (cycle budgets, warmup boundaries).
WholeCycles = Annotated[int, "unit:cycle"]

#: Host wall-clock time in seconds (``time.perf_counter`` deltas).
WallSeconds = Annotated[float, "unit:wall"]

#: Host wall-clock time in microseconds (the Chrome export's scale).
#: Scale is *not* tracked — the checker treats seconds and microseconds
#: as the same wall dimension; the distinction documents intent.
WallMicroseconds = Annotated[float, "unit:wall"]

#: A trace event timestamp whose clock is named by ``Event.clock`` —
#: wall microseconds *or* sim cycles depending on the event.  Its own
#: dimension: mixing raw ticks with either clock is flagged until the
#: event's clock has been inspected.
TraceTicks = Annotated[float, "unit:tick"]

# --- counts ------------------------------------------------------------------

#: Bytes (sizes and byte addresses).
Bytes = Annotated[int, "unit:byte"]

#: Cache/DRAM lines (line counts and line addresses).
Lines = Annotated[int, "unit:line"]

#: Executed instructions.
Insts = Annotated[int, "unit:inst"]

#: A dimensionless integer count (banks, sets, apps, events).
Count = Annotated[int, "unit:1"]

#: A dimensionless float ratio (miss rates, utilizations, CMR).
Fraction = Annotated[float, "unit:1"]

#: Attained DRAM bandwidth normalized to the theoretical peak
#: (Table III of the paper) — dimensionless, but *tagged*: deriving it
#: requires dividing by the peak, and comparing it against an absolute
#: rate (lines/cycle) is exactly the R012 confusion this alias exists
#: to catch.  EB (= BW/CMR) carries the same tag.
FractionOfPeak = Annotated[float, "unit:frac-of-peak"]

# --- compound rates ----------------------------------------------------------

#: Instructions per cycle.
Ipc = Annotated[float, "unit:inst/cycle"]

#: Alias of :data:`Ipc` for issue-width-like capacities.
InstsPerCycle = Annotated[float, "unit:inst/cycle"]

#: Absolute bandwidth: DRAM lines per cycle (the peak in Table III).
LinesPerCycle = Annotated[float, "unit:line/cycle"]

#: Line size: bytes per cache line.
BytesPerLine = Annotated[int, "unit:byte/line"]

#: Absolute bandwidth in bytes per cycle.
BytesPerCycle = Annotated[float, "unit:byte/cycle"]
