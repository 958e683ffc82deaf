"""Picklable simulation job specifications and their worker.

A :class:`SimJob` captures everything one simulation run needs —
configuration, applications, the TLP combination, run lengths, seed and
core split — as a frozen, picklable value.  :func:`run_sim_job` is the
module-level worker handed to :func:`repro.exec.pool.run_jobs`: it
builds a fresh :class:`~repro.sim.engine.Simulator` in the worker
process and returns the :class:`~repro.sim.engine.SimResult`.

Only *uncontrolled* (fixed-TLP) runs are expressed as ``SimJob``s:
profiling sweeps are thousands of short fixed-combination runs.  A
scheme's run is a :class:`repro.core.runner.SchemeJob`, which names its
controller; :meth:`repro.experiments.common.ExperimentContext.schemes_for`
puts both kinds in one batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.config import GPUConfig
from repro.sim.engine import SimResult, Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.workloads.synthetic import AppProfile

__all__ = ["SimJob", "run_sim_job"]


@dataclass(frozen=True)
class SimJob:
    """One fixed-TLP simulation run, fully specified and picklable."""

    config: GPUConfig
    apps: "tuple[AppProfile, ...]"
    combo: tuple[int, ...]
    cycles: int
    warmup: int
    seed: int | None = None
    core_split: tuple[int, ...] | None = None
    #: opaque label echoed by progress callbacks and job errors, e.g.
    #: ``("surface", "BLK_TRD", (8, 4))``
    tag: tuple | None = None

    def __repr__(self) -> str:  # keep JobError messages readable
        label = self.tag if self.tag is not None else self.combo
        apps = "+".join(a.abbr for a in self.apps)
        return (
            f"SimJob({label!r}, apps={apps}, combo={self.combo}, "
            f"cycles={self.cycles}, warmup={self.warmup}, seed={self.seed})"
        )


def run_sim_job(job: SimJob) -> SimResult:
    """Execute one :class:`SimJob` (the process-pool worker function)."""
    sim = Simulator(
        job.config,
        list(job.apps),
        core_split=job.core_split,
        seed=job.seed,
    )
    initial = {a: job.combo[a] for a in range(len(job.apps))}
    return sim.run(job.cycles, warmup=job.warmup, initial_tlp=initial)
