"""repro.exec — parallel execution of simulation sweeps.

The profiling workload of this reproduction (TLP surfaces, alone sweeps,
batch scheme comparisons) is embarrassingly parallel; this subsystem
fans it out over a process pool while keeping results deterministic and
ordered.  See :mod:`repro.exec.pool` for the runner and
:mod:`repro.exec.jobs` for the picklable job specs.
"""

from repro.exec.jobs import SimJob, run_sim_job
from repro.exec.pool import (
    JOBS_ENV_VAR,
    JobError,
    ProgressFn,
    ProgressThrottle,
    resolve_jobs,
    run_jobs,
)

__all__ = [
    "JOBS_ENV_VAR",
    "JobError",
    "ProgressFn",
    "ProgressThrottle",
    "SimJob",
    "resolve_jobs",
    "run_jobs",
    "run_sim_job",
]
