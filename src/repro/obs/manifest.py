"""Run manifests: what exactly produced a trace.

A manifest is written next to every trace so a run is replayable and
attributable months later: the exact command, config fingerprint, seed,
model digest (the result store's model version), git revision,
interpreter, and per-phase wall timings.  ``repro trace summarize`` leads with it, and CI asserts its
completeness on every traced smoke run.
"""

from __future__ import annotations

import hashlib
import json
import platform
import subprocess
import sys
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from repro.obs.io import atomic_write_text

__all__ = [
    "MANIFEST_FILENAME",
    "MANIFEST_SCHEMA",
    "REQUIRED_FIELDS",
    "RunManifest",
    "config_fingerprint",
    "git_revision",
    "validate_manifest",
]

MANIFEST_SCHEMA = "repro.obs.manifest"
MANIFEST_FILENAME = "manifest.json"

#: Every key a complete manifest must carry (values may be null where
#: noted in :class:`RunManifest`, but the key must exist).
REQUIRED_FIELDS = (
    "schema",
    "version",
    "run_id",
    "command",
    "argv",
    "config",
    "config_fingerprint",
    "seed",
    "quick",
    "n_jobs",
    "model_digest",
    "git_rev",
    "python",
    "platform",
    "started_at",
    "finished_at",
    "duration_s",
    "phases",
    "metrics",
    "files",
)


def config_fingerprint(config_dict: dict) -> str:
    """Stable 16-hex fingerprint of a config's ``dataclasses.asdict``."""
    blob = json.dumps(config_dict, sort_keys=True, default=repr).encode()
    return hashlib.md5(blob).hexdigest()[:16]


def git_revision(cwd: Path | None = None) -> str | None:
    """The checked-out git revision, or ``None`` outside a work tree."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    rev = proc.stdout.strip()
    return rev if proc.returncode == 0 and rev else None


@dataclass
class RunManifest:
    """The provenance record of one traced run."""

    run_id: str
    command: str
    argv: list[str]
    config: str  # preset name ("medium", ...) or a caller-chosen label
    config_fingerprint: str
    seed: int
    quick: bool
    n_jobs: int | None
    model_digest: str  # the result store's model version
    git_rev: str | None = None
    python: str = ""
    platform: str = ""
    started_at: str = ""
    finished_at: str = ""
    duration_s: float = 0.0
    phases: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    files: list[str] = field(default_factory=list)
    schema: str = MANIFEST_SCHEMA
    version: int = 1

    @classmethod
    def start(
        cls,
        run_id: str,
        command: str,
        argv: list[str],
        config_name: str,
        config_dict: dict,
        seed: int,
        quick: bool,
        n_jobs: int | None,
        model_digest: str,
        repo_root: Path | None = None,
    ) -> "RunManifest":
        """Collect the environment-side fields at run start."""
        return cls(
            run_id=run_id,
            command=command,
            argv=list(argv),
            config=config_name,
            config_fingerprint=config_fingerprint(config_dict),
            seed=seed,
            quick=quick,
            n_jobs=n_jobs,
            model_digest=model_digest,
            git_rev=git_revision(repo_root),
            python=sys.version.split()[0],
            platform=platform.platform(),
            started_at=datetime.now(timezone.utc).isoformat(),
        )

    def finish(self, phases: dict, metrics: dict, files: list[str]) -> None:
        """Stamp the completion-side fields."""
        self.finished_at = datetime.now(timezone.utc).isoformat()
        started = datetime.fromisoformat(self.started_at)
        finished = datetime.fromisoformat(self.finished_at)
        self.duration_s = (finished - started).total_seconds()
        self.phases = phases
        self.metrics = metrics
        self.files = list(files)

    def to_dict(self) -> dict:
        return asdict(self)

    def write(self, directory: Path) -> Path:
        """Atomically publish ``manifest.json`` under ``directory``."""
        path = Path(directory) / MANIFEST_FILENAME
        atomic_write_text(path, json.dumps(self.to_dict(), indent=2) + "\n")
        return path


def validate_manifest(data: dict) -> list[str]:
    """Missing/invalid field names of a manifest dict ([] = complete)."""
    problems = [key for key in REQUIRED_FIELDS if key not in data]
    if data.get("schema") not in (None, MANIFEST_SCHEMA):
        problems.append("schema")
    for key in ("started_at", "finished_at"):
        value = data.get(key)
        if isinstance(value, str) and value:
            try:
                datetime.fromisoformat(value)
            except ValueError:
                problems.append(key)
    return problems
