"""Where a benchmark result came from: code revision, interpreter, host."""

from __future__ import annotations

import hashlib
import os
import platform
from pathlib import Path


def git_revision(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git.

    A checkout without ``.git`` (an exported tree) has no revision, so
    :func:`source_digest` identifies the code there.
    """
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "none"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref[:12]
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()[:12]
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0][:12]
    return "unknown"


def source_digest(root: Path) -> str:
    """SHA-256 over the paths and bytes of every file under ``src/``."""
    digest = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(src)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def provenance(root: Path, seed: int, pool: int) -> dict:
    return {
        "git": git_revision(root),
        "src_sha256": source_digest(root),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "pool": pool,
    }
