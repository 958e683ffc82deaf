"""Atomic file publication and JSONL parsing for observability artifacts.

:func:`atomic_write_text` is the canonical implementation behind lint
rule R006's sanctioned write path: it historically lived in
:mod:`repro.experiments.common`, which still re-exports it, but the
implementation sits here so the observability layer (a leaf package
that ``repro.sim`` / ``repro.core`` / ``repro.exec`` may all import)
never depends upward on the experiment harness.
"""

from __future__ import annotations

import json
import os
import uuid
from pathlib import Path

__all__ = ["JsonlAppender", "atomic_write_text", "read_jsonl"]


def atomic_write_text(path: Path, text: str) -> None:
    """Atomically publish ``text`` at ``path``.

    The one sanctioned way to write a file under ``results/`` (lint rule
    R006): the text streams into a uniquely named temp file in the same
    directory (pid + random suffix, so concurrent writers never collide)
    and is published with an atomic ``os.replace``.  Readers see either
    a complete old version or a complete new one, never a torn file.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{uuid.uuid4().hex}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


class JsonlAppender:
    """A single-writer, line-at-a-time JSONL sink.

    A streaming sink (the live NDJSON telemetry feed) cannot use
    :func:`atomic_write_text` — its value is that a reader can tail the
    file *while* it grows.  The safety story is different but equally
    deliberate: exactly one process (and in it, one thread) owns the
    handle, every record is written as one ``write()`` of a complete
    line and flushed, so a concurrent reader observes only whole lines
    (plus at most one partial trailing line, which tail-followers must
    re-read — :func:`iter_complete_lines`-style consumers in
    :mod:`repro.obs.dashboard` do).

    This class lives here, next to :func:`atomic_write_text`, so the
    lint rules' write-ownership story stays in one sanctioned module.
    """

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("a", encoding="utf-8")

    def append(self, record: dict) -> None:
        """Write one record as a complete, flushed JSON line."""
        self._fh.write(json.dumps(record) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "JsonlAppender":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def read_jsonl(path: Path) -> list[dict]:
    """Parse a JSONL file into a list of objects (blank lines skipped)."""
    records: list[dict] = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: invalid JSONL: {exc}") from exc
    return records
