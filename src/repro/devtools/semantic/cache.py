"""The lint cache: per-file summaries, and the results of the analyses
that read parse trees.

Every rule reads the summaries (see
:mod:`repro.devtools.semantic.summary`), so they are the main thing
cached, keyed by module name (path, outside the module roots) and the
SHA-256 of the source text (:func:`summary_key`): a lint of a branch
that touched two files re-summarizes two files, and two modules with
the same text keep one entry each.  Beside them, each analysis that
reads trees (R009, the units pass) keeps one *result* record under the
digest of exactly the inputs it read (:func:`inputs_digest`), so a pass
whose inputs are unchanged replays it without parsing.  The cache is a
single JSON document — small enough that read-modify-write beats a
file-per-entry scheme, and trivially safe to delete at any time.

The store lives under ``<root>/.lint-cache/`` (git-ignored), never under
``results/`` — the results tree is reserved for simulation products and
guarded by the R006 atomic-write rule.  Writes still go through a
temp-file + :func:`os.replace` so a crashed lint run cannot leave a
truncated cache behind.

Editing a source file invalidates its summary (by digest), and editing
an *analysis* — the summary extractor, any rule, or anything else under
``repro/devtools/`` — invalidates the whole store via the fingerprint
of :func:`repro.devtools.semantic.graph.analysis_versions`, a digest of
the devtools sources and the Python minor version.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections.abc import Iterable, Sequence
from pathlib import Path
from typing import Any

__all__ = [
    "AnalysisCache",
    "content_digest",
    "inputs_digest",
    "summary_key",
    "CACHE_VERSION",
]

#: Version of the document layout; a cache of another version is
#: discarded wholesale rather than risking a mixed-schema read.
CACHE_VERSION = 4

#: ``json.dumps(obj, separators=(",", ":"))``, through the C encoder.
_encode = json.JSONEncoder(separators=(",", ":")).encode


def content_digest(source: str) -> str:
    """SHA-256 of the file's source text (the cache key)."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def summary_key(module: str, digest: str) -> str:
    """Key of ``module``'s summary at content ``digest``."""
    return f"{module}:{digest}"


def inputs_digest(parts: Iterable[str]) -> str:
    """SHA-256 over ``parts`` in order: the key of a result record."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8") + b"\0")
    return digest.hexdigest()


class AnalysisCache:
    """A content-addressed store of per-file summaries and analysis
    results.

    ``get``/``put`` operate on summary keys (and alone count hits and
    misses); ``result``/``put_result`` on one record of rows per
    analysis; :meth:`save` persists atomically.  A missing, unreadable,
    corrupt, or version-mismatched cache file degrades to an empty
    cache, and a malformed entry or record to a miss — the analysis is
    then merely slower, never wrong.
    """

    def __init__(
        self,
        path: Path | None,
        versions: dict[str, Any] | None = None,
    ) -> None:
        #: ``None`` disables persistence (used by unit tests and
        #: ``--no-semantic-cache``); lookups then always miss.
        self.path = path
        #: The analysis fingerprint; a stored cache written under a
        #: different one is discarded wholesale.
        self.versions = dict(versions) if versions else {}
        self.hits = 0
        self.misses = 0
        self._entries: dict[str, Any] = {}
        #: analysis name -> {"inputs": digest, "value": [row, ...]}
        self._results: dict[str, Any] = {}
        self._dirty = False
        if path is not None and path.is_file():
            try:
                doc = json.loads(path.read_text())
            except (OSError, ValueError):
                doc = None
            if (
                isinstance(doc, dict)
                and doc.get("version") == CACHE_VERSION
                and doc.get("analysis_versions", {}) == self.versions
            ):
                entries = doc.get("entries")
                if isinstance(entries, dict):
                    self._entries = entries
                results = doc.get("results")
                if isinstance(results, dict):
                    self._results = results

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def items(self) -> list[tuple[str, Any]]:
        return list(self._entries.items())

    def get(self, digest: str) -> Any | None:
        entry = self._entries.get(digest)
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def put(self, digest: str, summary: Any) -> None:
        self._entries[digest] = summary
        self._dirty = True

    def result(
        self, name: str, inputs: str, types: tuple[type, ...]
    ) -> list[tuple[Any, ...]] | None:
        """The rows ``name`` stored under ``inputs``, or ``None`` when
        its record was computed from other inputs or holds a row whose
        fields are not exactly of ``types``."""
        record = self._results.get(name)
        if not isinstance(record, dict) or record.get("inputs") != inputs:
            return None
        rows = record.get("value")
        if not isinstance(rows, list):
            return None
        for row in rows:
            if not (
                isinstance(row, list)
                and len(row) == len(types)
                and all(type(v) is t for v, t in zip(row, types))
            ):
                return None
        return [tuple(row) for row in rows]

    def put_result(
        self, name: str, inputs: str, rows: Iterable[Sequence[Any]]
    ) -> None:
        """Store ``name``'s rows, computed from ``inputs``, replacing
        its record."""
        self._results[name] = {
            "inputs": inputs, "value": [list(row) for row in rows]
        }
        self._dirty = True

    def prune(self, live_digests: set[str]) -> None:
        """Drop entries for content no longer present in the tree, so
        the cache tracks the working set instead of growing forever."""
        dead = [d for d in self._entries if d not in live_digests]
        for d in dead:
            del self._entries[d]
            self._dirty = True

    def save(self) -> None:
        """Persist the cache (atomic replace; best-effort on failure).

        A lint pass calls this once, at its end, so the results it
        stored after the summaries cost no second write.  The file is
        ``json.dumps(doc, separators=(",", ":"))`` byte for byte,
        written one entry at a time through the C encoder:
        ``json.dump`` would stream the whole document through the
        pure-Python one, and encoding it in one piece would hold all of
        its text in memory at once.
        """
        if self.path is None or not self._dirty:
            return
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=str(self.path.parent), prefix=self.path.name, suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w") as fh:
                    fh.write(
                        f'{{"version":{_encode(CACHE_VERSION)},'
                        f'"analysis_versions":{_encode(self.versions)},'
                        '"entries":{'
                    )
                    sep = ""
                    for key, entry in self._entries.items():
                        fh.write(f"{sep}{_encode(key)}:{_encode(entry)}")
                        sep = ","
                    fh.write(f'}},"results":{_encode(self._results)}}}')
                os.replace(tmp, self.path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            # A read-only checkout (CI artifact stages) loses caching,
            # not correctness.
            return
        self._dirty = False
