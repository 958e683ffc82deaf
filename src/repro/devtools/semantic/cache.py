"""The lint cache: per-file summaries and file-rule findings.

The cache holds two kinds of entry, both validated by content hash:

* **summaries** (see :mod:`repro.devtools.semantic.summary`), keyed by
  module name and the SHA-256 of the source text (:func:`summary_key`),
  so a CI lint of a branch that touched two files re-summarizes two
  files, and two modules with the same text keep one entry each;
* **per-path records**, one per repo-relative path: the file's content
  digest and, per file-scoped rule, the findings left after ``noqa``
  filtering.  A file whose record matches its digest is neither parsed
  nor re-checked; the linter replays the stored findings.

The cache is a single JSON document — small enough that
read-modify-write beats a file-per-entry scheme, and trivially safe to
delete at any time.

The store lives under ``<root>/.lint-cache/`` (git-ignored), never under
``results/`` — the results tree is reserved for simulation products and
guarded by the R006 atomic-write rule.  Writes still go through a
temp-file + :func:`os.replace` so a crashed lint run cannot leave a
truncated cache behind.

Editing a source file invalidates that file's entries (by digest), and
editing an *analysis* — the summary extractor, any rule, or anything
else under ``repro/devtools/`` — invalidates the whole store via the
``analysis_versions`` fingerprint (per-analysis version ints plus a
digest of the devtools sources and the Python minor version; see
:func:`repro.devtools.semantic.graph.analysis_versions`).  Before this
fingerprint existed, bumping a rule served stale findings until the
source files happened to change.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections.abc import Callable
from pathlib import Path
from typing import Any

__all__ = ["AnalysisCache", "content_digest", "summary_key", "CACHE_VERSION"]

#: Bump when the summary or record schema changes; stale-version caches
#: are discarded wholesale rather than risking a mixed-schema read.
CACHE_VERSION = 2


def content_digest(source: str) -> str:
    """SHA-256 of the file's source text (the cache key)."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def summary_key(module: str, digest: str) -> str:
    """Key of ``module``'s summary at content ``digest``."""
    return f"{module}:{digest}"


class AnalysisCache:
    """A content-addressed store of per-file summaries and findings.

    ``get``/``put`` operate on summary keys, :meth:`rules_for` and
    :meth:`record` on per-path records; :meth:`save` persists
    atomically.  A missing, unreadable, corrupt, or version-mismatched
    cache file degrades to an empty cache, and a malformed entry to a
    miss — the analysis is then merely slower, never wrong.
    """

    def __init__(
        self,
        path: Path | None,
        versions: dict[str, Any] | None = None,
    ) -> None:
        #: ``None`` disables persistence (used by unit tests and
        #: ``--no-semantic-cache``); lookups then always miss.
        self.path = path
        #: Per-analysis version fingerprint; a stored cache written
        #: under a different fingerprint is discarded wholesale.
        self.versions = dict(versions) if versions else {}
        self.hits = 0
        self.misses = 0
        self._entries: dict[str, Any] = {}
        #: repo-relative path -> {"digest": ..., "rules": {id: [finding]}}
        self._files: dict[str, Any] = {}
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
                files = doc.get("files")
                if isinstance(files, dict):
                    self._files = files

    def __len__(self) -> int:
        return len(self._entries)

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

    def prune(self, live_digests: set[str]) -> None:
        """Drop entries for content no longer present in the tree, so
        the cache tracks the working set instead of growing forever."""
        dead = [d for d in self._entries if d not in live_digests]
        for d in dead:
            del self._entries[d]
            self._dirty = True

    def rules_for(self, relpath: str, digest: str) -> dict[str, Any] | None:
        """The per-rule findings recorded for ``relpath`` at content
        ``digest``, or ``None`` when the record is missing, malformed,
        or of other content.  Rule entries are returned unvalidated."""
        record = self._files.get(relpath)
        if (
            isinstance(record, dict)
            and record.get("digest") == digest
            and isinstance(record.get("rules"), dict)
        ):
            return record["rules"]
        return None

    def record(self, relpath: str, digest: str, rules: dict[str, Any]) -> None:
        """Record ``relpath`` at ``digest`` with ``rules`` merged into a
        matching record, or replacing one of other content."""
        stored = self.rules_for(relpath, digest)
        if stored is None:
            self._files[relpath] = {"digest": digest, "rules": dict(rules)}
        else:
            stored.update(rules)
        self._dirty = True

    def prune_records(
        self, digest_now: Callable[[str], str | None]
    ) -> dict[str, str]:
        """Drop every record whose path's current content digest
        (``digest_now(relpath)``, ``None`` once the file is gone)
        differs from the recorded one; returns the kept
        ``relpath -> digest``."""
        kept: dict[str, str] = {}
        for relpath, record in list(self._files.items()):
            digest = record.get("digest") if isinstance(record, dict) else None
            if isinstance(digest, str) and digest_now(relpath) == digest:
                kept[relpath] = digest
            else:
                del self._files[relpath]
                self._dirty = True
        return kept

    def save(self) -> None:
        """Persist the cache (atomic replace; best-effort on failure)."""
        if self.path is None or not self._dirty:
            return
        doc = {
            "version": CACHE_VERSION,
            "analysis_versions": self.versions,
            "entries": self._entries,
            "files": self._files,
        }
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=str(self.path.parent), prefix=self.path.name, suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w") as fh:
                    json.dump(doc, fh, separators=(",", ":"))
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
