"""Whole-program semantic analysis for the repro tree.

The per-file AST rules (R002–R008) check invariants a single parse can
see.  This package adds the cross-function layer:

* :mod:`repro.devtools.semantic.summary` — one compact, cacheable
  summary per source file (imports, definitions and a ``<module>`` unit
  with their calls, state mutations, file writes, effect events and
  set-ordered iteration sites) — the one vocabulary every rule below
  reads;
* :mod:`repro.devtools.semantic.cache` — a content-hash-keyed store for
  those summaries so ``repro lint`` re-analyzes only edited files;
* :mod:`repro.devtools.semantic.graph` — the project import/call graph
  built from the summaries (JSON-dumpable via ``repro lint --graph``);
* :mod:`repro.devtools.semantic.effects` — **R001** (direct ambient
  entropy and set-order sites) and **R014**–**R016**, the effect
  inference propagated over the call graph;
* :mod:`repro.devtools.semantic.lifecycle` — **R009**, the pooled-object
  lifecycle verifier over ``Simulator._dispatch`` and its helpers, plus
  the extracted stage-transition graph;
* :mod:`repro.devtools.semantic.races` — **R010**, the cross-process
  race detector for ``repro.exec`` pool workers, a view of the effect
  engine's direct state-mutation and file-write sites;
* :mod:`repro.devtools.semantic.typedcore` — **R011**, typed-core
  enforcement of the ``repro.sim`` / ``repro.exec`` public surfaces;
* :mod:`repro.devtools.semantic.units` and
  :mod:`repro.devtools.semantic.clockdomains` — **R012**/**R013**, unit
  and clock-domain inference;
* :mod:`repro.devtools.semantic.typegate` — the (optional) mypy
  baseline ratchet behind ``repro lint --types``.

See ``docs/devtools.md`` for the catalog entries and the architecture
notes.
"""

from repro.devtools.semantic.cache import AnalysisCache
from repro.devtools.semantic.graph import ProjectGraph, build_graph
from repro.devtools.semantic.summary import FileSummary, summarize_file

__all__ = [
    "AnalysisCache",
    "FileSummary",
    "ProjectGraph",
    "build_graph",
    "summarize_file",
]
