"""Developer tooling: the repo's own static-analysis pass.

``repro.devtools`` hosts a lint framework plus fifteen repo-specific
rules that guard the reproduction's headline guarantees.  Every rule
reads one summary per source file (:mod:`repro.devtools.semantic
.summary`), extracted in one walk and cached by content digest.  The
single-file rules live in :mod:`repro.devtools.rules` and filter the
summaries' sites:

* **R002 float-equality** — no ``==``/``!=`` against float expressions
  in library code;
* **R004 layering** — experiments/metrics/scripts use the
  ``repro.sim`` facade, never engine internals; the simulator never
  imports the experiment layer;
* **R005 picklability** — workers and specs handed to the
  ``repro.exec`` pool are module-level and closure-free;
* **R006 atomic-write** — nothing writes under ``results/`` except
  through the atomic-replace helpers;
* **R007 no-print** and **R008 hot-path allocation** in the simulator.

R003 (a hand-pinned cache schema) is retired and its id is not reused:
the result store keys on the golden fixtures' digest instead, so a
changed model or serialized layout moves every key by itself.

The whole-program rules live in :mod:`repro.devtools.semantic`:
**R001 determinism** (no unseeded global RNG, no wall-clock reads or
set-ordered iteration in the simulator), **R009**–**R011** (``MemTxn``
lifecycle, pool-worker races, typed core), **R012**/**R013** (units,
clock domains) and **R014**–**R016** (effect taint, RNG draw order,
fingerprint purity).

Run it with ``python -m repro lint [paths...]`` or
``python scripts/lint.py``; suppress a finding in place with a
``# repro: noqa[R001]`` comment.  See ``docs/devtools.md`` for the rule
catalog and how to add a rule.
"""

from repro.devtools.findings import Finding, Severity
from repro.devtools.linter import lint_paths, main
from repro.devtools.registry import LintRule, all_rules, register

__all__ = [
    "Finding",
    "Severity",
    "LintRule",
    "all_rules",
    "register",
    "lint_paths",
    "main",
]
