"""Repo-specific lint rules.

Importing this package registers every rule with
:mod:`repro.devtools.registry`.  Add a rule by creating a module here
that defines a :class:`~repro.devtools.registry.LintRule` subclass
decorated with ``@register``, and importing it below.

The single-file rules (R002, R004–R008) live in this package and filter
the file summaries of :mod:`repro.devtools.semantic.summary`.  The
whole-program rules (R001 and R009–R016) live in
:mod:`repro.devtools.semantic` and are imported here for the same
register-on-import effect.  R003 (a hand-pinned cache schema) is
retired and its id is not reused: the result store keys on the golden
fixtures' digest instead (``repro.experiments.common.MODEL_DIGEST``).
"""

from repro.devtools.rules import (  # noqa: F401  (import-for-effect)
    atomic_write,
    floatcmp,
    hotpath,
    layering,
    noprint,
    picklability,
)
from repro.devtools.semantic import (  # noqa: F401  (import-for-effect)
    clockdomains,
    effects,
    lifecycle,
    races,
    typedcore,
    units,
)
