"""Repo-specific lint rules.

Importing this package registers every rule with
:mod:`repro.devtools.registry`.  Add a rule by creating a module here
that defines a :class:`~repro.devtools.registry.LintRule` subclass
decorated with ``@register``, and importing it below.

The single-file rules (R002, R004–R008) and R003 live in this package; the
single-file ones filter the file summaries of
:mod:`repro.devtools.semantic.summary`.  The whole-program rules (R001
and R009–R016) live in :mod:`repro.devtools.semantic` and are imported
here for the same register-on-import effect.
"""

from repro.devtools.rules import (  # noqa: F401  (import-for-effect)
    atomic_write,
    cache_schema,
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
