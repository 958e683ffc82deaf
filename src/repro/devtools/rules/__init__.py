"""Repo-specific lint rules.

Importing this package registers every rule with
:mod:`repro.devtools.registry`.  Add a rule by creating a module here
that defines a :class:`~repro.devtools.registry.LintRule` subclass
decorated with ``@register``, and importing it below.

The per-file rules (R002–R008) live in this package; the whole-program
rules (R001 and R009–R016) live in :mod:`repro.devtools.semantic` and
are imported here for the same register-on-import effect.
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

__all__ = [
    "floatcmp",
    "cache_schema",
    "layering",
    "picklability",
    "atomic_write",
    "noprint",
    "hotpath",
    "lifecycle",
    "races",
    "typedcore",
    "units",
    "clockdomains",
    "effects",
]
