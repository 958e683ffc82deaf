"""In-source suppression comments: ``# repro: noqa[R001]``.

A suppression applies to findings on its own line, and — when it sits
on the header line of a multi-line statement — to that statement's
continuation lines as well (:func:`expand_to_statements`), so

.. code-block:: python

    value = compute(  # repro: noqa[R001]
        seed=time.time(),
    )

silences an R001 reported on the ``time.time()`` line.  For compound
statements (``if``/``for``/``def``/…) the extent covers only the
*header* (through the line before the first body statement): a noqa on
``if cond:`` never silences the block under it.

The bare form ``# repro: noqa`` silences every rule; the bracketed form
``# repro: noqa[R001]`` (or ``[R001,R004]``) silences only the listed
rules.  The distinct ``repro:`` prefix keeps these orthogonal to
flake8/ruff ``# noqa`` comments, so suppressing one tool never
accidentally silences the other.

The determinism rules (R014-R016, :data:`JUSTIFIED_RULES`) additionally
require a *recorded justification*::

    run_id = f"run-{time.strftime('%H%M%S')}"  # repro: noqa[R014] -- run ids name artifacts, never enter results

Without the ``-- reason`` tail the suppression is **inert** for those
rules (the finding shows through), so deliberate entropy is always
accompanied by its written rationale; the justifications are published
in ``effects_graph.json`` for review.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterable

from repro.devtools.findings import Finding

__all__ = [
    "ALL_RULES",
    "JUSTIFIED_RULES",
    "scan_noqa",
    "expand_to_statements",
    "filter_suppressed",
]

#: Sentinel for "every rule suppressed on this line".
ALL_RULES = "*"

#: Rules whose suppressions require a ``-- justification`` tail to take
#: effect (the effect/determinism family: deliberate entropy must carry
#: its written rationale).
JUSTIFIED_RULES = frozenset({"R014", "R015", "R016"})

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Za-z0-9_,\s]+)\])?"
    r"(?:\s*--\s*(?P<why>\S.*?)\s*$)?",
)


def scan_noqa(
    lines: Iterable[str],
) -> tuple[dict[int, frozenset[str]], dict[int, str]]:
    """One pass over the source lines: map 1-based line number ->
    suppressed rule ids (or ``{'*'}``), and line number -> the ``--
    reason`` tail of its noqa.

    Only lines whose noqa carries a non-empty justification appear in
    the second map; :func:`filter_suppressed` consults it before
    honoring a suppression of a :data:`JUSTIFIED_RULES` member.
    """
    suppressions: dict[int, frozenset[str]] = {}
    justifications: dict[int, str] = {}
    for lineno, text in enumerate(lines, start=1):
        if "#" not in text:
            continue
        match = _NOQA_RE.search(text)
        if match is None:
            continue
        rules = match.group("rules")
        ids = frozenset(
            r.strip().upper() for r in (rules or "").split(",") if r.strip()
        )
        suppressions[lineno] = ids or frozenset((ALL_RULES,))
        why = match.group("why")
        if why:
            justifications[lineno] = why.strip()
    return suppressions, justifications


def _statement_extent(stmt: ast.stmt) -> tuple[int, int]:
    """Lines covered by a suppression on ``stmt``'s header line.

    Simple statements cover their full (possibly wrapped) extent; for
    compound statements the extent stops before the first body line, so
    the header's own continuation lines (a wrapped ``if`` condition, a
    multi-line ``def`` signature) are covered but the suite is not.
    """
    start = stmt.lineno
    end = getattr(stmt, "end_lineno", None) or start
    body = getattr(stmt, "body", None)
    if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
        end = min(end, body[0].lineno - 1)
    return start, max(start, end)


def expand_to_statements(
    tree: ast.Module,
    suppressions: dict[int, frozenset[str]],
    justifications: dict[int, str],
) -> tuple[dict[int, frozenset[str]], dict[int, str]]:
    """Extend header-line suppressions, and their justifications, over
    their statements' extents, in one walk of ``tree``.

    Returns new maps; lines that already carry their own suppression
    get the union of both (an inner comment can only widen, never
    narrow, what the header declared), and keep their own
    justification.
    """
    if not suppressions:
        return suppressions, justifications
    supp, why = dict(suppressions), dict(justifications)
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        ids = suppressions.get(node.lineno)
        if ids is None:
            continue
        text = justifications.get(node.lineno)
        start, end = _statement_extent(node)
        for lineno in range(start + 1, end + 1):
            existing = supp.get(lineno)
            supp[lineno] = ids if existing is None else existing | ids
            if text is not None:
                why.setdefault(lineno, text)
    return supp, why


def filter_suppressed(
    findings: Iterable[Finding],
    suppressions: dict[int, frozenset[str]],
    justifications: dict[int, str] | None = None,
) -> list[Finding]:
    """Drop findings whose line carries a matching suppression.

    When ``justifications`` is provided, suppressions of
    :data:`JUSTIFIED_RULES` members are honored only on lines whose
    noqa carries a ``-- reason`` tail; an unjustified one is inert and
    the finding shows through.  (``None`` preserves the historical
    unconditional behavior for callers without line information.)
    """
    kept = []
    for f in findings:
        ids = suppressions.get(f.line)
        if ids is not None and (ALL_RULES in ids or f.rule in ids):
            if (
                justifications is not None
                and f.rule in JUSTIFIED_RULES
                and f.line not in justifications
            ):
                kept.append(f)
            continue
        kept.append(f)
    return kept
