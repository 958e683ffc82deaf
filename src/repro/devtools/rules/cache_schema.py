"""R003: cache-schema drift — serialized fields are pinned to CACHE_FORMAT.

``ResultStore`` memoizes simulation products as JSON keyed by
``CACHE_FORMAT``.  PR 1 shipped the failure mode this rule exists for:
``SimResult`` grew a ``windows`` field, the serializer in
``repro.experiments.common`` silently dropped it, and cached scheme
evaluations disagreed with fresh ones until ``CACHE_FORMAT`` was bumped
to 2.

The rule statically extracts the cache-visible schema — the annotated
fields of ``SimResult``, ``SchemeResult`` and ``WindowSample`` plus the
serializer's ``_SAMPLE_FIELDS`` tuple — fingerprints it, and compares
(fingerprint, ``CACHE_FORMAT``) against the pin checked in at
``src/repro/devtools/cache_schema.json``.  Changing any of those fields
without bumping ``CACHE_FORMAT`` *and* refreshing the pin
(``python -m repro lint --update-cache-schema``) is an error.
"""

from __future__ import annotations

import ast
import hashlib
import json
from collections.abc import Iterator
from pathlib import Path

from repro.devtools.context import FileContext, ProjectContext
from repro.devtools.findings import Finding
from repro.devtools.registry import LintRule, register

__all__ = [
    "CacheSchemaRule",
    "PIN_RELPATH",
    "extract_schema",
    "schema_fingerprint",
    "write_pin",
]

#: Where the pinned (CACHE_FORMAT, fingerprint) lives, repo-relative.
PIN_RELPATH = "src/repro/devtools/cache_schema.json"

#: class name -> repo-relative file defining it.
_SCHEMA_CLASSES = {
    "SimResult": "src/repro/sim/engine.py",
    "SchemeResult": "src/repro/core/runner.py",
    "WindowSample": "src/repro/sim/stats.py",
}

#: The serializer module: holds CACHE_FORMAT and _SAMPLE_FIELDS.
_SERIALIZER_RELPATH = "src/repro/experiments/common.py"


def _class_fields(tree: ast.Module, class_name: str) -> list[str] | None:
    """Annotated field names of a (dataclass-style) class body."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            return [
                stmt.target.id
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
            ]
    return None


def _module_constant(tree: ast.Module, name: str) -> tuple[ast.stmt, object] | None:
    """A module-level ``NAME = <literal>`` assignment and its value."""
    for stmt in tree.body:
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
            value = stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
            value = stmt.value
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id == name:
                try:
                    return stmt, ast.literal_eval(value)
                except ValueError:
                    return stmt, None
    return None


def extract_schema(project: ProjectContext) -> tuple[dict, int, FileContext] | None:
    """(field schema, CACHE_FORMAT, serializer ctx) — or None if this
    tree does not contain the result-cache stack at all."""
    serializer = project.file_for(_SERIALIZER_RELPATH)
    if serializer is None:
        return None
    fmt = _module_constant(serializer.tree, "CACHE_FORMAT")
    if fmt is None or not isinstance(fmt[1], int):
        return None
    schema: dict[str, list[str]] = {}
    for class_name, relpath in _SCHEMA_CLASSES.items():
        ctx = project.file_for(relpath)
        fields = _class_fields(ctx.tree, class_name) if ctx else None
        if fields is None:
            return None
        schema[class_name] = fields
    sample_fields = _module_constant(serializer.tree, "_SAMPLE_FIELDS")
    if sample_fields is None or not isinstance(sample_fields[1], tuple):
        return None
    schema["_SAMPLE_FIELDS"] = list(sample_fields[1])
    return schema, fmt[1], serializer


def schema_fingerprint(schema: dict) -> str:
    blob = json.dumps(schema, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def load_pin(root: Path) -> dict | None:
    path = root / PIN_RELPATH
    if not path.is_file():
        return None
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError:
        return None


def write_pin(root: Path) -> Path:
    """Recompute the schema and rewrite the pin file (CLI helper)."""
    project = ProjectContext(root=root)
    extracted = extract_schema(project)
    if extracted is None:
        raise ValueError(f"cannot extract cache schema under {root}")
    schema, cache_format, _ = extracted
    path = root / PIN_RELPATH
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(
            {
                "cache_format": cache_format,
                "fingerprint": schema_fingerprint(schema),
                "schema": schema,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    return path


@register
class CacheSchemaRule(LintRule):
    id = "R003"
    name = "cache-schema-drift"
    rationale = (
        "serialized result fields must not change without a CACHE_FORMAT bump"
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        extracted = extract_schema(project)
        if extracted is None:
            return
        schema, cache_format, serializer = extracted
        anchor = _module_constant(serializer.tree, "CACHE_FORMAT")
        assert anchor is not None  # extract_schema validated it
        path, line = str(serializer.relpath), anchor[0].lineno
        pin = load_pin(project.root)
        fingerprint = schema_fingerprint(schema)
        fix = "bump CACHE_FORMAT and run 'python -m repro lint --update-cache-schema'"
        if pin is None:
            yield self.at(
                path, line,
                f"no schema pin at {PIN_RELPATH}; run "
                "'python -m repro lint --update-cache-schema' to create it",
            )
            return
        if cache_format != pin.get("cache_format"):
            yield self.at(
                path, line,
                f"CACHE_FORMAT is {cache_format} but the pin records "
                f"{pin.get('cache_format')}; {fix}",
            )
        elif fingerprint != pin.get("fingerprint"):
            changed = sorted(
                name
                for name in schema
                if schema[name] != (pin.get("schema") or {}).get(name)
            )
            yield self.at(
                path, line,
                "cached-result schema drifted without a CACHE_FORMAT bump "
                f"(changed: {', '.join(changed) or 'unknown'}); stale cache "
                f"entries would half-deserialize — {fix}",
            )
