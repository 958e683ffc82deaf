#!/usr/bin/env python
"""Regenerate (or verify) the golden-equivalence fixtures.

Usage::

    PYTHONPATH=src python scripts/regen_golden.py            # rewrite all
    PYTHONPATH=src python scripts/regen_golden.py --check    # verify only
    PYTHONPATH=src python scripts/regen_golden.py --only corun-blk-trd ...

The fixtures under ``tests/golden/`` pin the simulator's exact output —
samples, window log, TLP timeline, DRAM utilization, and the static
schemes' picks — for the case matrix in ``tests/golden_cases.py``.
Rewrite them only when a semantic engine change is intended; performance
refactors must reproduce the existing fixtures bit-for-bit (see
``tests/test_golden_equivalence.py``).

Rewriting also stamps the fixtures' digest into ``MODEL_DIGEST``
(``src/repro/experiments/common.py``), the model version every result
store key holds, so each stored result is recomputed once; ``--check``
reports a stale digest as ``MISMATCH model digest``.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))  # makes the `tests` package importable

from repro.obs.io import atomic_write_text  # noqa: E402

from tests.golden_cases import (  # noqa: E402
    CASES,
    GOLDEN_DIR,
    case_payload,
    case_result,
    fixture_path,
    fixtures_digest,
)

#: The module that holds the ``MODEL_DIGEST`` line this script stamps.
COMMON = ROOT / "src" / "repro" / "experiments" / "common.py"
_DIGEST_LINE = re.compile(r'^MODEL_DIGEST = "(\w*)"$', re.MULTILINE)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--only", nargs="*", default=None,
        help="restrict to these case names (default: all)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="verify fixtures against a fresh run instead of rewriting",
    )
    args = parser.parse_args(argv)

    names = {c.name for c in CASES}
    if args.only:
        unknown = sorted(set(args.only) - names)
        if unknown:
            parser.error(f"unknown case names: {', '.join(unknown)}")
    selected = [c for c in CASES if args.only is None or c.name in args.only]

    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    failures = []
    for case in selected:
        path = fixture_path(case)
        payload = {"case": case_payload(case), "result": case_result(case)}
        if args.check:
            if not path.exists():
                failures.append(f"{case.name}: fixture missing ({path})")
                print(f"MISSING  {case.name}")
                continue
            recorded = json.loads(path.read_text())
            ok = recorded.get("result") == payload["result"]
            print(f"{'ok      ' if ok else 'MISMATCH'} {case.name}")
            if not ok:
                failures.append(f"{case.name}: result diverges from fixture")
        else:
            atomic_write_text(path, json.dumps(payload, indent=1, sort_keys=True))
            print(f"wrote    {path.relative_to(ROOT)}")
    digest = fixtures_digest()
    source = COMMON.read_text()
    (stamped,) = _DIGEST_LINE.findall(source)
    if not args.check:
        atomic_write_text(COMMON, _DIGEST_LINE.sub(f'MODEL_DIGEST = "{digest}"', source))
        print(f"wrote    MODEL_DIGEST = {digest}")
    elif stamped != digest:
        print("MISMATCH model digest")
        failures.append(
            f"MODEL_DIGEST is {stamped!r} but the fixtures' digest is "
            f"{digest!r}; rerun without --check"
        )
    else:
        print("ok       model digest")
    if failures:
        print("\n" + "\n".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
