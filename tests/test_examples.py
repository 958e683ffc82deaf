"""The example scripts stay runnable.

Full example runs take minutes (they use the experiment-scale GPU), so
this module compiles every example and executes the cheapest one end to
end; the heavyweight ones are exercised through the same library calls
by ``repro eval``.
"""

import py_compile
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def test_examples_directory_has_at_least_five_scripts():
    scripts = sorted(EXAMPLES.glob("*.py"))
    assert len(scripts) >= 5
    names = {s.name for s in scripts}
    assert "quickstart.py" in names


@pytest.mark.parametrize(
    "script", sorted(p.name for p in EXAMPLES.glob("*.py"))
)
def test_example_compiles(script):
    py_compile.compile(str(EXAMPLES / script), doraise=True)


def test_tlp_sweep_runs_end_to_end():
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / "tlp_sweep.py"), "LUD"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "bestTLP(LUD)" in proc.stdout
    assert "LU Decomposition" in proc.stdout


def test_examples_have_usage_docstrings():
    for script in EXAMPLES.glob("*.py"):
        text = script.read_text()
        assert '"""' in text, f"{script.name} lacks a docstring"
        assert "Usage" in text or "usage" in text, (
            f"{script.name} lacks usage instructions"
        )
