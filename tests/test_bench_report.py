"""Tests for scripts/bench_report.py: exact event counts and
baseline-provenance guarding.

The quick cases' event counts are pinned exactly (they are
deterministic, unlike the wall times); the ``--set-baseline`` refusal
logic is covered with a stubbed measurement so no simulation runs.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "bench_report", ROOT / "scripts" / "bench_report.py"
)
bench_report = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_report)


def _measured(git="abc1234", machine="x86_64", python="3.11.0"):
    return {
        "recorded_at": "2026-01-01T00:00:00+00:00",
        "git": git,
        "machine": machine,
        "python": python,
        "cases": {
            case: {
                "cycles": 1000,
                "events": 5000,
                "wall_s": 0.01,
                "cycles_per_sec": 100000.0,
                "events_per_sec": 500000.0,
            }
            for case in bench_report.CASES
        },
    }


class TestBaselineConflicts:
    def test_no_other_modes_is_clean(self):
        assert bench_report._baseline_conflicts({}, "quick", _measured()) == []
        modes = {"quick": {"baseline": _measured(git="old")}}
        # Re-recording the same mode's baseline is never a conflict.
        assert bench_report._baseline_conflicts(modes, "quick", _measured()) == []

    def test_cross_mode_git_and_machine_mismatch_reported(self):
        modes = {"full": {"baseline": _measured(git="old", machine="arm64")}}
        conflicts = bench_report._baseline_conflicts(modes, "quick", _measured())
        assert len(conflicts) == 1
        other_mode, diffs = conflicts[0]
        assert other_mode == "full"
        assert any("git" in d for d in diffs)
        assert any("machine" in d for d in diffs)

    def test_matching_provenance_is_clean(self):
        modes = {"full": {"baseline": _measured()}}
        assert bench_report._baseline_conflicts(modes, "quick", _measured()) == []

    def test_null_fields_do_not_conflict(self):
        # A baseline recorded outside a git work tree has git=None;
        # that is unknown provenance, not a conflict.
        modes = {"full": {"baseline": _measured(git=None)}}
        assert bench_report._baseline_conflicts(modes, "quick", _measured()) == []


class TestSetBaselineGuard:
    @pytest.fixture
    def out(self, tmp_path, monkeypatch):
        path = tmp_path / "BENCH_engine.json"
        path.write_text(json.dumps({
            "schema": 1,
            "modes": {"full": {"baseline": _measured(git="fullrev")}},
        }))
        monkeypatch.setattr(
            bench_report, "run_mode", lambda mode, repeat: _measured()
        )
        return path

    @pytest.fixture
    def main(self, tmp_path):
        """``bench_report.main`` with its history ledger under tmp_path."""
        history = tmp_path / "bench_history.jsonl"
        return lambda argv: bench_report.main([*argv, "--history", str(history)])

    def test_runs_leave_the_repo_ledger_alone(self, out, main, tmp_path):
        ledger = bench_report.DEFAULT_HISTORY
        before = ledger.read_bytes() if ledger.is_file() else None
        assert main(["--quick", "--out", str(out)]) == 0
        assert main(["--set-baseline", "--out", str(out)]) == 0
        after = ledger.read_bytes() if ledger.is_file() else None
        assert after == before
        # the runs did append, to the test's own ledger
        assert len((tmp_path / "bench_history.jsonl").read_text().splitlines()) == 2

    def test_quick_set_baseline_refuses_on_conflict(self, out, main, capsys):
        rc = main(
            ["--quick", "--set-baseline", "--out", str(out)]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "refusing --set-baseline" in err
        assert "--force" in err
        report = json.loads(out.read_text())
        assert "quick" not in report["modes"]  # nothing written

    def test_force_overrides(self, out, main):
        rc = main(
            ["--quick", "--set-baseline", "--force", "--out", str(out)]
        )
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["modes"]["quick"]["baseline"]["git"] == "abc1234"
        # the full-mode section is untouched
        assert report["modes"]["full"]["baseline"]["git"] == "fullrev"

    def test_same_mode_rerecord_allowed(self, out, main):
        rc = main(
            ["--set-baseline", "--out", str(out)]  # full mode, modes match
        )
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["modes"]["full"]["baseline"]["git"] == "abc1234"

    def test_without_set_baseline_no_guard(self, out, main):
        rc = main(["--quick", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        # first quick run seeds its own baseline; full untouched
        assert report["modes"]["quick"]["baseline"]["git"] == "abc1234"
        assert report["modes"]["full"]["baseline"]["git"] == "fullrev"


class TestQuickEventCounts:
    """The quick cases' events dispatched, pinned exactly.

    Counted as the script counts them: scheduled minus still queued
    after ``run()``.  They equal the quick ``current`` section of
    BENCH_engine.json; a change meant to be bit-identical keeps them.
    """

    PINNED = {"alone": 10_002, "corun": 8_779, "pbs-dynamic": 6_752}

    @pytest.mark.parametrize("case", bench_report.CASES)
    def test_events_dispatched(self, case):
        cycles = bench_report.LENGTHS["quick"][case]
        sim, kwargs = bench_report._build(case, cycles)
        sim.run(cycles, **kwargs)
        assert sim.events._seq - len(sim.events) == self.PINNED[case]
