"""Tests for ``repro eval`` (repro.experiments.eval): the claim table,
the gate, and the EXPERIMENTS.md blocks it writes.

The claims themselves are measured by ``python -m repro --quick eval``
(CI's tier-1 job) and the full campaign (CI's eval-full job); these tests
run injected claims on the tiny test GPU, and check the committed
EXPERIMENTS.md against the claim table without simulating anything.
"""

import dataclasses
import re

import pytest

import repro.experiments.eval as ev
from repro.config import medium_config, small_config
from repro.core.runner import RunLengths
from repro.experiments.common import ExperimentContext, ResultStore

PAIRS = (("BLK", "TRD"),)


@pytest.fixture
def ctx(tmp_path):
    return ExperimentContext(small_config(), RunLengths.quick(), seed=5,
                             store=ResultStore(tmp_path / "results"), n_jobs=1)


def claim(name, measure, op, bound, **kw):
    return ev.Claim(f"test.{name}", name, measure, op, bound, **kw)


class TestClaimTable:
    def test_ids_are_unique_and_sectioned(self):
        ids = [c.id for c in ev.CLAIMS]
        assert len(ids) == len(set(ids))
        assert all(re.fullmatch(r"[a-z0-9]+\.[a-z0-9-]+", i) for i in ids)
        assert all(c.op in ev._OPS for c in ev.CLAIMS)

    def test_doc_has_one_block_per_section(self):
        sections = {c.section: "x" for c in ev.CLAIMS}
        ev.update_doc(ev.DOC_PATH.read_text(), sections)  # raises on a mismatch

    def test_doc_cites_only_known_claims(self):
        cited = set(re.findall(r"`([a-z0-9]+\.[a-z0-9-]+)`", ev.DOC_PATH.read_text()))
        assert cited, "EXPERIMENTS.md cites no claims"
        assert cited <= {c.id for c in ev.CLAIMS}, cited - {c.id for c in ev.CLAIMS}


class TestUpdateDoc:
    DOC = ("intro\n<!-- eval:a -->\nold a\n<!-- /eval -->\nprose\n"
           "<!-- eval:b -->\n<!-- /eval -->\nend\n")

    def test_replaces_each_block_and_keeps_the_prose(self):
        out = ev.update_doc(self.DOC, {"a": "new a", "b": "new b"})
        assert out == ("intro\n<!-- eval:a -->\nnew a\n<!-- /eval -->\nprose\n"
                       "<!-- eval:b -->\nnew b\n<!-- /eval -->\nend\n")
        assert ev.update_doc(out, {"a": "new a", "b": "new b"}) == out

    @pytest.mark.parametrize("blocks", [{"a": "x"}, {"a": "x", "b": "y", "c": "z"}])
    def test_rejects_blocks_that_do_not_match_the_sections(self, blocks):
        with pytest.raises(ValueError, match="do not match"):
            ev.update_doc(self.DOC, blocks)


class TestGate:
    def test_injected_failing_claim_fails_and_is_named(self, ctx):
        claims = [claim("holds", lambda r: r.fig1.ws["besttlp"], "=", 1),
                  claim("fails", lambda r: r.fig1.ws["opt-ws"], ">", 1e9)]
        evaluation = ev.run_eval(ctx, quick=False, pairs=PAIRS,
                                 representative=PAIRS, claims=claims)
        assert [c.id for c in evaluation.failures] == ["test.fails"]
        report = ev.render_report(evaluation)
        assert "FAIL test.fails" in report
        assert "1 fail the gate" in report

    def test_quick_tier_gates_exact_claims_and_every_error(self, ctx):
        def boom(r):
            raise RuntimeError("driver crashed")

        claims = [claim("loose", lambda r: 1.0, ">", 2),
                  claim("exact", lambda r: 1.0, ">", 2, exact=True),
                  claim("crash", boom, ">", 0)]
        evaluation = ev.run_eval(ctx, quick=True, pairs=PAIRS,
                                 representative=PAIRS, claims=claims)
        assert [c.id for c in evaluation.failures] == ["test.exact", "test.crash"]
        assert "error: RuntimeError: driver crashed" in ev.render_report(evaluation)

    def test_a_crashing_driver_runs_once_and_fails_each_claim(self, ctx, monkeypatch):
        calls = []

        def driver(r):
            calls.append(r.ctx.seed)
            raise ValueError("bad split")

        monkeypatch.setitem(ev._DRIVERS, "boom", driver)
        claims = [claim(f"c{i}", lambda r: r.boom, ">", 0) for i in range(3)]
        evaluation = ev.run_eval(ctx, quick=False, pairs=PAIRS,
                                 representative=PAIRS, claims=claims)
        assert calls == [5]
        assert len(evaluation.failures) == 3


class TestOutputs:
    def test_blocks_and_reports_are_deterministic(self, ctx, tmp_path):
        claims = [claim("ws", lambda r: r.fig1.ws["opt-ws"], "≥", 1, fmt="{:.2f}")]
        runs = [ev.run_eval(ctx, quick=False, pairs=PAIRS, representative=PAIRS,
                            claims=claims) for _ in range(2)]
        blocks = [ev.render_blocks(e) for e in runs]
        assert blocks[0] == blocks[1]
        assert list(blocks[0]) == ["test"]
        assert blocks[0]["test"].splitlines()[2].startswith("| `test.ws` | ws |")
        out = tmp_path / "reports"
        assert ev.write_reports(runs[0].run, out) == ["fig1"]
        assert "Figure 1" in (out / "fig1.txt").read_text()

    @pytest.mark.parametrize("seed, quick, writes", [
        (1, False, True), (2, False, False), (1, True, False),
    ])
    def test_only_the_documented_campaign_writes(self, ctx, tmp_path, monkeypatch, capsys,
                                                 seed, quick, writes):
        """EXPERIMENTS.md tabulates the full tier on the medium config at
        seed 1: another seed, or the quick tier, leaves it untouched."""
        doc, reports = tmp_path / "EXPERIMENTS.md", tmp_path / "reports"
        doc.write_text("<!-- eval:test -->\nold\n<!-- /eval -->\n")
        monkeypatch.setattr(ev, "DOC_PATH", doc)
        monkeypatch.setattr(ev, "REPORTS_DIR", reports)
        claims = [claim("fig8", lambda r: r.fig8.per_core_bits, "=", 64)]
        run_eval = ev.run_eval  # measured on the test GPU, gated as the campaign
        monkeypatch.setattr(ev, "run_eval", lambda _, *, quick, **kw: run_eval(
            ctx, quick=quick, pairs=PAIRS, representative=PAIRS, claims=claims))
        campaign = dataclasses.replace(ctx, config=medium_config(), lengths=RunLengths(),
                                       seed=seed)
        assert ev.main(campaign, quick=quick) == 0
        assert ("| `test.fig8` |" in doc.read_text()) is writes
        assert (reports / "fig8.txt").exists() is writes
        assert ("not written" in capsys.readouterr().err) is not writes
