"""Byte-identity gate for the learned rules and the structured reports.

One fixed corpus goes through ``run_pipeline``; ``final.rules`` and
``report.jsonl`` must match the files under ``tests/golden/`` byte for
byte.  The same corpus, written by ``hornpipe gen`` and given one broken
bundle, goes through ``hornpipe check --out``, whose report must match
``check.jsonl``.  A change that only makes the program faster or smaller
must leave them alone.  A change meant to alter the output regenerates
them with

    PYTHONPATH=src python tests/test_golden.py

and says why in its description.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

from hornpipe.cli import main
from hornpipe.logic import print_program
from hornpipe.parsing import parse_rules
from hornpipe.pipeline import PipelineConfig, run_pipeline
from hornpipe.reporting import pipeline_report_lines
from hornpipe.synthgen import generate_corpus

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
PLANTED = ROOT / "data" / "planted_rules.rules"


def render() -> dict[str, str]:
    """{file name: text} for the fixed corpus, as ``hornpipe learn`` writes them."""
    planted = parse_rules(PLANTED.read_text(encoding="utf-8"))
    corpus = generate_corpus(planted, 15, 0.2, seed=0)
    config = PipelineConfig(seed=0)
    report = run_pipeline(corpus.bundle_sources(), corpus.bias, config)
    lines = pipeline_report_lines(report, config)
    return {
        "final.rules": print_program(report.final_hypothesis),
        "report.jsonl": "".join(f"{line}\n" for line in lines),
    }


def render_check(work: Path) -> bytes:
    """``check.jsonl`` as ``hornpipe check --out`` writes it for the same corpus."""
    corpus, out = work / "corpus", work / "check.jsonl"
    gen = ["gen", "--rules-file", str(PLANTED), "--subsets", "15", "--corruption", "0.2"]
    assert main([*gen, "--seed", "0", "--out-dir", str(corpus)]) == 0
    # one bundle that validation rejects, so the report carries reasons too
    shutil.copytree(corpus / "sub-0000", corpus / "sub-bad")
    (corpus / "sub-bad" / "bk.bk").write_text("taxiing(ac1).\ncross_runway(ac1,\n", encoding="utf-8")
    assert main(["check", "--corpus-dir", str(corpus), "--out", str(out)]) == 0
    return out.read_bytes()


def test_final_rules_and_report_match_golden_bytes():
    for name, text in render().items():
        want = (GOLDEN / name).read_bytes()
        assert text.encode("utf-8") == want, f"{name} differs from tests/golden/{name}"


def test_check_report_matches_golden_bytes(tmp_path, monkeypatch):
    monkeypatch.delenv("HORNPIPE_CONFIG", raising=False)
    assert render_check(tmp_path) == (GOLDEN / "check.jsonl").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as work:
        (GOLDEN / "check.jsonl").write_bytes(render_check(Path(work)))
        print(f"wrote {GOLDEN / 'check.jsonl'}")
    for name, text in render().items():
        (GOLDEN / name).write_bytes(text.encode("utf-8"))
        print(f"wrote {GOLDEN / name}")
