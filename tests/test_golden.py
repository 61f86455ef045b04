"""Byte-identity gate for the learned rules and the structured report.

One fixed corpus goes through ``run_pipeline``; ``final.rules`` and
``report.jsonl`` must match the files under ``tests/golden/`` byte for
byte.  A change that only makes the program faster or smaller must leave
them alone.  A change meant to alter the output regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and says why in its description.
"""

from __future__ import annotations

from pathlib import Path

from hornpipe.logic import print_program
from hornpipe.parsing import parse_rules
from hornpipe.pipeline import PipelineConfig, run_pipeline
from hornpipe.reporting import pipeline_report_lines
from hornpipe.synthgen import generate_corpus

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


def render() -> dict[str, str]:
    """{file name: text} for the fixed corpus, as ``hornpipe learn`` writes them."""
    planted = parse_rules((ROOT / "data" / "planted_rules.rules").read_text(encoding="utf-8"))
    corpus = generate_corpus(planted, 15, 0.2, seed=0)
    config = PipelineConfig(seed=0)
    report = run_pipeline(corpus.bundle_sources(), corpus.bias, config)
    lines = pipeline_report_lines(report, config)
    return {
        "final.rules": print_program(report.final_hypothesis),
        "report.jsonl": "".join(f"{line}\n" for line in lines),
    }


def test_final_rules_and_report_match_golden_bytes():
    for name, text in render().items():
        want = (GOLDEN / name).read_bytes()
        assert text.encode("utf-8") == want, f"{name} differs from tests/golden/{name}"


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, text in render().items():
        (GOLDEN / name).write_bytes(text.encode("utf-8"))
        print(f"wrote {GOLDEN / name}")
