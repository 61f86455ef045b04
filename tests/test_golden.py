"""Byte-identity gate for the learned rules and the structured reports.

One fixed corpus goes through ``run_pipeline``; ``final.rules`` and
``report.jsonl`` must match the files under ``tests/golden/`` byte for
byte.  A second corpus, the same one with one aircraft of each subset
renamed to one of the previous subset's, must match ``shared-final.rules``
and ``shared-report.jsonl``: its subsets share constants, so components
merge as aggregation grows the background.  The first corpus, written by
``hornpipe gen`` and given one broken bundle, goes through ``hornpipe check
--out``, whose report must match ``check.jsonl``.  A change that only makes the program faster or smaller
must leave them alone.  A change meant to alter the output regenerates
them with

    PYTHONPATH=src python tests/test_golden.py

and says why in its description.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from hornpipe.cli import main
from hornpipe.logic import Atom, const, print_program
from hornpipe.parsing import parse_rules
from hornpipe.pipeline import PipelineConfig, run_pipeline
from hornpipe.reporting import pipeline_report_lines
from hornpipe.synthgen import GeneratedCorpus, generate_corpus

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
PLANTED = ROOT / "data" / "planted_rules.rules"


def fixed_corpus() -> GeneratedCorpus:
    planted = parse_rules(PLANTED.read_text(encoding="utf-8"))
    return generate_corpus(planted, 15, 0.2, seed=0)


def share_constants(corpus: GeneratedCorpus) -> GeneratedCorpus:
    """Rename the first aircraft of each subset's violation scene, everywhere
    in the subset, to the last aircraft of the previous subset's scene.

    Synthgen subsets never share constants, so without this no component
    ever merges across aggregation steps.
    """
    types = corpus.bias.types_by_predicate
    agent = types[corpus.bias.head_decls[0].predicate][0]

    def aircraft(sub) -> list[str]:
        names = [
            t.name
            for a in sub.violation_facts
            for t, ty in zip(a.args, types.get(a.predicate) or ())
            if ty == agent
        ]
        return list(dict.fromkeys(names))

    subsets = [corpus.subsets[0]]
    for sub in corpus.subsets[1:]:
        mine, theirs = aircraft(sub)[0], aircraft(subsets[-1])[-1]

        def rename(atoms: tuple[Atom, ...]) -> tuple[Atom, ...]:
            return tuple(
                Atom(a.predicate, tuple(const(theirs) if t.name == mine else t for t in a.args))
                for a in atoms
            )

        subsets.append(
            replace(
                sub,
                violation_facts=rename(sub.violation_facts),
                positives=rename(sub.positives),
                nominal_facts=rename(sub.nominal_facts),
                negatives=rename(sub.negatives),
            )
        )
    return replace(corpus, subsets=tuple(subsets))


def render(corpus: GeneratedCorpus, prefix: str = "") -> dict[str, str]:
    """{file name: text} for a corpus, as ``hornpipe learn`` writes them."""
    config = PipelineConfig(seed=0)
    report = run_pipeline(corpus.bundle_sources(), corpus.bias, config)
    lines = pipeline_report_lines(report, config)
    return {
        f"{prefix}final.rules": print_program(report.final_hypothesis),
        f"{prefix}report.jsonl": "".join(f"{line}\n" for line in lines),
    }


def render_all() -> dict[str, str]:
    corpus = fixed_corpus()
    return {**render(corpus), **render(share_constants(corpus), "shared-")}


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
    for name, text in render(fixed_corpus()).items():
        want = (GOLDEN / name).read_bytes()
        assert text.encode("utf-8") == want, f"{name} differs from tests/golden/{name}"


def test_shared_constant_corpus_matches_golden_bytes():
    corpus = share_constants(fixed_corpus())
    seen: dict[str, str] = {}
    shared = 0
    for sub in corpus.subsets:
        consts = {t.name for a in (*sub.violation_facts, *sub.nominal_facts) for t in a.args}
        shared += any(seen.get(c, sub.id) != sub.id for c in consts)
        for c in consts:
            seen.setdefault(c, sub.id)
    assert shared == len(corpus.subsets) - 1
    for name, text in render(corpus, "shared-").items():
        want = (GOLDEN / name).read_bytes()
        assert text.encode("utf-8") == want, f"{name} differs from tests/golden/{name}"


def test_check_report_matches_golden_bytes(tmp_path, monkeypatch):
    monkeypatch.delenv("HORNPIPE_CONFIG", raising=False)
    assert render_check(tmp_path) == (GOLDEN / "check.jsonl").read_bytes()


def test_learn_is_byte_identical_across_hash_seeds(tmp_path):
    """``hornpipe learn`` writes the golden bytes whatever the string hash
    seed: no output may depend on the iteration order of a set or
    frozenset of strings or clauses."""
    corpus = tmp_path / "corpus"
    gen = ["gen", "--rules-file", str(PLANTED), "--subsets", "15", "--corruption", "0.2"]
    assert main([*gen, "--seed", "0", "--out-dir", str(corpus)]) == 0
    env = {k: v for k, v in os.environ.items() if k != "HORNPIPE_CONFIG"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for hash_seed in ("1", "2"):
        out = tmp_path / f"learn-{hash_seed}"
        subprocess.run(
            [sys.executable, "-m", "hornpipe", "learn", "--corpus-dir", str(corpus), "--out", str(out)],
            env={**env, "PYTHONHASHSEED": hash_seed},
            check=True,
            capture_output=True,
        )
        for name in ("final.rules", "report.jsonl"):
            assert (out / name).read_bytes() == (GOLDEN / name).read_bytes(), (hash_seed, name)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as work:
        (GOLDEN / "check.jsonl").write_bytes(render_check(Path(work)))
        print(f"wrote {GOLDEN / 'check.jsonl'}")
    for name, text in render_all().items():
        (GOLDEN / name).write_bytes(text.encode("utf-8"))
        print(f"wrote {GOLDEN / name}")
