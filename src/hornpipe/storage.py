"""On-disk layouts: corpora, scenarios, manifests.

A corpus directory holds one subdirectory per subset plus a shared bias:

    corpus/
      bias.bias
      manifest.json          (generator bookkeeping, optional)
      <subset-id>/
        bk.bk                ground facts
        exs.exs              pos(...)/neg(...) statements
        meta                 line-oriented "key: value"

Scenario directories reuse the same bundle shape with a ``tags`` meta key.
All text files are UTF-8, one statement per line, ``%`` comments.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .logic import BiasSpec, ExampleSet, Program, print_program
from .parsing import (
    parse_bias,
    parse_examples,
    parse_facts,
    parse_rules,
    print_bias,
)

BK_FILE = "bk.bk"
EXS_FILE = "exs.exs"
META_FILE = "meta"
BIAS_FILE = "bias.bias"
MANIFEST_FILE = "manifest.json"


def parse_meta(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for i, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("%"):
            continue
        if ":" not in line:
            raise ValueError(f"meta line {i}: expected 'key: value', got {line!r}")
        key, val = line.split(":", 1)
        key = key.strip()
        if not key or key in out:
            raise ValueError(f"meta line {i}: bad or duplicate key {key!r}")
        out[key] = val.strip()
    return out


def print_meta(meta: dict[str, str]) -> str:
    return "".join(f"{k}: {v}\n" for k, v in meta.items())


@dataclass(frozen=True)
class StoredSubset:
    """One corpus subset as raw text, before any validation."""

    id: str
    facts_text: str
    examples_text: str
    meta: dict[str, str]

    @property
    def timestamp(self) -> str:
        return self.meta.get("timestamp", "")


def split_example_lines(text: str) -> tuple[str, str]:
    """Split an .exs text into (positive lines, negative lines) by wrapper.

    Every statement line that does not start with ``neg`` goes to the
    positive side, malformed ones included, so that parsing rejects them
    instead of the split dropping them unseen.
    """
    pos, neg = [], []
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("neg"):
            neg.append(line)
        elif stripped and not stripped.startswith("%"):
            pos.append(line)
    return "\n".join(pos) + "\n" if pos else "", "\n".join(neg) + "\n" if neg else ""


def write_subset(corpus_dir: Path, subset: StoredSubset) -> Path:
    d = corpus_dir / subset.id
    d.mkdir(parents=True, exist_ok=True)
    (d / BK_FILE).write_text(subset.facts_text, encoding="utf-8")
    (d / EXS_FILE).write_text(subset.examples_text, encoding="utf-8")
    (d / META_FILE).write_text(print_meta(subset.meta), encoding="utf-8")
    return d


def read_subset(subset_dir: Path) -> StoredSubset:
    return StoredSubset(
        id=subset_dir.name,
        facts_text=(subset_dir / BK_FILE).read_text(encoding="utf-8"),
        examples_text=(subset_dir / EXS_FILE).read_text(encoding="utf-8"),
        meta=parse_meta((subset_dir / META_FILE).read_text(encoding="utf-8")),
    )


def write_corpus_bias(corpus_dir: Path, bias: BiasSpec) -> None:
    corpus_dir.mkdir(parents=True, exist_ok=True)
    (corpus_dir / BIAS_FILE).write_text(print_bias(bias), encoding="utf-8")


def load_corpus_bias(corpus_dir: Path) -> BiasSpec:
    return parse_bias((Path(corpus_dir) / BIAS_FILE).read_text(encoding="utf-8"))


def _bundle_dirs(root: Path) -> list[Path]:
    """The subdirectories of root that hold a bundle, in name order."""
    return [d for d in sorted(Path(root).iterdir()) if d.is_dir() and (d / BK_FILE).exists()]


def load_subsets(corpus_dir: Path) -> list[StoredSubset]:
    """Read a corpus directory's subsets in (timestamp, id) order."""
    return sorted(map(read_subset, _bundle_dirs(corpus_dir)), key=lambda s: (s.timestamp, s.id))


def write_manifest(corpus_dir: Path, manifest: dict) -> None:
    path = Path(corpus_dir) / MANIFEST_FILE
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# ------------------------------------------------------------------ scenarios


def load_scenario_dir(d: Path) -> tuple[str, Program, ExampleSet, tuple[str, ...]]:
    background = parse_facts((d / BK_FILE).read_text(encoding="utf-8"))
    examples = parse_examples((d / EXS_FILE).read_text(encoding="utf-8"))
    tags: tuple[str, ...] = ()
    meta_path = d / META_FILE
    if meta_path.exists():
        meta = parse_meta(meta_path.read_text(encoding="utf-8"))
        raw = meta.get("tags", "")
        tags = tuple(t.strip() for t in raw.split(",") if t.strip())
    return d.name, background, examples, tags


def load_scenario_dirs(scenarios_dir: Path) -> list[tuple[str, Program, ExampleSet, tuple[str, ...]]]:
    return [load_scenario_dir(d) for d in _bundle_dirs(scenarios_dir)]


# ---------------------------------------------------------------------- rules


def write_rules(path: Path, hypothesis: Program) -> None:
    Path(path).write_text(print_program(hypothesis), encoding="utf-8")


def read_rules(path: Path) -> Program:
    return parse_rules(Path(path).read_text(encoding="utf-8"))
