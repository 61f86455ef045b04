"""Extractor boundary: raw source records in, candidate fact/example text out.

Real deployments would put a model-backed extractor here.  This artifact
ships a file-based fixture extractor (attempt-indexed directories, so retry
behavior is scriptable) and treats all extraction output as untrusted: the
pipeline's validation stage re-checks everything.

Violation records may only contribute positive examples and nominal records
only negative ones; a bundle keeps the two contributions separate so
validation can see role mix-ups.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Protocol

from .storage import BK_FILE, EXS_FILE, StoredSubset, split_example_lines

VIOLATION = "violation"
NOMINAL = "nominal"


@dataclass(frozen=True)
class SourceRecord:
    id: str
    kind: str  # VIOLATION | NOMINAL
    timestamp: str  # ISO-8601, so lexicographic order is chronological

    def __post_init__(self) -> None:
        if self.kind not in (VIOLATION, NOMINAL):
            raise ValueError(f"unknown record kind: {self.kind!r}")


@dataclass(frozen=True)
class Extraction:
    """One record's extracted text, still unparsed."""

    facts_text: str
    examples_text: str


class Extractor(Protocol):
    def extract(self, record: SourceRecord, attempt: int) -> Extraction: ...


class FixtureExtractor:
    """Reads pre-authored extractions from ``<root>/<record-id>/attempt-<n>/``.

    A record with a single attempt directory repeats itself on later
    attempts (fallback to attempt-1).  A missing record or missing attempt-1
    raises FileNotFoundError: an I/O problem, not a validation rejection.
    """

    def __init__(self, root: Path):
        self.root = Path(root)

    def extract(self, record: SourceRecord, attempt: int) -> Extraction:
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        base = self.root / record.id
        d = base / f"attempt-{attempt}"
        if not d.is_dir():
            d = base / "attempt-1"
        if not d.is_dir():
            raise FileNotFoundError(f"no fixture for record {record.id!r} under {base}")
        return Extraction(
            facts_text=(d / BK_FILE).read_text(encoding="utf-8"),
            examples_text=(d / EXS_FILE).read_text(encoding="utf-8"),
        )


@dataclass(frozen=True)
class RawBundle:
    """Candidate subset text assembled from one violation and one nominal record."""

    id: str
    timestamp: str
    violation_id: str
    nominal_id: str
    violation_facts: str
    violation_examples: str
    nominal_facts: str
    nominal_examples: str


@dataclass(frozen=True)
class BundleSource:
    """A bundle the pipeline can (re-)fetch by attempt number."""

    id: str
    timestamp: str
    fetch: Callable[[int], RawBundle]


def build_bundle(extractor: Extractor, violation: SourceRecord, nominal: SourceRecord, attempt: int) -> RawBundle:
    if violation.kind != VIOLATION or nominal.kind != NOMINAL:
        raise ValueError(
            f"bundle needs (violation, nominal), got ({violation.kind}, {nominal.kind})"
        )
    v = extractor.extract(violation, attempt)
    n = extractor.extract(nominal, attempt)
    return RawBundle(
        id=violation.id,
        timestamp=violation.timestamp,
        violation_id=violation.id,
        nominal_id=nominal.id,
        violation_facts=v.facts_text,
        violation_examples=v.examples_text,
        nominal_facts=n.facts_text,
        nominal_examples=n.examples_text,
    )


def pair_subsets(
    violations: list[SourceRecord],
    nominals: list[SourceRecord],
    seed: int,
) -> list[tuple[SourceRecord, SourceRecord]]:
    """Pair every violation with a nominal record, deterministically per seed.

    Nominals are seeded-shuffled once, then reused round-robin when there
    are fewer nominals than violations.
    """
    if not violations:
        raise ValueError("no violation records: no positive examples possible")
    if not nominals:
        raise ValueError("no nominal records: no negative examples possible")
    for r in violations:
        if r.kind != VIOLATION:
            raise ValueError(f"record {r.id!r} is not a violation record")
    for r in nominals:
        if r.kind != NOMINAL:
            raise ValueError(f"record {r.id!r} is not a nominal record")
    order = list(nominals)
    random.Random(f"{seed}:pairing").shuffle(order)
    return [(v, order[i % len(order)]) for i, v in enumerate(violations)]


def bundle_sources(
    extractor: Extractor,
    violations: list[SourceRecord],
    nominals: list[SourceRecord],
    seed: int,
) -> list[BundleSource]:
    """One fetchable bundle per (violation, nominal) pair."""

    def make_fetch(v: SourceRecord, n: SourceRecord) -> Callable[[int], RawBundle]:
        return lambda attempt: build_bundle(extractor, v, n, attempt)

    return [
        BundleSource(id=v.id, timestamp=v.timestamp, fetch=make_fetch(v, n))
        for v, n in pair_subsets(violations, nominals, seed)
    ]


def bundle_source_from_stored(subset: StoredSubset) -> BundleSource:
    """Adapt an on-disk corpus subset; every attempt returns the same bytes."""
    pos_text, neg_text = split_example_lines(subset.examples_text)
    bundle = RawBundle(
        id=subset.id,
        timestamp=subset.timestamp,
        violation_id=subset.meta.get("violation_source", subset.id),
        nominal_id=subset.meta.get("nominal_source", ""),
        violation_facts=subset.facts_text,
        violation_examples=pos_text,
        nominal_facts="",
        nominal_examples=neg_text,
    )
    return BundleSource(id=subset.id, timestamp=subset.timestamp, fetch=lambda attempt: bundle)
