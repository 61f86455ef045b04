"""Four-stage learning pipeline over extracted subset bundles.

Stage 1 (validation): parse and vocabulary/type/label checks per bundle,
with bounded re-extraction attempts.
Stage 2 (subset checks): each valid subset must admit its own exact-fit
hypothesis, or it is set aside as unreliable.  Every stage, and held-out
evaluation, runs in-process; ``PipelineConfig.jobs`` is still accepted and
written to the report's config record, but nothing reads it.
Stage 3 (aggregation): grow a global training set by re-solving as each
subset joins.  Each trial runs in one ``cover.Session``, which holds the
trial's committed examples and labels, the scoring of its committed
background and examples, and its last consistent self-check's model, and
which the trial commits when a step is accepted.  A step tells the session
what it adds: its background is a ``Program.union`` of the state's and the
subset's, built lazily, which names the subset's facts, and its examples
come from ``Session.join``, which looks up only the joining atoms.  So a
step numbers, checks and scores what the subset adds, not the whole state,
and each solve still equals a from-scratch one.  ``run_pipeline`` passes
one ``cover.CoverCache`` through stages 2 and 3, so a subset whose
constants are new to the state adds exactly the facts its own check
tabled, and joining it fires no group again.  A subset that breaks
solvability has its own examples peeled off one at a time (negatives
first) before being dropped entirely; a peel or a drop leaves the
committed state as it was.  A subset taken whole and one cut back advance
the state on the same path; only the logged action and removed examples
differ.  If the chronological pass drops too many subsets, seeded shuffled
passes retry, keeping the best trial.
Stage 4 (pruning): drop accepted rules whose standalone support on the
aggregated positives falls below a fraction of the maximum support.

Every accepted aggregation state is verified exactly once: the solver's
self-check confirms, with the fixpoint engine, that the hypothesis entails
all aggregated positives and no aggregated negatives before the solve
returns it.  Along a trial the check carries the least model forward in the
trial's session: while the hypothesis stays the same, a step inserts only
the joining subset's facts, runs semi-naive rounds from them, tests the
facts it inserted against the earlier negatives and tests the subset's
examples against the model.  The first step of a trial, every subset check
and a step whose hypothesis changed rebuild the model from the background.
The pruned hypothesis is then checked once more, from scratch, to keep it
negative-safe.  Both checks raise rather than degrade.

Solves have no deadline, so every accept, cut-back and drop is a function
of the bundles, the bias and the config alone, and a rerun on any machine
writes the same report.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Iterator

from . import learner
from .cover import CoverCache, Session
from .entailment import rule_supports
from .ingestion import BundleSource, RawBundle
from .logic import Atom, BiasSpec, ExampleSet, Program, print_clause
from .parsing import ParseError, labelled_examples, parse_examples, parse_facts

DEFAULT_SUPPORT_THRESHOLD = 0.20
DEFAULT_RETRY_FAIL_THRESHOLD = 0.30
DEFAULT_MAX_RETRIES = 5
DEFAULT_VALIDATION_ATTEMPTS = 3


@dataclass(frozen=True)
class PipelineConfig:
    support_threshold: float = DEFAULT_SUPPORT_THRESHOLD  # min fraction of max rule support
    retry_fail_threshold: float = DEFAULT_RETRY_FAIL_THRESHOLD  # acceptable dropped-subset fraction
    max_retries: int = DEFAULT_MAX_RETRIES  # aggregation trials, shuffles included
    validation_attempts: int = DEFAULT_VALIDATION_ATTEMPTS
    seed: int = 0
    jobs: int = 1  # recorded in the report only; subset checks run in-process

    def __post_init__(self) -> None:
        if not 0.0 <= self.retry_fail_threshold <= 1.0:
            raise ValueError("retry_fail_threshold must be within [0, 1]")
        if not 0.0 < self.support_threshold <= 1.0:
            raise ValueError("support_threshold must be within (0, 1]")
        for name in ("max_retries", "validation_attempts", "jobs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class SubsetInstance:
    """A validated, self-contained training unit."""

    id: str
    timestamp: str
    background: Program
    examples: ExampleSet


@dataclass(frozen=True)
class ValidationOutcome:
    bundle_id: str
    timestamp: str
    accepted: bool
    attempts_used: int
    reasons: tuple[str, ...] = ()
    subset: SubsetInstance | None = None


def _type_conflicts(atoms, types_by_pred) -> Iterator[str]:
    """A reason for each ground atom that uses a constant at a second type."""
    constant_types: dict[str, str] = {}
    for a in atoms:
        for term, ty in zip(a.args, types_by_pred.get(a.predicate) or ()):
            prev = constant_types.setdefault(term.name, ty)
            if prev != ty:
                yield f"type conflict: constant {term.name} used as {prev} and {ty}"


def _check_bundle(bundle: RawBundle, bias: BiasSpec) -> tuple[SubsetInstance | None, list[str]]:
    reasons: list[str] = []

    def parsed(parse, label: str, text: str):
        try:
            return parse(text)
        except ParseError as e:
            reasons.append(f"{label}: {e}")
            return None

    violation_bk = parsed(parse_facts, "violation facts", bundle.violation_facts)
    nominal_bk = parsed(parse_facts, "nominal facts", bundle.nominal_facts)
    pos_part = parsed(parse_examples, "violation examples", bundle.violation_examples)
    neg_part = parsed(parse_examples, "nominal examples", bundle.nominal_examples)
    if pos_part is not None and pos_part.negatives:
        reasons.append("negative example in violation-derived bundle")
    if neg_part is not None and neg_part.positives:
        reasons.append("positive example in nominal-derived bundle")

    parts = [bk for bk in (violation_bk, nominal_bk) if bk is not None]
    example_atoms = [
        a for part in (pos_part, neg_part) if part is not None for a in (*part.positives, *part.negatives)
    ]
    vocab, heads = bias.vocabulary, bias.head_predicates

    def flag(facts: list[Atom]) -> list[str]:
        flagged = [
            f"unknown predicate {a.predicate}/{a.arity}"
            for a in (*facts, *example_atoms)
            if vocab.get(a.predicate) != a.arity
        ]
        flagged += [
            f"example predicate is not a declared head predicate: {a.predicate}/{a.arity}"
            for a in example_atoms
            if a.predicate not in heads and vocab.get(a.predicate) == a.arity
        ]
        flagged += _type_conflicts((*facts, *example_atoms), bias.types_by_predicate)
        return flagged

    # whether anything is flagged does not depend on the order the facts are
    # read in, so a clean bundle is checked unordered; the reasons are listed
    # in each part's clause text order
    if flag([c.head for bk in parts for c in bk.clauses]):
        reasons.extend(dict.fromkeys(flag([c.head for bk in parts for c in bk])))

    if pos_part is None or neg_part is None:
        return None, reasons
    try:
        # the parser has made each side ground and duplicate-free
        examples = labelled_examples(pos_part.positives, neg_part.negatives)
    except ValueError as e:
        return None, [*reasons, str(e)]
    if not examples.positives:
        reasons.append("no positive example")
    if reasons:
        return None, reasons
    # a subset check reads every fact at once, so the union is built here
    background = Program(violation_bk.clauses | nominal_bk.clauses)
    return SubsetInstance(bundle.id, bundle.timestamp, background, examples), []


def validate_bundle(source: BundleSource, bias: BiasSpec, attempts: int) -> ValidationOutcome:
    """Check a bundle, re-fetching up to `attempts` times on failure.

    Rejection is a normal outcome carrying the per-attempt reasons; I/O
    failures from the fetch hook propagate as exceptions.  Every attempt
    fetches, but a bundle equal to the previous attempt's is not checked
    again: it fails for the same reasons, which are logged under the new
    attempt number.
    """
    if attempts < 1:
        raise ValueError("attempts must be >= 1")
    collected: list[str] = []
    previous = None
    for attempt in range(1, attempts + 1):
        bundle = source.fetch(attempt)
        if bundle != previous:
            subset, reasons = _check_bundle(bundle, bias)
            previous = bundle
        if subset is not None:
            return ValidationOutcome(
                bundle_id=source.id,
                timestamp=source.timestamp,
                accepted=True,
                attempts_used=attempt,
                reasons=tuple(collected),
                subset=subset,
            )
        collected.extend(f"attempt {attempt}: {r}" for r in reasons)
    return ValidationOutcome(
        bundle_id=source.id,
        timestamp=source.timestamp,
        accepted=False,
        attempts_used=attempts,
        reasons=tuple(collected),
    )


# ------------------------------------------------------------- subset checks


@dataclass(frozen=True)
class SubsetCheck:
    subset_id: str
    outcome: str  # solver outcome tag
    reliable: bool
    clause_count: int = 0


def check_subsets(
    subsets: list[SubsetInstance],
    bias: BiasSpec,
    config: PipelineConfig,
    cache: CoverCache | None = None,
) -> tuple[list[SubsetInstance], list[SubsetCheck]]:
    """Keep the subsets that admit an exact-fit hypothesis on their own.

    Order is preserved.  Each solve runs in a session of its own; the
    sessions share ``cache`` when one is passed, so aggregation can reuse
    their tables, and each has a fresh cache otherwise.  ``config`` is not
    read (its ``jobs`` no longer starts a pool); the parameter stays for
    existing callers.
    """
    results = [learner.solve(s.background, s.examples, bias, Session(cache)) for s in subsets]
    reliable: list[SubsetInstance] = []
    checks: list[SubsetCheck] = []
    for subset, res in zip(subsets, results):
        ok = res.outcome == "hypothesis"
        if ok:
            reliable.append(subset)
        checks.append(
            SubsetCheck(
                subset_id=subset.id,
                outcome=res.outcome,
                reliable=ok,
                clause_count=len(res.hypothesis.clauses) if res.hypothesis else 0,
            )
        )
    return reliable, checks


# --------------------------------------------------------------- aggregation


@dataclass(frozen=True)
class CandidateDecision:
    trial: int
    subset_id: str
    action: str  # "accepted" | "retained_partial" | "discarded"
    solver_outcome: str
    removed_positives: tuple[str, ...] = ()
    removed_negatives: tuple[str, ...] = ()


@dataclass(frozen=True)
class AggregationState:
    accepted_ids: tuple[str, ...]
    background: Program
    examples: ExampleSet
    hypothesis: Program
    trial_log: tuple[CandidateDecision, ...]


def _empty_state() -> AggregationState:
    return AggregationState((), Program.of(()), ExampleSet.of((), ()), Program.of(()), ())


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    order: tuple[str, ...]
    accepted_count: int
    fail_frac: float
    success: bool


@dataclass(frozen=True)
class AggregationOutcome:
    best: AggregationState
    best_trial: int
    trials: tuple[TrialRecord, ...]
    early_stopped: bool


def _try_union(
    session: Session,
    background: Program,
    pos,
    neg,
    bias: BiasSpec,
) -> tuple[learner.SolverResult | None, ExampleSet | None]:
    """Solve the state's examples plus a (possibly reduced) candidate's.

    `background` is the state's background already unioned with the
    candidate's, so callers union once per candidate, not once per solve.
    """
    examples = session.join(pos, neg)
    if examples is None:
        # candidate contradicts the accepted labels outright
        return None, None
    res = learner.solve(background, examples, bias, session)
    return res, examples


def _acceptable(res: learner.SolverResult | None) -> bool:
    return res is not None and res.outcome == "hypothesis" and bool(res.hypothesis.clauses)


def retain_partial(
    session: Session,
    subset: SubsetInstance,
    background: Program,
    bias: BiasSpec,
):
    """Peel examples off a failed candidate until the union solves again.

    `session` holds the state's examples, and `background` is the state's
    background unioned with the candidate's, as the failed whole-subset
    attempt built it.  Removal is cumulative, newest-parsed first, negatives
    before positives; at least one of the candidate's own positives must
    survive.  Returns (removed_pos, removed_neg, result, background,
    examples) or None when every reduction fails.
    """
    pos = list(subset.examples.positives)
    neg = list(subset.examples.negatives)
    removed_pos: list[Atom] = []
    removed_neg: list[Atom] = []
    while neg or len(pos) > 1:
        if neg:
            removed_neg.append(neg.pop())
        else:
            removed_pos.append(pos.pop())
        res, examples = _try_union(session, background, pos, neg, bias)
        if _acceptable(res):
            return removed_pos, removed_neg, res, background, examples
    return None


def aggregate(
    reliable: list[SubsetInstance],
    bias: BiasSpec,
    config: PipelineConfig,
    on_accept: Callable[[int, AggregationState], None] | None = None,
    cache: CoverCache | None = None,
) -> AggregationOutcome:
    """Grow the best consistent union of subsets over up to max_retries trials.

    Trial 1 takes subsets chronologically; later trials reshuffle with a
    per-trial seeded stream.  A trial succeeds when its final hypothesis is
    non-empty; the best trial is the first one with (success, then larger
    accepted count) winning.  Trials stop early once the dropped-subset
    fraction is within retry_fail_threshold.

    on_accept(trial, state) fires after every accepted candidate; the
    state is training-correct, as the solver's self-check has confirmed.
    Each trial runs in a session over ``cache``, a fresh cache when none is
    passed.
    """
    if not reliable:
        return AggregationOutcome(_empty_state(), 0, (), False)

    chronological = sorted(reliable, key=lambda s: (s.timestamp, s.id))
    if cache is None:
        cache = CoverCache()
    best = _empty_state()
    best_trial = 0
    best_k = -1
    best_success = False
    trials: list[TrialRecord] = []
    early = False

    for t in range(1, config.max_retries + 1):
        order = list(chronological)
        if t > 1:
            random.Random(f"{config.seed}:trial:{t}").shuffle(order)
        state = _run_trial(order, t, bias, config, cache, on_accept)
        k = len(state.accepted_ids)
        fail_frac = 1.0 - k / len(reliable)
        success = bool(state.hypothesis.clauses)
        trials.append(
            TrialRecord(
                trial=t,
                order=tuple(s.id for s in order),
                accepted_count=k,
                fail_frac=fail_frac,
                success=success,
            )
        )
        if (success and not best_success) or (success == best_success and k > best_k):
            best, best_trial, best_k, best_success = state, t, k, success
        if fail_frac <= config.retry_fail_threshold:
            early = t < config.max_retries
            break

    return AggregationOutcome(best=best, best_trial=best_trial, trials=tuple(trials), early_stopped=early)


def _run_trial(
    order: list[SubsetInstance],
    trial: int,
    bias: BiasSpec,
    config: PipelineConfig,
    cache: CoverCache,
    on_accept,
) -> AggregationState:
    # config is not read; tests/test_acceptance.py drives trials through
    # this signature, so it stays
    state = _empty_state()
    session = Session(cache)
    log: list[CandidateDecision] = []
    for subset in order:
        background = state.background.union(subset.background)
        pos, neg = subset.examples.positives, subset.examples.negatives
        res, examples = _try_union(session, background, pos, neg, bias)
        partial = not _acceptable(res)
        removed_pos = removed_neg = ()
        if partial:
            reduced = retain_partial(session, subset, background, bias)
            if reduced is None:
                log.append(
                    CandidateDecision(
                        trial=trial,
                        subset_id=subset.id,
                        action="discarded",
                        solver_outcome=res.outcome if res is not None else "contradiction",
                    )
                )
                state = replace(state, trial_log=tuple(log))
                continue
            removed_pos, removed_neg, res, background, examples = reduced
        # the solve that produced this step has verified the state
        log.append(
            CandidateDecision(
                trial=trial,
                subset_id=subset.id,
                action="retained_partial" if partial else "accepted",
                solver_outcome=res.outcome,
                removed_positives=tuple(str(a) for a in removed_pos),
                removed_negatives=tuple(str(a) for a in removed_neg),
            )
        )
        session.commit(examples)
        state = AggregationState(
            accepted_ids=(*state.accepted_ids, subset.id),
            background=background,
            examples=examples,
            hypothesis=res.hypothesis,
            trial_log=tuple(log),
        )
        if on_accept is not None:
            on_accept(trial, state)
    return state


# ------------------------------------------------------------------- pruning


@dataclass(frozen=True)
class RuleSupport:
    rule: str
    support: int
    kept: bool


def prune_by_support(
    hypothesis: Program,
    background: Program,
    positives,
    threshold_fraction: float,
) -> tuple[Program, tuple[RuleSupport, ...]]:
    """Keep rules whose standalone positive coverage is within a fraction of
    the best rule's.

    Supports come from one background store (``entailment.rule_supports``),
    which needs a hypothesis whose rule bodies use none of its head
    predicates, as every learned one is; ValueError otherwise.
    """
    rules = hypothesis.rules()
    if not rules:
        return Program.of(()), ()
    supports = rule_supports(rules, background, positives)
    cutoff = threshold_fraction * max(supports)
    records = tuple(
        RuleSupport(rule=print_clause(r), support=s, kept=s >= cutoff)
        for r, s in zip(rules, supports)
    )
    kept = [r for r, s in zip(rules, supports) if s >= cutoff]
    return Program.of(kept), records


# ------------------------------------------------------------------ pipeline


@dataclass(frozen=True)
class PipelineReport:
    validation: tuple[ValidationOutcome, ...]
    subset_checks: tuple[SubsetCheck, ...]
    aggregation: AggregationOutcome
    pruning: tuple[RuleSupport, ...]
    final_hypothesis: Program
    emptied_at: str | None  # stage name when the pipeline came up empty

    @property
    def pre_prune_rule_count(self) -> int:
        return len(self.aggregation.best.hypothesis.clauses)


def run_checks(
    sources: list[BundleSource],
    bias: BiasSpec,
    config: PipelineConfig,
    cache: CoverCache | None = None,
) -> tuple[tuple[ValidationOutcome, ...], list[SubsetInstance], list[SubsetCheck]]:
    """Stages 1-2: (validation outcomes, reliable subsets, one check per valid subset)."""
    outcomes = tuple(
        validate_bundle(src, bias, config.validation_attempts) for src in sources
    )
    subsets = [o.subset for o in outcomes if o.accepted and o.subset is not None]
    reliable, checks = check_subsets(subsets, bias, config, cache)
    return outcomes, reliable, checks


def run_pipeline(sources: list[BundleSource], bias: BiasSpec, config: PipelineConfig) -> PipelineReport:
    # one cache for stages 2 and 3: aggregation reuses the subset checks' tables
    cache = CoverCache()
    outcomes, reliable, checks = run_checks(sources, bias, config, cache)
    agg = aggregate(reliable, bias, config, cache=cache)

    best = agg.best
    pruned, prune_records = prune_by_support(
        best.hypothesis, best.background, best.examples.positives, config.support_threshold
    )
    if learner.verify(best.background, pruned, best.examples).covered_negatives:
        raise RuntimeError("pruned hypothesis covers an aggregated negative")

    if not sources:
        emptied = "no_bundles"
    elif not checks:
        emptied = "validation"
    elif not reliable:
        emptied = "subset_checks"
    elif not best.hypothesis.clauses:
        emptied = "aggregation"
    elif not pruned.clauses:
        emptied = "pruning"
    else:
        emptied = None

    return PipelineReport(
        validation=outcomes,
        subset_checks=tuple(checks),
        aggregation=agg,
        pruning=prune_records,
        final_hypothesis=pruned,
        emptied_at=emptied,
    )
