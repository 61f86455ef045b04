"""Reference rule learner: bounded enumeration plus greedy set cover.

The hypothesis space is every well-formed clause under the bias: a declared
head predicate with distinct head variables, at most max_body body literals
drawn from the declared body predicates (head predicates are excluded from
bodies, so learned programs are non-recursive), at most max_vars distinct
variables, type-consistent argument use, range-restricted and connected,
one entry per renaming-equivalence class.  The stream is ordered by body
length, then canonical text.

Each class is made once, already in canonical form, so no body is
canonicalised and none deduped.  A canonical body lists its predicates in
sorted order, which is the order predicate combinations are drawn in, and
numbers its variables by first occurrence, which is the restricted growth
the variable assignments are drawn in.  A body whose predicates are all
distinct has one such order, so each connected assignment is canonical and
no two are renamings of each other.  Where a predicate repeats, an
assignment is kept only if no reordering of its literals reads less
(``logic.least_order``), and bodies that repeat a literal are skipped.
Bodies are checked on integer literals, and atoms and clauses are built
only for the clauses kept.

solve() scores every candidate through a ``cover.Session``: each example
has one bit there, each slotted body group one mask and each candidate the
AND of its groups' masks, and a solve over a trial's session updates only
what its subset adds.  It keeps the clauses that derive no negative example
and at least one positive not already a fact, then greedily picks clauses
until all positives are covered.  Ties fall to fewer body literals, then
canonical text.  The result is re-checked against the fixpoint engine
before it is returned.

A solve has no deadline: the hypothesis space is finite and greedy cover
stops at max_clauses, so every solve ends, and its outcome depends on the
evidence alone, never on how fast the machine is.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Iterator

from . import cover
from .logic import (
    Atom,
    BiasSpec,
    Clause,
    ExampleSet,
    Literal,
    PredDecl,
    Program,
    connected_groups,
    least_order,
    var,
)

_VARS = tuple(var(f"V{i}") for i in range(64))


def _typed_positions(decl: PredDecl) -> tuple[str | None, ...]:
    return decl.types if decl.types is not None else (None,) * decl.arity


def _assignments(
    slots: tuple[str | None, ...],
    n_head: int,
    head_types: tuple[str | None, ...],
    max_vars: int,
) -> Iterator[tuple[int, ...]]:
    """Variable index tuples for the body positions, one per slot.

    Indices 0..n_head-1 are the head variables.  New variables appear in
    first-use order (restricted growth), which rules out renamed duplicates
    at the source.  Type conflicts prune the branch; a position with no
    declared type neither constrains nor learns a variable's type.
    """
    n = len(slots)
    assigned: list[int] = [0] * n
    types: list[str | None] = list(head_types) + [None] * (max_vars - n_head)
    seen_head = [False] * n_head

    def rec(pos: int, used: int) -> Iterator[tuple[int, ...]]:
        if pos == n:
            if all(seen_head):
                yield tuple(assigned)
            return
        missing = sum(1 for s in seen_head if not s)
        if missing > n - pos:
            return
        want = slots[pos]
        limit = min(used + 1, max_vars)
        for v in range(limit):
            have = types[v]
            if want is not None and have is not None and want != have:
                continue
            assigned[pos] = v
            old = have
            if want is not None and have is None:
                types[v] = want
            first_head = v < n_head and not seen_head[v]
            if first_head:
                seen_head[v] = True
            yield from rec(pos + 1, max(used, v + 1))
            if first_head:
                seen_head[v] = False
            types[v] = old

    yield from rec(0, n_head)


def _clauses_of_length(bias: BiasSpec, head: PredDecl, length: int) -> list[Clause]:
    if head.arity > bias.max_vars:
        return []
    body_decls = [d for d in bias.body_decls if d.predicate not in bias.head_predicates]
    body_decls.sort(key=lambda d: (d.predicate, d.arity))
    n_head = head.arity
    head_atom = Atom(head.predicate, _VARS[:n_head])
    head_types = _typed_positions(head)
    atoms: dict[Literal, Atom] = {}

    out = []
    for combo in itertools.combinations_with_replacement(body_decls, length):
        slots = tuple(t for d in combo for t in _typed_positions(d))
        if len(slots) < n_head:
            continue
        repeats = len(set(combo)) < length
        starts = list(itertools.accumulate((d.arity for d in combo), initial=0))
        for assignment in _assignments(slots, n_head, head_types, bias.max_vars):
            body = [(d.predicate, assignment[i : i + d.arity]) for d, i in zip(combo, starts)]
            # connected: the head's variables and the literals' arguments
            # form one group of shared variables
            if len(connected_groups([range(n_head), *(args for _, args in body)], lambda args: args)) > 1:
                continue
            # predicates in sorted order and variables numbered by first use
            # make the body canonical unless a repeated predicate's literals
            # read less in another order
            if repeats and (
                len(set(body)) < length or least_order(body, n_head, bias.max_vars, body) is None
            ):
                continue
            lits = []
            for lit in body:
                a = atoms.get(lit)
                if a is None:
                    a = atoms[lit] = Atom(lit[0], tuple(_VARS[v] for v in lit[1]))
                lits.append(a)
            out.append(Clause(head_atom, tuple(lits)))
    return out


def enumerate_clauses(bias: BiasSpec) -> Iterator[Clause]:
    """The full hypothesis space for a bias in canonical form, smallest
    bodies first; each clause's str() is its canonical text."""
    for length in range(1, bias.max_body + 1):
        block = [c for head in bias.head_decls for c in _clauses_of_length(bias, head, length)]
        yield from sorted(block, key=str)


@lru_cache(maxsize=8)
def candidate_list(bias: BiasSpec) -> cover.CandidateList:
    """Compiled hypothesis space with its slotted groups numbered, cached per bias."""
    return cover.CandidateList(enumerate_clauses(bias))


@dataclass(frozen=True)
class SolverStats:
    clauses_enumerated: int = 0
    candidates_negative_safe: int = 0


@dataclass(frozen=True)
class SolverResult:
    outcome: str  # "hypothesis" | "no_hypothesis"
    hypothesis: Program | None
    stats: SolverStats = field(default_factory=SolverStats)


@dataclass(frozen=True)
class Verification:
    status: str  # "consistent" | "incomplete" | "unsound"
    missed_positives: tuple[Atom, ...]
    covered_negatives: tuple[Atom, ...]


def verify(
    background: Program,
    hypothesis: Program,
    examples: ExampleSet,
    session: cover.Session | None = None,
) -> Verification:
    """Check a hypothesis against examples with the fixpoint engine.

    ``session`` carries its last consistent check's model forward when the
    hypothesis is unchanged and the background has only grown
    (``Session.check``); a fresh session builds the model from scratch.
    """
    if session is None:
        session = cover.Session()
    unreached, reached = session.check(background, hypothesis, examples)
    missed = tuple(sorted(unreached, key=str))
    bad = tuple(sorted(reached, key=str))
    if bad:
        status = "unsound"
    elif missed:
        status = "incomplete"
    else:
        status = "consistent"
    return Verification(status=status, missed_positives=missed, covered_negatives=bad)


def solve(
    background: Program,
    examples: ExampleSet,
    bias: BiasSpec,
    session: cover.Session | None = None,
) -> SolverResult:
    """Learn a smallest-first greedy hypothesis that fits the examples exactly.

    Success means every positive is derivable from background plus hypothesis
    and no negative is.  A trial's session makes repeated calls over a
    growing background cheap: each call is an attempt over the session's
    committed state, which numbers, checks and scores only what the call
    adds (``cover.Session.attempt``), and the self-check carries the
    session's last model forward.  A fresh session serves a solve that
    passes none.
    """
    if session is None:
        session = cover.Session()
    heads, vocab = bias.head_predicates, bias.vocabulary
    for pred, arity in session.heads(examples):
        if pred not in heads or vocab[pred] != arity:
            raise ValueError(f"example predicate {pred}/{arity} is not a declared head predicate")
    candidates = candidate_list(bias)
    stats = SolverStats(clauses_enumerated=len(candidates))

    def done(outcome: str, hyp: Program | None, safe: int = 0) -> SolverResult:
        return SolverResult(outcome, hyp, replace(stats, candidates_negative_safe=safe))

    attempt = session.attempt(background, examples, candidates)
    negatives, facts = attempt.negatives, attempt.facts
    # a negative already present as a fact can never be separated
    if facts & negatives:
        return done("no_hypothesis", None)
    uncovered = attempt.positives & ~facts
    if not uncovered:
        return done("hypothesis", Program.of(()))

    safe, usable = attempt.cover()
    usable = [(cand, got) for cand, got in usable if got & uncovered]

    chosen: list[Clause] = []
    while uncovered:
        if len(chosen) >= bias.max_clauses:
            return done("no_hypothesis", None, safe)
        best = None
        best_key = None
        for cand, got in usable:
            gain = (got & uncovered).bit_count()
            if gain == 0:
                continue
            key = (-gain, cand.body_len, cand.text)
            if best_key is None or key < best_key:
                best, best_key = (cand, got), key
        if best is None:
            return done("no_hypothesis", None, safe)
        chosen.append(best[0].clause)
        uncovered &= ~best[1]

    # enumerate_clauses yields canonical clauses, so no canonicalising here
    hypothesis = Program(frozenset(chosen))
    check = verify(background, hypothesis, examples, session)
    if check.status != "consistent":
        raise RuntimeError(
            f"solver self-check failed ({check.status}) for hypothesis:\n{hypothesis}"
        )
    return done("hypothesis", hypothesis, safe)
