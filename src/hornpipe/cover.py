"""Fast per-clause coverage for candidate evaluation inside the solver.

A candidate clause has a head with distinct variables and a connected body,
so for a ground head binding the body splits into groups tied together only
through head variables.  Each group can only match inside one
constant-connected component of the fact store.  A group is kept as a rule
of its own: the candidate's head predicate over the head variables the
group binds, with the group's literals as its body.  Its solutions in a
component (projections of its matches onto those head variables) are the
heads that rule derives when ``entailment.fire`` runs it once over the
component, through the same planned join as the fixpoint engine.  They are
unioned over components, and example coverage reduces to set lookups.
Results are exact: equivalence with the fixpoint engine and with an
exhaustive oracle is property-tested.

The cache is keyed by component content and then by group content, a text
of the group's rule that is the same under any renaming of its variables.
Candidates that share a group therefore share its solutions, each group is
solved once per component, and one cache serves any candidate list.
Repeated solver calls over a growing background (the aggregation loop)
reuse every unchanged component.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .entailment import CompiledRule, Fact, FactStore, fire
from .logic import Atom, Clause


@dataclass(frozen=True)
class Group:
    head_slots: tuple[int, ...]  # head-arg indices this group binds, ascending
    preds: frozenset[str]
    rule: Clause  # head: the head variables at head_slots; body: the group's literals
    key: str  # the rule's content up to renaming: head arity, then numbered literals

    @cached_property
    def compiled(self) -> CompiledRule:
        # built on the first cache miss, so compiling a bias stays cheap
        return CompiledRule(self.rule)


@dataclass(frozen=True)
class Candidate:
    """A compiled hypothesis-space clause."""

    clause: Clause
    text: str
    body_len: int
    groups: tuple[Group, ...]

    @property
    def head_arity(self) -> int:
        return self.clause.head.arity


def compile_candidate(clause: Clause, text: str) -> Candidate:
    head = clause.head
    head_vars = list(head.args)
    if len(set(head_vars)) != len(head_vars) or any(t.is_const() for t in head_vars):
        raise ValueError(f"candidate head must have distinct variables: {clause}")
    head_slot = {v: i for i, v in enumerate(head_vars)}

    # group body literals by shared existential variables
    n = len(clause.body)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    owner: dict = {}
    for i, lit in enumerate(clause.body):
        if any(t.is_const() for t in lit.args):
            raise ValueError(f"candidate clauses must be constant-free: {clause}")
        for v in lit.variables():
            if v in head_slot:
                continue
            if v in owner:
                ra, rb = find(i), find(owner[v])
                if ra != rb:
                    parent[ra] = rb
            else:
                owner[v] = i

    members: dict[int, list[Atom]] = {}
    for i in range(n):
        members.setdefault(find(i), []).append(clause.body[i])

    groups = []
    for lits in members.values():
        slots = tuple(sorted({head_slot[v] for lit in lits for v in lit.args if v in head_slot}))
        if not slots:
            # connectedness guarantees every group touches the head
            raise ValueError(f"group without head variables in {clause}")
        # the group rule's head variables are numbered by position, the others
        # by first occurrence; the arity prefix keeps h(V0):- p(V0,V1) and
        # h(V0,V1):- p(V0,V1) apart
        num = {head_vars[s]: i for i, s in enumerate(slots)}
        body = ",".join(
            f"{lit.predicate}({','.join(str(num.setdefault(v, len(num))) for v in lit.args)})"
            for lit in lits
        )
        groups.append(
            Group(
                head_slots=slots,
                preds=frozenset(lit.predicate for lit in lits),
                rule=Clause(Atom(head.predicate, tuple(head_vars[s] for s in slots)), tuple(lits)),
                key=f"{len(slots)}:{body}",
            )
        )
    groups.sort(key=lambda g: g.head_slots)
    return Candidate(clause=clause, text=text, body_len=n, groups=tuple(groups))


class _ComponentView:
    """One constant-connected component, keyed by its facts."""

    __slots__ = ("key", "preds")

    def __init__(self, facts: set[Fact]):
        self.key = frozenset(facts)
        self.preds = frozenset(pred for pred, _ in facts)


class CoverCache:
    """Per-component group solutions, shared across solver calls."""

    def __init__(self) -> None:
        self.tables: dict[frozenset[Fact], dict[str, frozenset]] = {}

    def table(self, view: _ComponentView, groups: Iterable[Group]) -> dict[str, frozenset]:
        """The component's solutions by group key, firing the groups it lacks."""
        table = self.tables.setdefault(view.key, {})
        store = None
        for group in groups:
            if group.key in table or not group.preds <= view.preds:
                continue
            if store is None:
                store = FactStore(view.key)
            heads: set[Fact] = set()
            fire(group.compiled, store, heads)
            table[group.key] = frozenset(args for _, args in heads)
        return table


@dataclass
class CandidateCoverage:
    """Union-of-components solutions per group, for one candidate."""

    candidate: Candidate
    group_unions: list[set]  # parallel to candidate.groups

    def complete(self) -> bool:
        return all(self.group_unions)

    def covers(self, args: tuple[str, ...]) -> bool:
        for group, union in zip(self.candidate.groups, self.group_unions):
            if tuple(args[s] for s in group.head_slots) not in union:
                return False
        return True


def coverage_tables(
    candidates: list[Candidate], store: FactStore, cache: CoverCache | None = None
) -> list[CandidateCoverage]:
    """Per-candidate group-solution unions over the store's components."""
    if cache is None:
        cache = CoverCache()
    groups = {g.key: g for cand in candidates for g in cand.groups}
    unions: dict[str, set] = {key: set() for key in groups}
    for facts in store.components():
        for key, sols in cache.table(_ComponentView(facts), groups.values()).items():
            if key in unions:
                unions[key].update(sols)
    return [
        CandidateCoverage(candidate=cand, group_unions=[unions[g.key] for g in cand.groups])
        for cand in candidates
    ]


def covered_atoms(cov: CandidateCoverage, wanted: dict[tuple[str, ...], Atom]) -> set[Atom]:
    """Which of the wanted ground atoms (args -> atom) the candidate covers.

    Enumerates whichever side is smaller: the candidate's own derivations
    (single-group case) or the wanted list.
    """
    if not cov.complete():
        return set()
    groups = cov.candidate.groups
    if len(groups) == 1 and len(groups[0].head_slots) == cov.candidate.head_arity:
        sols = cov.group_unions[0]
        if len(sols) <= len(wanted):
            return {wanted[s] for s in sols if s in wanted}
    return {a for args, a in wanted.items() if cov.covers(args)}


def covers_any(cov: CandidateCoverage, wanted: dict[tuple[str, ...], Atom]) -> bool:
    """Short-circuit variant of covered_atoms for the negative-safety check."""
    if not cov.complete():
        return False
    groups = cov.candidate.groups
    if len(groups) == 1 and len(groups[0].head_slots) == cov.candidate.head_arity:
        sols = cov.group_unions[0]
        if len(sols) <= len(wanted):
            return any(s in wanted for s in sols)
        return any(args in sols for args in wanted)
    return any(cov.covers(args) for args in wanted)
