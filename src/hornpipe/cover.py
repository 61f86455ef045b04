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
unioned over components.

Examples are scored once per distinct group projection per solve, not once
per candidate.  A WantedSet holds one head predicate's negatives (or
positives) and memoises, for each distinct ``(head_slots, key)``, a bitmask
of the atoms that group's solutions reach.  A candidate covers a negative
exactly when the AND of its groups' masks is non-zero, and its covered
positives are the set bits of that AND.  Results are exact: equivalence
with the fixpoint engine and with exhaustive oracles is property-tested.

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


def coverage_tables(
    candidates: list[Candidate], store: FactStore, cache: CoverCache | None = None
) -> list[CandidateCoverage]:
    """Per-candidate group-solution unions over the store's components.

    Candidates that share a group key share one union object, which is what
    lets a WantedSet score that group once for all of them.
    """
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


class WantedSet:
    """One head predicate's wanted ground atoms in a fixed order, with a
    memoised hit mask per body group.

    Bit i of a group's mask is set when atom i's arguments at the group's
    head slots are among the group's solutions.  A candidate derives atom i
    exactly when bit i is set in every one of its groups' masks, so a
    candidate's verdict is the AND of masks computed once per distinct
    ``(head_slots, key)``.  The slots belong in the memo key because a group
    key omits them: ``h(X,Y):- p(X)`` and ``h(X,Y):- p(Y)`` share the key of
    ``p``'s group.  A mask is reused only for the very union object it was
    computed from, so a wanted set handed tables from another store
    recomputes rather than answers for the wrong one.
    """

    def __init__(self, atoms: Iterable[Atom]):
        self.atoms = tuple(atoms)
        self._args = [tuple(t.name for t in a.args) for a in self.atoms]
        self._projections: dict[tuple[int, ...], dict[tuple[str, ...], int]] = {}
        self._masks: dict[tuple[tuple[int, ...], str], tuple[set, int]] = {}

    def __len__(self) -> int:
        return len(self.atoms)

    def mask(self, group: Group, union: set) -> int:
        """The wanted atoms the group's solutions ``union`` reach, as a bitmask."""
        memo_key = (group.head_slots, group.key)
        memo = self._masks.get(memo_key)
        if memo is None or memo[0] is not union:
            memo = self._masks[memo_key] = (union, self._hits(group.head_slots, union))
        return memo[1]

    def _hits(self, slots: tuple[int, ...], union: set) -> int:
        proj = self._projections.get(slots)
        if proj is None:
            proj = self._projections[slots] = {}
            for i, args in enumerate(self._args):
                key = tuple(args[s] for s in slots)
                proj[key] = proj.get(key, 0) | 1 << i
        # walk whichever side is smaller: the group's solutions or the
        # distinct projections of the wanted atoms
        out = 0
        if len(union) < len(proj):
            for sol in union:
                out |= proj.get(sol, 0)
        else:
            for key, bits in proj.items():
                if key in union:
                    out |= bits
        return out

    def atoms_of(self, mask: int) -> set[Atom]:
        out = set()
        while mask:
            low = mask & -mask
            out.add(self.atoms[low.bit_length() - 1])
            mask ^= low
        return out


def _hit_mask(cov: CandidateCoverage, wanted: WantedSet) -> int:
    """The wanted atoms the candidate derives: the AND of its groups' masks."""
    if not wanted or not cov.complete():
        return 0
    out = (1 << len(wanted)) - 1
    # no early exit when the AND reaches zero: a mask is computed once per
    # solve either way, and taking them all keeps that count exact
    for group, union in zip(cov.candidate.groups, cov.group_unions):
        out &= wanted.mask(group, union)
    return out


def covered_atoms(cov: CandidateCoverage, wanted: WantedSet) -> set[Atom]:
    """Which of the wanted ground atoms the candidate covers."""
    return wanted.atoms_of(_hit_mask(cov, wanted))


def covers_any(cov: CandidateCoverage, wanted: WantedSet) -> bool:
    """Whether the candidate covers any wanted atom: the negative-safety check."""
    return _hit_mask(cov, wanted) != 0
