"""Fast per-clause coverage for candidate evaluation inside the solver.

A candidate clause has a head with distinct variables and a connected body,
so for a ground head binding the body splits into groups tied together only
through head variables.  A group's literals are connected through its
existential variables, so each of its matches lies inside one
constant-connected component of the fact store.  A group is kept as a rule
of its own: the candidate's head predicate over the head variables the
group binds, with the group's literals as its body.  Its solutions in a
set of whole components (projections of its matches onto those head
variables) are the heads that rule derives when ``entailment.fire`` runs it
once over them, through the same planned join as the fixpoint engine: the
union of its solutions in each component.

Examples are scored once per slotted group per solve, not once per
candidate.  A CandidateList, built once per bias, numbers the distinct
slotted groups ``(head predicate, head arity, head_slots, key)``, gives
each candidate the indices of its own, and holds each distinct group once,
so a solve finds the groups the cache lacks without walking the candidates.
A solve numbers its positives and negatives once, in one WantedSet, reads
each slotted group's union once and computes one bitmask per slotted
group: the wanted atoms of the group's head that its solutions reach.  A
candidate's verdict is then one AND of its groups' masks: the atoms it
derives are the set bits, so it covers a negative exactly when a negative's
bit is set.
Results are exact: equivalence with the fixpoint engine and with exhaustive
oracles is property-tested.

The cache is keyed by the content of the facts a solve adds and then by
group content, a text of the group's rule that is the same under any
renaming of its variables.  Candidates that share a group therefore share
its solutions, each group fires at most once per solve, and one cache
serves any candidate list.  A later solve that adds the same facts fires
nothing: an aggregation step that adds a subset whose constants are new to
the state reads the table that subset's own check made, when both stages
share the cache.

One Session holds an aggregation trial's committed state over a shared
cache: the committed examples and their labels, the solved form of the
committed background and of the last one solved, and the least model of the
last self-check that found its hypothesis consistent.  A solved form is the
component of each constant and each group's union of solutions; each
background fact is held once, in its component, and fact membership is read
from there.  Along a trial the background only grows, so a solve derives
its form from the committed one when its background extends it: only the
new facts are converted, they merge the components they share a constant
with, the groups fire once over the new facts and the base components they
touch, and only the unions this changes are rebuilt.  The result equals a
from-scratch solve, which is property-tested.

When a self-check has the hypothesis of the session's last consistent one
over a superset of that background, as along a trial whenever the
hypothesis holds, the model is carried forward: only the new facts are
inserted, semi-naive rounds run from them, the inserted facts are tested
against the old negatives and the new examples against the model.  A new
session or a changed hypothesis rebuilds it from the background program.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

from .entailment import (
    CompiledRule,
    Fact,
    FactStore,
    atom_to_fact,
    background_facts,
    compile_rules,
    consequences,
    fire,
    saturate,
)
from .logic import Atom, Clause, ExampleSet, Program, connected_groups


@dataclass(frozen=True)
class Group:
    preds: frozenset[str]
    rule: Clause  # head: the head variables the group binds; body: the group's literals
    key: str  # the rule's content up to renaming: head arity, then numbered literals

    @cached_property
    def compiled(self) -> CompiledRule:
        # built on the first cache miss, so compiling a bias stays cheap
        return CompiledRule(self.rule)


@dataclass(frozen=True)
class Candidate:
    """A compiled hypothesis-space clause."""

    clause: Clause
    body_len: int

    @cached_property
    def text(self) -> str:
        # read only for the candidates a solve can pick
        return str(self.clause)


class _Added:
    """The facts one solve adds, in one store keyed by their content."""

    __slots__ = ("key", "store")

    def __init__(self, facts: list[Fact]):
        self.key = frozenset(facts)
        self.store = FactStore(facts)


@dataclass(frozen=True, eq=False)
class SolvedBackground:
    """A background as the solver reads it: the component of each constant,
    and each group's solutions unioned over the components.

    A component is the frozenset of its facts.  A fact lies in the
    component of each of its constants, so the components also answer fact
    membership.  ``unions`` maps a group key to its solutions and omits
    groups that have none.  A published form is never mutated; a form
    derived from it copies what changes and shares the rest.
    """

    clauses: frozenset[Clause]
    component_of: dict[str, frozenset[Fact]]
    unions: dict[str, frozenset]

    def facts_in(self, wanted: WantedSet) -> int:
        """The wanted atoms that are background facts, as a bitmask: each
        looked up in the component of its first constant."""
        out = 0
        component_of = self.component_of
        for (pred, _), rows in wanted.by_head.items():
            for i, args in rows:
                facts = component_of.get(args[0])
                if facts is not None and (pred, args) in facts:
                    out |= 1 << i
        return out


_EMPTY = SolvedBackground(frozenset(), {}, {})


class _Verified(NamedTuple):
    """A self-check that found the hypothesis consistent: its background,
    hypothesis and least model, and the examples checked against that model,
    with each negative by its fact."""

    clauses: frozenset[Clause]
    hypothesis: frozenset[Clause]
    model: FactStore
    examples: ExampleSet
    negative_facts: dict[Fact, Atom]


class CoverCache:
    """Group solutions per added fact set, shared across solver calls."""

    def __init__(self) -> None:
        self.tables: dict[frozenset[Fact], dict[str, frozenset]] = {}

    def table(self, view: _Added, groups: Iterable[Group]) -> dict[str, frozenset]:
        """The added facts' solutions by group key, firing each group they
        lack once over all of them."""
        table = self.tables.setdefault(view.key, {})
        store = view.store
        preds = store.by_pred.keys()
        for group in groups:
            if group.key in table or not group.preds <= preds:
                continue
            heads: set[Fact] = set()
            fire(group.compiled, store, heads)
            table[group.key] = frozenset(args for _, args in heads)
        return table


class Session:
    """One aggregation trial's committed state over a shared cache.

    ``examples`` are the committed examples, which keep the order they were
    first seen in, and ``labels`` maps each to True for a positive and False
    for a negative.  The committed solved form is the last solve's form at
    the last commit.  A session serves one candidate list: given another,
    it drops its solved forms, whose unions cover the old list's groups only.
    """

    def __init__(self, cache: CoverCache | None = None) -> None:
        self.cache = cache if cache is not None else CoverCache()
        self.examples = ExampleSet()
        self.labels: dict[Atom, bool] = {}
        self._candidates: CandidateList | None = None
        self._committed = self._last = _EMPTY
        self._verified: _Verified | None = None

    def join(self, pos: Iterable[Atom], neg: Iterable[Atom]) -> ExampleSet | None:
        """The committed examples plus these, as ``ExampleSet.of`` orders
        them, or None when an atom would carry both labels.  A duplicate is
        absorbed.  Only the joining atoms are looked up, so a join costs in
        proportion to them, not to the state.  The session is unchanged."""
        new: dict[Atom, bool] = {}
        for label, atoms in ((True, pos), (False, neg)):
            for a in atoms:
                have = self.labels.get(a)
                if have is None:
                    have = new.setdefault(a, label)
                if have != label:
                    return None
        return self.examples.extended(
            tuple(a for a, label in new.items() if label), tuple(a for a, label in new.items() if not label)
        )

    def commit(self, examples: ExampleSet) -> None:
        """Take ``examples``, a join of this session, as the committed
        examples, and the last solve's form as the committed form."""
        labels = self.labels
        for a in examples.positives[len(self.examples.positives) :]:
            labels[a] = True
        for a in examples.negatives[len(self.examples.negatives) :]:
            labels[a] = False
        self.examples = examples
        self._committed = self._last

    def solved(self, background: Program, candidates: CandidateList) -> SolvedBackground:
        """The background's solved form, with unions for every candidate group.

        A background equal to the last one solved gets that form back, as
        peeling re-solves one background.  Any other is derived from the
        committed form when it extends that form's background, and from the
        empty form otherwise.
        """
        if candidates is not self._candidates:
            self._candidates = candidates
            self._committed = self._last = _EMPTY
        clauses = background.clauses
        if clauses != self._last.clauses:
            base = self._committed if self._committed.clauses <= clauses else _EMPTY
            self._last = self._extend(base, clauses)
        return self._last

    def _extend(self, base: SolvedBackground, clauses: frozenset[Clause]) -> SolvedBackground:
        """The solved form of ``clauses``, a superset of the base's background;
        the base itself when they are equal."""
        if clauses == base.clauses:
            return base
        new = list(background_facts(clauses - base.clauses))
        # a new fact joins every base component it shares a constant with
        touched = {base.component_of[c] for _, args in new for c in args if c in base.component_of}
        added = _Added([*new, *(f for facts in touched for f in facts)])
        component_of = dict(base.component_of)
        for facts in added.store.components():
            component = frozenset(facts)
            for _, args in facts:
                for c in args:
                    component_of[c] = component
        # every match of a group lies inside one component, so one firing over
        # the added facts unions the group's solutions in their components;
        # a merged component keeps every fact of the base components it
        # absorbed, so it still derives their solutions: adding these to the
        # base unions gives exactly the from-scratch unions
        unions = dict(base.unions)
        for key, sols in self.cache.table(added, self._candidates.groups.values()).items():
            if sols:
                unions[key] = unions.get(key, frozenset()) | sols
        return SolvedBackground(clauses, component_of, unions)

    def check(
        self, background: Program, hypothesis: Program, examples: ExampleSet
    ) -> tuple[list[Atom], list[Atom]]:
        """The positives that ``background ∪ hypothesis`` does not entail, and
        the negatives it does.

        When the hypothesis equals that of the session's last check that
        found neither and the background is a superset of that check's, its
        model is carried forward: the new facts go in and semi-naive rounds
        run from them (``entailment.saturate``).  A model only grows, so the
        positives checked then stay entailed, and a negative checked then can
        enter it only as a fact inserted now.  So when the examples extend
        the ones checked then, only the inserted facts are tested against the
        old negatives and only the new examples against the model.  Any other
        call builds the model from scratch.  The model is never handed out.
        """
        kept, self._verified = self._verified, None
        clauses = background.clauses
        if kept is not None and kept.hypothesis == hypothesis.clauses:
            new = clauses - kept.clauses
            if len(kept.clauses) + len(new) != len(clauses):
                kept = None  # not a superset
        else:
            kept = None
        if kept is not None:
            model = kept.model
            inserted = saturate(model, compile_rules(hypothesis), background_facts(new))
            old = kept.examples
            n_pos, n_neg = len(old.positives), len(old.negatives)
            negative_facts = kept.negative_facts
            if examples.positives[:n_pos] != old.positives or examples.negatives[:n_neg] != old.negatives:
                n_pos = n_neg = 0  # not an extension: check every example
                negative_facts = {}
        else:
            model = consequences(background, hypothesis)
            inserted = []
            n_pos = n_neg = 0
            negative_facts = {}
        bad = [negative_facts[f] for f in inserted if f in negative_facts]
        missed = [a for a in examples.positives[n_pos:] if atom_to_fact(a) not in model]
        for a in examples.negatives[n_neg:]:
            fact = atom_to_fact(a)
            if fact in model:
                bad.append(a)
            negative_facts[fact] = a
        if not missed and not bad:
            self._verified = _Verified(clauses, hypothesis.clauses, model, examples, negative_facts)
        return missed, bad


Slotted = tuple[str, int, tuple[int, ...], str]  # head predicate, head arity, head_slots, key


class CandidateList:
    """A hypothesis space's candidates in order, with their slotted groups
    numbered once.

    A slotted group is a group as a candidate scores it: ``(head predicate,
    head arity, head_slots, key)``.  A group key omits the head slots, so
    ``h(X,Y):- p(X)`` and ``h(X,Y):- p(Y)`` share the key of ``p``'s group,
    and it omits the head, which decides the wanted atoms a mask may reach.
    ``uses[i]`` indexes candidate i's slotted groups in ``slotted``, and
    ``groups`` maps each distinct group key to its group.

    Each clause's body is split into groups and each group numbered on
    integers; a slotted group is built once, at its first candidate, and
    the candidates that carry it share it.
    """

    __slots__ = ("candidates", "groups", "slotted", "uses")

    def __init__(self, clauses: Iterable[Clause]):
        # a slotted group's numbered content -> its index and group
        shared: dict[tuple, tuple[int, Group]] = {}
        candidates = []
        uses = []
        for clause in clauses:
            mine = []
            for content, lits in _split(clause):
                hit = shared.get(content)
                if hit is None:
                    hit = shared[content] = (len(shared), _group(clause.head, content, lits))
                mine.append(hit)
            candidates.append(Candidate(clause, len(clause.body)))
            uses.append(tuple(i for i, _ in mine))
        self.candidates = tuple(candidates)
        self.uses = tuple(uses)
        self.slotted: tuple[Slotted, ...] = tuple((*content[:3], g.key) for content, (_, g) in shared.items())
        self.groups: dict[str, Group] = {}
        for _, g in shared.values():
            self.groups.setdefault(g.key, g)

    def __len__(self) -> int:
        return len(self.candidates)

    def __iter__(self) -> Iterator[Candidate]:
        return iter(self.candidates)


def _split(clause: Clause) -> list[tuple[tuple, tuple[Atom, ...]]]:
    """The clause's body groups ordered by head slots, each as its numbered
    content ``(head predicate, head arity, head_slots, literals)`` and its
    literals."""
    head = clause.head
    head_vars = head.args
    head_slot = {v: i for i, v in enumerate(head_vars)}
    if len(head_slot) != len(head_vars) or any(t.is_const() for t in head_vars):
        raise ValueError(f"candidate head must have distinct variables: {clause}")
    if any(t.is_const() for lit in clause.body for t in lit.args):
        raise ValueError(f"candidate clauses must be constant-free: {clause}")

    parts = []
    # body literals grouped by shared existential variables
    for lits in connected_groups(clause.body, lambda lit: [v for v in lit.args if v not in head_slot]):
        slots = tuple(sorted({head_slot[v] for lit in lits for v in lit.args if v in head_slot}))
        if not slots:
            # connectedness guarantees every group touches the head
            raise ValueError(f"group without head variables in {clause}")
        # the group rule's head variables are numbered by position, the others
        # by first occurrence
        num = {head_vars[s]: i for i, s in enumerate(slots)}
        body = tuple((lit.predicate, tuple([num.setdefault(v, len(num)) for v in lit.args])) for lit in lits)
        parts.append(((head.predicate, len(head_vars), slots, body), tuple(lits)))
    parts.sort(key=lambda part: part[0][2])
    return parts


def _group(head: Atom, content: tuple, lits: tuple[Atom, ...]) -> Group:
    _, _, slots, body = content
    # the arity prefix keeps h(V0):- p(V0,V1) and h(V0,V1):- p(V0,V1) apart
    key = f"{len(slots)}:" + ",".join(f"{pred}({','.join(map(str, args))})" for pred, args in body)
    rule = Clause(Atom(head.predicate, tuple(head.args[s] for s in slots)), lits)
    return Group(frozenset(pred for pred, _ in body), rule, key)


@dataclass(frozen=True)
class CoverTables:
    """Each slotted group's union of solutions in one solved background."""

    candidates: CandidateList
    unions: tuple[frozenset, ...]  # parallel to candidates.slotted; empty when a group has none


def coverage_tables(candidates: CandidateList, solved: SolvedBackground) -> CoverTables:
    """The slotted groups' unions, read from the background's solved form for
    these candidates (``Session.solved``)."""
    unions = solved.unions
    none: frozenset = frozenset()
    return CoverTables(candidates, tuple(unions.get(key, none) for *_, key in candidates.slotted))


class WantedSet:
    """Wanted ground atoms in a fixed order, numbered across head predicates.

    A solve numbers its positives and then its negatives in one set, so one
    mask per slotted group answers for both.  Bit i of a slotted group's
    mask is set when atom i has the group's head predicate and arity and
    its arguments at the group's head slots are among the group's
    solutions.  A candidate derives atom i exactly when bit i is set in
    every one of its slotted groups' masks.  ``by_head`` maps each distinct
    ``(predicate, arity)`` to its atoms' indices and argument rows, in
    first-occurrence order.
    """

    def __init__(self, atoms: Iterable[Atom]):
        self.atoms = tuple(atoms)
        self.by_head: dict[tuple[str, int], list[tuple[int, tuple[str, ...]]]] = {}
        for i, a in enumerate(self.atoms):
            self.by_head.setdefault((a.predicate, len(a.args)), []).append((i, tuple([t.name for t in a.args])))
        self._projections: dict[tuple[str, int, tuple[int, ...]], dict[tuple[str, ...], int]] = {}

    def __len__(self) -> int:
        return len(self.atoms)

    def mask(self, slotted: Slotted, union: frozenset) -> int:
        """The wanted atoms the slotted group's solutions ``union`` reach, as a bitmask."""
        pred, arity, slots, _ = slotted
        proj = self._projections.get((pred, arity, slots))
        if proj is None:
            proj = self._projections[pred, arity, slots] = {}
            every = len(slots) == arity  # slots ascend, so they are all of them in order
            for i, args in self.by_head.get((pred, arity), ()):
                key = args if every else tuple([args[s] for s in slots])
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


def covered_atoms(tables: CoverTables, wanted: WantedSet) -> list[int]:
    """Per candidate, the wanted atoms it derives, as a mask over
    ``wanted.atoms``: the AND of its slotted groups' masks, each mask
    computed once.  A group with no solutions derives nothing."""
    masks = [wanted.mask(s, u) if u else 0 for s, u in zip(tables.candidates.slotted, tables.unions)]
    out = []
    for uses in tables.candidates.uses:
        got = -1  # every bit set; a candidate has at least one group
        for i in uses:
            got &= masks[i]
        out.append(got)
    return out


def covers_any(tables: CoverTables, wanted: WantedSet) -> list[bool]:
    """Per candidate, whether it derives any of the wanted atoms.  The solver
    reads ``covered_atoms``; ``hornbench/tracing.py`` still wraps this name."""
    return [got != 0 for got in covered_atoms(tables, wanted)]
