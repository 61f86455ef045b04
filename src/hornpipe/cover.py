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

Examples are scored once per slotted group, not once per candidate.  A
CandidateList, built once per bias, numbers the distinct slotted groups
``(head predicate, head arity, head_slots, key)``, gives each candidate the
indices of its own, and holds each distinct group once, so a solve finds
the groups the cache lacks without walking the candidates.  Each example
atom has a bit, and each slotted group a mask: the atoms of the group's
head whose arguments at its head slots are among its solutions.  A
candidate's verdict is one AND of its groups' masks: the atoms it derives
are the set bits, so it covers a negative exactly when a negative's bit is
set.  Greedy cover reads gains as popcounts, so no result depends on which
atom has which bit.  Results are exact: equivalence with the fixpoint
engine and with exhaustive oracles is property-tested.

The cache is keyed by the content of the facts a solve adds and then by
group content, a text of the group's rule that is the same under any
renaming of its variables.  Candidates that share a group therefore share
its solutions, each group fires at most once per solve, and one cache
serves any candidate list.  A later solve that adds the same facts fires
nothing: an aggregation step that adds a subset whose constants are new to
the state reads the table that subset's own check made, when both stages
share the cache.

One Session carries an aggregation trial's scoring from solve to solve.
What it has committed is the trial's background in solved form (the
component of each constant, which also answers fact membership, and each
group's union of solutions) and its examples: their labels, a bit for each,
which no later solve renumbers, the positive, negative and fact bits, a
projection table per head pattern ``(predicate, arity, head slots)`` from
projected arguments to atoms, each slotted group's mask and each
candidate's AND.  A solve is an attempt over that state.  It is told what
it adds: its background is a ``Program.union`` over the committed one,
whose added part is the joining or peeled subset's facts, and its examples
come from ``Session.join``, which knows the new ones.  The attempt then
only:

- reads the new facts and merges the committed components they share a
  constant with; the groups fire once over those facts, and each group's
  union grows by the solutions it lacked;
- numbers and projects its new atoms;
- tests its new facts against the committed atoms, and its new atoms
  against the facts;
- ORs into each slotted group's mask the hits of its union's growth on the
  committed atoms and the new atoms' hits on the whole union; the committed
  union's solutions are over committed constants, so only new atoms over
  committed constants are probed against it;
- re-ANDs only the candidates whose group masks changed and whose groups
  all have hits.

Committed structures change only on ``commit``; an attempt that is peeled
or discarded is simply dropped, so it costs what it added.  A fresh
session is the empty committed state, so a standalone solve, a subset
check and an aggregation step score on the same path.  A solve whose
background or examples do not extend the committed ones (or that uses
another candidate list) starts from the empty state; one that was not
told its delta finds it by set arithmetic.  Either way the result equals a
from-scratch solve, which is property-tested.

When a self-check has the hypothesis of the session's last consistent one
over a superset of that background, as along a trial whenever the
hypothesis holds, the model is carried forward: only the new facts are
inserted, semi-naive rounds run from them, the inserted facts are tested
against the old negatives and the new examples against the model.  A new
session or a changed hypothesis rebuilds it from the background program.

A session reads ground data only as rows (``logic.Fact``): a background
through ``Program.ground_rows``, of which a step reads only the part a
union adds (``background.added``), and examples through
``ExampleSet.pos_rows`` and ``neg_rows``.  Its labels are keyed by row,
and ``join`` takes rows.  The only ground atoms it builds are those
``Session.check`` reports as missed or covered; the solved form that
``Session.solved`` snapshots reads ``Program.clauses``, for tracing and
tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, NamedTuple

from .entailment import (
    CompiledRule,
    FactStore,
    compile_rules,
    consequences,
    fire,
    saturate,
)
from .logic import Atom, Clause, ExampleSet, Fact, Program, connected_groups, row_atom


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
    groups that have none.  A snapshot: nothing changes it once made.
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


_NO_FACTS = Program()
_NO_EXAMPLES = ExampleSet()


class _Verified(NamedTuple):
    """A self-check that found the hypothesis consistent: its background,
    hypothesis and least model, and the examples checked against that model,
    with the set of their negatives."""

    background: Program
    hypothesis: frozenset[Clause]
    model: FactStore
    examples: ExampleSet
    negatives: set[Fact]


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


# --------------------------------------------------------------- the kernel

Rows = Iterable[tuple[int, tuple[str, ...]]]  # (bit index, arguments) per atom


def _project(rows: Rows, slots: tuple[int, ...], every: bool) -> dict[tuple[str, ...], int]:
    """The atoms by their arguments at ``slots``, as bitmasks; ``every``
    says the slots are all the arguments, in order."""
    table: dict[tuple[str, ...], int] = {}
    for i, args in rows:
        key = args if every else tuple([args[s] for s in slots])
        table[key] = table.get(key, 0) | 1 << i
    return table


def _hits(table: dict[tuple[str, ...], int], union) -> int:
    """The atoms of a projection table whose projection is among the
    solutions ``union``, walking whichever side is smaller."""
    out = 0
    if len(union) < len(table):
        for sol in union:
            out |= table.get(sol, 0)
    else:
        for key, bits in table.items():
            if key in union:
                out |= bits
    return out


def _mask(mask: int, old: int, table, known, shift: int, union, growth) -> tuple[int, int]:
    """One slotted group's mask after an attempt, and the solutions probed.

    ``mask`` is the committed mask and ``old`` the hits of the union's
    growth on the committed atoms.  ``table`` projects the attempt's new
    atoms, numbered from 0, which take the bits from ``shift`` up, and
    ``known`` those of them whose projections are over committed constants
    alone.  ``union`` is the committed union, whose solutions are over
    committed constants, so only ``known`` is probed against it, and
    ``growth`` is what the attempt adds to it.
    """
    new = probes = 0
    if known and union:
        new = _hits(known, union)
        probes = min(len(known), len(union))
    if table and growth:
        new |= _hits(table, growth)
        probes += min(len(table), len(growth))
    return mask | old | new << shift, probes


Pattern = tuple[str, int, tuple[int, ...]]  # head predicate, head arity, head_slots


class _Index(NamedTuple):
    """A candidate list's slotted groups, indexed the ways an attempt reads them."""

    patterns: dict[tuple[str, int], list[tuple[Pattern, tuple[int, ...], bool]]]  # per head: (pattern, slots, every)
    by_key: dict[str, list[int]]
    pattern_of: list[Pattern]
    key_of: list[str]
    users: list[list[int]]  # per slotted group, the candidates that carry it


@lru_cache(maxsize=8)
def _index(candidates: CandidateList) -> _Index:
    """Built at a list's first solve, not with the list, so compiling a bias stays as it was."""
    patterns: dict[tuple[str, int], list[tuple[Pattern, tuple[int, ...], bool]]] = {}
    by_key: dict[str, list[int]] = {}
    pattern_of, key_of = [], []
    for i, (pred, arity, slots, key) in enumerate(candidates.slotted):
        by_key.setdefault(key, []).append(i)
        pattern_of.append((pred, arity, slots))
        key_of.append(key)
    for pattern in dict.fromkeys(pattern_of):
        pred, arity, slots = pattern
        # slots ascend, so they are all of them, in order, when as many
        patterns.setdefault((pred, arity), []).append((pattern, slots, len(slots) == arity))
    users: list[list[int]] = [[] for _ in candidates.slotted]
    for j, uses in enumerate(candidates.uses):
        for i in uses:
            users[i].append(j)
    return _Index(patterns, by_key, pattern_of, key_of, users)


# ---------------------------------------------------------- the session state


class _Base:
    """A committed state that attempts extend; only ``Attempt.merge`` changes it.

    Background: the program object solved, the component of each constant
    and each group key's solutions (omitted when none).  Examples: the ones
    numbered, in ``examples``; ``bit_of`` maps each atom's fact to its bit
    index, and ``positives``, ``negatives`` and ``facts`` are masks.
    ``heads`` holds the distinct ``(predicate, arity)`` of the positives and
    of the negatives, in first-seen order.  ``proj`` maps a head pattern to
    the numbered atoms' projection table, ``masks`` lists each slotted
    group's mask, ``nonzero`` holds the groups whose mask is not 0, and
    ``derived`` maps each candidate to its AND, omitted when 0.  ``unsafe``
    counts the candidates that derive a negative, and ``usable`` holds
    those that derive no negative and some positive.
    """

    __slots__ = (
        "candidates", "background", "component_of", "unions", "examples", "heads", "bit_of",
        "proj", "masks", "nonzero", "derived", "positives", "negatives", "facts", "unsafe", "usable",
    )  # fmt: skip

    def __init__(self, candidates: CandidateList | None = None) -> None:
        self.candidates = candidates
        self.background: Program = _NO_FACTS
        self.component_of: dict[str, frozenset[Fact]] = {}
        self.unions: dict[str, set] = {}
        self.examples = _NO_EXAMPLES
        self.heads: tuple[dict[tuple[str, int], None], dict[tuple[str, int], None]] = ({}, {})
        self.bit_of: dict[Fact, int] = {}
        self.proj: dict[Pattern, dict[tuple[str, ...], int]] = {}
        self.masks: list[int] = [0] * len(candidates.slotted) if candidates is not None else []
        self.nonzero: set[int] = set()
        self.derived: dict[int, int] = {}
        self.positives = self.negatives = self.facts = self.unsafe = 0
        self.usable: set[int] = set()


def _added_rows(background: Program, have: Program) -> Iterable[Fact] | None:
    """The facts ``background`` adds to ``have``, or None when it lacks
    some of ``have``'s.  A union over ``have`` names what it adds (which may
    repeat some of ``have``'s), so only that is read, never the rows of the
    whole chain; any other background is compared as a whole."""
    if background is have:
        return ()
    if getattr(background, "base", None) is have:
        return background.added.ground_rows()  # type: ignore[attr-defined]
    rows, old = frozenset(background.ground_rows()), have.rows
    if not old:
        return rows
    if not old <= rows:
        return None
    return rows - old


def _added_facts(base: _Base, background: Program) -> list[Fact] | None:
    """The facts ``background`` adds to the base's, or None when it lacks
    some of them."""
    rows = _added_rows(background, base.background)
    if rows is None:
        return None
    component_of = base.component_of
    return [f for f in rows if not (f[1] and f in component_of.get(f[1][0], ()))]


class _Grown:
    """What a background adds to a base: its new facts, the components they
    form or merge (``component_of``, by constant) and, per group key, the
    solutions the base's union lacks (``growth``).  Peels re-solve one
    background, so their attempts share one.  ``work`` is the session's
    count of scoring work, which this and its attempts add to."""

    __slots__ = ("base", "background", "facts", "work", "component_of", "growth", "_old", "_form")

    def __init__(self, base: _Base, background: Program, facts: list[Fact], cache: CoverCache, work: list[int]):
        self.base, self.background, self.facts, self.work = base, background, facts, work
        self.component_of: dict[str, frozenset[Fact]] = {}
        self.growth: dict[str, frozenset] = {}
        self._old: tuple[dict[int, int], int] | None = None
        self._form: SolvedBackground | None = None
        if not facts:
            return
        component_of = base.component_of
        # a new fact joins every base component it shares a constant with
        touched = {component_of[c] for _, args in facts for c in args if c in component_of}
        added = _Added([*facts, *(f for component in touched for f in component)])
        for members in added.store.components():
            component = frozenset(members)
            for _, args in members:
                for c in args:
                    self.component_of[c] = component
        # every match of a group lies inside one component, so one firing over
        # the added facts unions the group's solutions in their components;
        # a merged component keeps every fact of the base components it
        # absorbed, so what the base union lacks is exactly the growth
        unions = base.unions
        probes = 0
        for key, sols in cache.table(added, base.candidates.groups.values()).items():
            if sols:
                have = unions.get(key)
                if have:
                    probes += len(sols)
                    sols = sols - have
                if sols:
                    self.growth[key] = sols
        work[0] += probes

    def component(self, c: str) -> frozenset[Fact] | None:
        got = self.component_of.get(c)
        return got if got is not None else self.base.component_of.get(c)

    def old_hits(self, index: _Index) -> tuple[dict[int, int], int]:
        """The base's numbered atoms that this growth reaches: per slotted
        group, those its union's growth hits, and those now facts."""
        if self._old is None:
            base = self.base
            hits: dict[int, int] = {}
            facts = 0
            if base.bit_of:
                probes = 0
                for key, sols in self.growth.items():
                    for i in index.by_key.get(key, ()):
                        table = base.proj.get(index.pattern_of[i])
                        if table:
                            probes += min(len(table), len(sols))
                            bits = _hits(table, sols)
                            if bits:
                                hits[i] = bits
                self.work[0] += probes
                bit_of = base.bit_of
                for f in self.facts:
                    i = bit_of.get(f)
                    if i is not None:
                        facts |= 1 << i
            self._old = (hits, facts)
        return self._old

    def form(self) -> SolvedBackground:
        if self._form is None:
            base = self.base
            unions = {key: frozenset(sols) for key, sols in base.unions.items()}
            for key, sols in self.growth.items():
                unions[key] = unions.get(key, frozenset()) | sols
            component_of = {**base.component_of, **self.component_of}
            self._form = SolvedBackground(self.background.clauses, component_of, unions)
        return self._form


class Attempt:
    """One solve over a session: its committed state plus what the solve's
    background and examples add.

    ``positives``, ``negatives`` and ``facts`` are masks over every atom,
    committed and new; the new atoms take the bits from ``shift`` up.  The
    candidates are scored on the first ``cover``; ``Session.commit`` merges
    the attempt into the state, and a later attempt drops it.
    """

    __slots__ = (
        "grown", "examples", "new", "shift", "bit_of", "proj", "known", "positives", "negatives",
        "facts", "masks", "grew", "derived", "unsafe", "usable",
    )  # fmt: skip

    def __init__(self, grown: _Grown, examples: ExampleSet, new_pos, new_neg):
        base = grown.base
        index = _index(base.candidates)
        self.grown, self.examples, self.new = grown, examples, (new_pos, new_neg)
        self.shift = shift = len(base.bit_of)
        self.bit_of: dict[Fact, int] = {}
        by_head: dict[tuple[str, int], list[tuple[int, tuple[str, ...]]]] = {}
        facts = 0
        n = 0
        for rows in (new_pos, new_neg):
            for fact in rows:
                pred, args = fact
                self.bit_of[fact] = shift + n
                by_head.setdefault((pred, len(args)), []).append((n, args))
                component = grown.component(args[0])
                if component is not None and fact in component:
                    facts |= 1 << n
                n += 1
        self.proj: dict[Pattern, dict[tuple[str, ...], int]] = {}
        self.known: dict[Pattern, dict[tuple[str, ...], int]] = {}
        component_of = base.component_of
        entries = 0
        for head, rows in by_head.items():
            for pattern, slots, every in index.patterns.get(head, ()):
                self.proj[pattern] = _project(rows, slots, every)
                entries += len(rows)
                if component_of:
                    known = [row for row in rows if all(row[1][s] in component_of for s in slots)]
                    if known:
                        self.known[pattern] = _project(known, slots, every)
                        entries += len(known)
        grown.work[0] += n + entries
        _, old_facts = grown.old_hits(index)
        n_pos = len(new_pos)
        self.positives = base.positives | ((1 << n_pos) - 1) << shift
        self.negatives = base.negatives | ((1 << (n - n_pos)) - 1) << (shift + n_pos)
        self.facts = base.facts | old_facts | facts << shift
        self.masks: list[int] | None = None

    def cover(self) -> tuple[int, list[tuple[Candidate, int]]]:
        """The number of candidates that derive no negative, and the ones
        that derive no negative and some positive, each with the atoms it
        derives as a mask."""
        if self.masks is None:
            self._score()
        candidates = self.grown.base.candidates.candidates
        return len(candidates) - self.unsafe, [(candidates[j], got) for j, got in self.usable]

    def _score(self) -> None:
        grown = self.grown
        base = grown.base
        index = _index(base.candidates)
        old, _ = grown.old_hits(index)
        unions, growth, committed, proj, known = base.unions, grown.growth, base.masks, self.proj, self.known
        # a group's mask changes only where its union's growth reaches atoms,
        # or where new atoms over committed constants meet its committed union
        todo = dict.fromkeys(old)
        for keys, tables in ((growth, proj), (unions, known)):
            if tables:
                for key in keys:
                    for i in index.by_key.get(key, ()):
                        if index.pattern_of[i] in tables:
                            todo[i] = None
        masks = committed[:]
        grew: list[int] = []
        probes = 0
        for i in todo:
            key = index.key_of[i]
            was = masks[i]
            pattern = index.pattern_of[i]
            mask, n = _mask(
                was, old.get(i, 0), proj.get(pattern), known.get(pattern), self.shift, unions.get(key), growth.get(key)
            )
            probes += n
            if mask != was:
                masks[i] = mask
                grew.append(i)
        grown.work[0] += probes
        # only a candidate that carries a changed group can derive more, and
        # only one whose groups all have hits derives anything; the new bits
        # are new atoms, so one that derives what it did keeps its safety and
        # its use
        uses = base.candidates.uses
        nonzero = base.nonzero.union(grew)
        changed = set().union(*[index.users[i] for i in grew])
        was_derived, was_negatives = base.derived, base.negatives
        positives, negatives = self.positives, self.negatives
        derived: dict[int, int] = {}
        unsafe = base.unsafe
        usable = []
        for j in [j for j in changed if nonzero.issuperset(uses[j])]:
            got = -1  # every bit set; a candidate has at least one group
            for i in uses[j]:
                got &= masks[i]
            was = was_derived.get(j, 0)
            if got == was:
                continue
            derived[j] = got
            if was & was_negatives:
                unsafe -= 1
            if got & negatives:
                unsafe += 1
            elif got & positives:
                usable.append((j, got))
        usable += [(j, was_derived[j]) for j in base.usable if j not in derived]
        self.masks, self.derived, self.unsafe, self.usable = masks, derived, unsafe, usable
        self.grew = grew

    def merge(self) -> _Base:
        """Apply this attempt to its base, and return the base."""
        if self.masks is None:
            self._score()
        grown = self.grown
        base = grown.base
        base.background = grown.background
        base.component_of.update(grown.component_of)
        for key, sols in grown.growth.items():
            have = base.unions.get(key)
            if have is None:
                base.unions[key] = set(sols)
            else:
                have |= sols
        base.examples = self.examples
        for heads, rows in zip(base.heads, self.new):
            for pred, args in rows:
                heads.setdefault((pred, len(args)))
        base.bit_of.update(self.bit_of)
        shift = self.shift
        for pattern, table in self.proj.items():
            have = base.proj.setdefault(pattern, {})
            for key, bits in table.items():
                have[key] = have.get(key, 0) | bits << shift
        base.masks = self.masks
        base.nonzero.update(self.grew)
        for j, got in self.derived.items():
            if got:
                base.derived[j] = got
            else:
                base.derived.pop(j, None)
        base.positives, base.negatives, base.facts = self.positives, self.negatives, self.facts
        base.unsafe = self.unsafe
        base.usable.difference_update(self.derived)
        base.usable.update(j for j, _ in self.usable)
        return base


class Session:
    """One aggregation trial's committed state over a shared cache.

    ``examples`` are the committed examples, which keep the order they were
    first seen in, and ``labels`` maps the row of each to True for a
    positive and False for a negative.  A session reads examples as rows
    (``ExampleSet.pos_rows``/``neg_rows``) and builds no atom, except those
    ``check`` returns.  The committed scoring state is the last attempt's at
    the last commit.  ``work`` counts the scoring work done so far (atoms
    numbered, projection entries written and solutions probed); it is
    deterministic, so it bounds what an attempt costs without a clock.
    Attempts hold no reference to their session, so a session is freed as
    soon as it is dropped, not by the cycle collector.
    """

    def __init__(self, cache: CoverCache | None = None) -> None:
        self.cache = cache if cache is not None else CoverCache()
        self.examples = _NO_EXAMPLES
        self.labels: dict[Fact, bool] = {}
        self._work = [0]  # one item, which attempts add to
        self._base = _Base()
        self._attempt: Attempt | None = None
        # the last join: (its examples, the committed ones it extends, new positives, new negatives)
        self._joined: tuple[ExampleSet, ExampleSet, tuple[Fact, ...], tuple[Fact, ...]] | None = None
        self._verified: _Verified | None = None

    @property
    def work(self) -> int:
        return self._work[0]

    def join(self, pos: Iterable[Fact], neg: Iterable[Fact]) -> ExampleSet | None:
        """The committed examples plus these rows, as ``ExampleSet.of``
        orders them, or None when a row would carry both labels.  A
        duplicate is absorbed.  Only the joining rows are looked up, so a
        join costs in proportion to them, not to the state.  The committed
        state is unchanged; the session remembers which rows the join added,
        so an attempt over its examples numbers only those."""
        new: dict[Fact, bool] = {}
        for label, rows in ((True, pos), (False, neg)):
            for f in rows:
                have = self.labels.get(f)
                if have is None:
                    have = new.setdefault(f, label)
                if have != label:
                    return None
        new_pos = tuple(f for f, label in new.items() if label)
        new_neg = tuple(f for f, label in new.items() if not label)
        out = self.examples.extended(new_pos, new_neg)
        self._joined = (out, self.examples, new_pos, new_neg)
        return out

    def _delta(self, have: ExampleSet, examples: ExampleSet) -> tuple[tuple[Fact, ...], tuple[Fact, ...]] | None:
        """The positive and negative rows ``examples`` append to ``have``, or
        None when they do not extend it: told by the last join, or found by
        comparing the prefixes."""
        if examples is have:
            return (), ()
        joined = self._joined
        if joined is not None and joined[0] is examples and joined[1] is have:
            return joined[2], joined[3]
        pos, neg = examples.pos_rows, examples.neg_rows
        n_pos, n_neg = len(have.pos_rows), len(have.neg_rows)
        if pos[:n_pos] != have.pos_rows or neg[:n_neg] != have.neg_rows:
            return None
        return pos[n_pos:], neg[n_neg:]

    def commit(self, examples: ExampleSet) -> None:
        """Take ``examples``, a join of this session, as the committed
        examples, and merge the open attempt into the committed state.

        RuntimeError when ``examples`` do not extend the committed examples:
        they must keep those in order and add only unlabelled atoms.
        """
        new = self._delta(self.examples, examples)
        labels = self.labels
        if new is None or any(f in labels for rows in new for f in rows):
            raise RuntimeError("commit: the examples do not extend the committed examples")
        for label, rows in zip((True, False), new):
            for f in rows:
                labels[f] = label
        self.examples = examples
        if self._attempt is not None:
            self._base = self._attempt.merge()
            self._attempt = None

    def heads(self, examples: ExampleSet) -> list[tuple[str, int]]:
        """The ``(predicate, arity)`` of the examples' atoms, each once, in
        order of first occurrence with the positives first.  The committed
        atoms' are read from the committed state, so only new rows are read."""
        base = self._base
        seen_heads = base.heads
        new = self._delta(base.examples, examples)
        if new is None:
            new, seen_heads = (examples.pos_rows, examples.neg_rows), ({}, {})
        out: dict[tuple[str, int], None] = {}
        for seen, rows in zip(seen_heads, new):
            out.update(seen)
            for pred, args in rows:
                out.setdefault((pred, len(args)))
        return list(out)

    def attempt(self, background: Program, examples: ExampleSet, candidates: CandidateList) -> Attempt:
        """Open an attempt to solve ``examples`` over ``background``, which
        drops the last one unless it was committed.

        An attempt with the last one's background object reuses what that
        background added, as peels re-solve one background.  Any other
        extends the committed state when its background and examples extend
        it, and starts from the empty state otherwise.
        """
        last = self._attempt
        if last is not None and last.grown.background is background and last.grown.base.candidates is candidates:
            if last.examples is examples:
                return last
            new = self._delta(last.grown.base.examples, examples)
            if new is not None:
                self._attempt = Attempt(last.grown, examples, *new)
                return self._attempt
        base = self._base
        facts = new = None
        if base.candidates is candidates:
            facts = _added_facts(base, background)
            if facts is not None:
                new = self._delta(base.examples, examples)
        if facts is None or new is None:
            # a fresh session, another candidate list, or a state this one
            # does not extend
            base = _Base(candidates)
            facts = list(background.ground_rows())
            new = examples.pos_rows, examples.neg_rows
        self._attempt = Attempt(_Grown(base, background, facts, self.cache, self._work), examples, *new)
        return self._attempt

    def solved(self, background: Program, candidates: CandidateList) -> SolvedBackground:
        """The background's solved form, with unions for every candidate
        group: a snapshot of an attempt over the examples the session has
        numbered, or of the open attempt when it has this background."""
        last = self._attempt
        if last is None or last.grown.background is not background or last.grown.base.candidates is not candidates:
            last = self.attempt(background, self._base.examples, candidates)
        return last.grown.form()

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
        old negatives and only the new examples against the model.  A union
        over that check's background, and a join over its examples, name what
        they add; anything else is compared as a whole.  Any other call
        builds the model from scratch.  The model is never handed out.
        Everything is read as rows; the atoms returned are built from them.
        """
        kept, self._verified = self._verified, None
        new = None  # the facts added to the kept check's background, when it is carried
        if kept is not None and kept.hypothesis == hypothesis.clauses:
            new = _added_rows(background, kept.background)
        if new is not None:
            model = kept.model
            inserted = saturate(model, compile_rules(hypothesis), new)
            negatives = kept.negatives
            delta = self._delta(kept.examples, examples)
            if delta is None:  # not an extension: check every example
                delta = examples.pos_rows, examples.neg_rows
                negatives = set()
        else:
            model = consequences(background, hypothesis)
            inserted = []
            delta = examples.pos_rows, examples.neg_rows
            negatives = set()
        bad = [f for f in inserted if f in negatives]
        missed = [f for f in delta[0] if f not in model]
        bad += [f for f in delta[1] if f in model]
        negatives.update(delta[1])
        if not missed and not bad:
            self._verified = _Verified(background, hypothesis.clauses, model, examples, negatives)
        return list(map(row_atom, missed)), list(map(row_atom, bad))


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


# ------------------------------------------- snapshots, for tracing and tests


@dataclass(frozen=True)
class CoverTables:
    """Each slotted group's union of solutions in one solved background."""

    candidates: CandidateList
    unions: tuple[frozenset, ...]  # parallel to candidates.slotted; empty when a group has none


def coverage_tables(candidates: CandidateList, solved: SolvedBackground) -> CoverTables:
    """The slotted groups' unions, read from a solved form of the background
    for these candidates (``Session.solved``)."""
    unions = solved.unions
    none: frozenset = frozenset()
    return CoverTables(candidates, tuple(unions.get(key, none) for *_, key in candidates.slotted))


class WantedSet:
    """Wanted ground atoms in a fixed order, numbered across head predicates.

    Bit i of a slotted group's mask is set when atom i has the group's head
    predicate and arity and its arguments at the group's head slots are
    among the group's solutions, as in a session's masks, through the same
    projection and hit kernel.  ``by_head`` maps each distinct ``(predicate,
    arity)`` to its atoms' indices and argument rows, in first-occurrence
    order.
    """

    def __init__(self, atoms: Iterable[Atom]):
        self.atoms = tuple(atoms)
        self.by_head: dict[tuple[str, int], list[tuple[int, tuple[str, ...]]]] = {}
        for i, a in enumerate(self.atoms):
            self.by_head.setdefault((a.predicate, len(a.args)), []).append((i, tuple([t.name for t in a.args])))
        self._projections: dict[Pattern, dict[tuple[str, ...], int]] = {}

    def __len__(self) -> int:
        return len(self.atoms)

    def mask(self, slotted: Slotted, union: frozenset) -> int:
        """The wanted atoms the slotted group's solutions ``union`` reach, as a bitmask."""
        pred, arity, slots, _ = slotted
        proj = self._projections.get((pred, arity, slots))
        if proj is None:
            rows = self.by_head.get((pred, arity), ())
            proj = self._projections[pred, arity, slots] = _project(rows, slots, len(slots) == arity)
        return _hits(proj, union)


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
    """Per candidate, whether it derives any of the wanted atoms."""
    return [got != 0 for got in covered_atoms(tables, wanted)]
