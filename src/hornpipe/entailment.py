"""Bottom-up entailment for function-free definite programs.

``consequences`` computes the least Herbrand model of background facts plus
a rule program.  Round 1 evaluates every rule once, naively, over the whole
store.  Later rounds are semi-naive: a rule is fired only from body
literals whose predicate occurs among the facts the previous round derived
(the delta); that literal takes its rows from the delta and the other
literals join against the full store.

Each body is joined in a planned order, made once per (rule, seed literal)
and reused by every later call on an equal rule: after the seed, the
literal with the most bound or constant arguments goes next, ties to body
position.  A literal is matched by probing ``FactStore``'s any-position
index on its first bound or constant argument, or by a scan when it has
none.

``fire`` runs one compiled rule once over a store.  It is the only join
path: ``consequences`` calls it for every round, and ``cover`` calls it to
solve candidate body groups per component.  ``saturate`` is the only
semi-naive loop: ``consequences`` runs it from its naive first round, and
``cover.Session`` runs it from the facts a grown background adds to the
model it keeps for the solver's self-check.

Everything downstream (example coverage, rule support, evaluation) is
defined in terms of membership in that model.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

from .logic import Atom, Clause, Program, Term, connected_groups, const

# Engine representation: a fact is (predicate, (c1, ..., ck)) over plain
# strings; compiled rules refer to arguments by int env slots.

Row = tuple[str, ...]
Fact = tuple[str, Row]


def atom_to_fact(a: Atom) -> Fact:
    args = a.args
    for t in args:
        if t.kind != "const":
            raise ValueError(f"expected a ground atom: {a}")
    return (a.predicate, tuple([t.name for t in args]))


def fact_to_atom(f: Fact) -> Atom:
    return Atom(f[0], tuple(const(c) for c in f[1]))


def background_facts(clauses: Iterable[Clause]) -> Iterator[Fact]:
    """Background clauses as facts; a clause with a body is refused.

    A clause with no body is ground by construction, so its arguments are
    read without a check.
    """
    for c in clauses:
        if c.body:
            raise ValueError(f"background must contain only facts: {c}")
        yield (c.head.predicate, tuple([t.name for t in c.head.args]))


class FactStore:
    """Ground atoms by predicate, with a lazily built any-position index.

    ``by_pred`` maps a predicate name to its rows (argument tuples; one name
    may carry rows of several arities).  ``index(pred, arity, pos)`` maps
    each value found at argument ``pos`` to the rows of that predicate and
    arity holding it.  An index is built the first time a join asks for it
    and is kept current by ``add`` from then on, so a join can probe on
    whichever argument it has bound, first or not.

    Not mutated after construction by callers; ``consequences`` builds one
    incrementally and hands it back frozen by convention.
    """

    __slots__ = ("by_pred", "_index", "_count")

    def __init__(self, facts: Iterable[Fact] = ()):
        self.by_pred: dict[str, set[Row]] = {}
        # predicate -> {(arity, position): {value: rows}}
        self._index: dict[str, dict[tuple[int, int], dict[str, list[Row]]]] = {}
        self._count = 0
        for f in facts:
            self.add(f)

    @staticmethod
    def from_program(p: Program) -> "FactStore":
        return FactStore(background_facts(p.clauses))

    def add(self, f: Fact) -> bool:
        """Insert; returns True when the fact is new."""
        pred, args = f
        rows = self.by_pred.setdefault(pred, set())
        if args in rows:
            return False
        rows.add(args)
        built = self._index.get(pred)
        if built:
            arity = len(args)
            for (ar, pos), buckets in built.items():
                if ar == arity:
                    buckets.setdefault(args[pos], []).append(args)
        self._count += 1
        return True

    def index(self, pred: str, arity: int, pos: int) -> dict[str, list[Row]]:
        """Value at ``pos`` -> rows of ``pred``/``arity``; live, so read-only."""
        built = self._index.setdefault(pred, {})
        buckets = built.get((arity, pos))
        if buckets is None:
            buckets = {}
            for row in self.by_pred.get(pred, ()):
                if len(row) == arity:
                    buckets.setdefault(row[pos], []).append(row)
            built[(arity, pos)] = buckets
        return buckets

    def __contains__(self, f: Fact) -> bool:
        rows = self.by_pred.get(f[0])
        return rows is not None and f[1] in rows

    def has_atom(self, a: Atom) -> bool:
        args = a.args
        for t in args:
            if t.kind != "const":
                raise ValueError(f"expected a ground atom: {a}")
        rows = self.by_pred.get(a.predicate)
        return rows is not None and tuple([t.name for t in args]) in rows

    def __len__(self) -> int:
        return self._count

    def facts(self) -> Iterator[Fact]:
        for pred, rows in self.by_pred.items():
            for args in rows:
                yield (pred, args)

    def atoms(self) -> set[Atom]:
        return {fact_to_atom(f) for f in self.facts()}

    def components(self) -> list[list[Fact]]:
        """Constant-connected components, as the facts in each."""
        return connected_groups(self.facts(), itemgetter(1))


# --- rule compilation and join planning ----------------------------------------

CompiledLit = tuple[str, tuple[int, ...]]  # (predicate, env slot per argument)
Pairs = tuple[tuple[int, int], ...]  # (argument position, env slot)


class Step(NamedTuple):
    """One body literal in a planned join.

    Its rows come from the store's index on ``probe_pos``, looked up by the
    value in env slot ``probe_slot``, or from a scan of the predicate when
    it has no bound argument.
    """

    pred: str
    arity: int
    probe_pos: int | None
    probe_slot: int | None
    pre: Pairs  # must equal slots bound before this step
    binds: Pairs  # the literal's new variables, written into the env
    post: Pairs  # repeats of a new variable inside the literal


class CompiledRule:
    """A rule over env slots: variables first, then one pre-filled slot per constant.

    A constant is thus an argument bound before the body is entered, and
    every test a join makes compares a row value with an env slot.  Join
    plans depend on the rule alone, so each is made once and kept here.
    """

    __slots__ = ("head_pred", "head", "body", "env", "_plans")

    def __init__(self, c: Clause):
        # variables are numbered by first occurrence (head, then body)
        slots: dict[Term, int] = {v: i for i, v in enumerate(c.variables())}
        n_vars = len(slots)
        for a in (c.head, *c.body):
            for t in a.args:
                slots.setdefault(t, len(slots))
        self.head_pred = c.head.predicate
        self.head = tuple(slots[t] for t in c.head.args)
        self.body: tuple[CompiledLit, ...] = tuple(
            (b.predicate, tuple(slots[t] for t in b.args)) for b in c.body
        )
        # initial env: None for variables, names for constants
        self.env = (None,) * n_vars + tuple(t.name for t in list(slots)[n_vars:])
        self._plans: dict[int | None, tuple[Step, ...]] = {}

    def plan(self, seed: int | None) -> tuple[Step, ...]:
        """Join order for the body, seed literal first when there is one.

        The seed literal takes its rows from the delta, so it is matched by
        scanning them.  Every other literal goes greedily: the one with the
        most bound or constant arguments next, ties to body position.
        """
        steps = self._plans.get(seed)
        if steps is not None:
            return steps
        bound = {i for i, v in enumerate(self.env) if v is not None}
        todo = list(range(len(self.body)))
        order = []
        if seed is not None:
            todo.remove(seed)
            order.append(_step(self.body[seed], bound, probe=False))
        while todo:
            nxt = max(todo, key=lambda i: (sum(s in bound for s in self.body[i][1]), -i))
            todo.remove(nxt)
            order.append(_step(self.body[nxt], bound, probe=True))
        steps = self._plans[seed] = tuple(order)
        return steps


@lru_cache(maxsize=4096)
def compile_clause(c: Clause) -> CompiledRule:
    """Compiled form of a rule, shared by every call that sees an equal clause."""
    return CompiledRule(c)


def _step(lit: CompiledLit, bound: set[int], probe: bool) -> Step:
    """Compile one literal given the slots bound before it; adds its own to ``bound``."""
    pred, args = lit
    probe_pos = probe_slot = None
    pre: list[tuple[int, int]] = []
    binds: list[tuple[int, int]] = []
    post: list[tuple[int, int]] = []
    fresh: set[int] = set()
    for pos, s in enumerate(args):
        if s in bound:
            if probe and probe_pos is None:
                probe_pos, probe_slot = pos, s
            else:
                pre.append((pos, s))
        elif s in fresh:
            post.append((pos, s))
        else:
            fresh.add(s)
            binds.append((pos, s))
    bound |= fresh
    return Step(pred, len(args), probe_pos, probe_slot, tuple(pre), tuple(binds), tuple(post))


Index = dict[str, list[Row]]


def _rows(step: Step, index: Index | None, env: list[str | None], store: FactStore) -> Iterable[Row]:
    if index is not None:
        return index.get(env[step.probe_slot], ())  # type: ignore[index]
    return [row for row in store.by_pred.get(step.pred, ()) if len(row) == step.arity]


def _join(
    steps: tuple[Step, ...],
    indexes: tuple[Index | None, ...],
    k: int,
    rows: Iterable[Row],
    env: list[str | None],
    store: FactStore,
    rule: CompiledRule,
    out: set[Fact],
) -> None:
    """Match ``rows`` against step k, recurse on the rest, and add each head to ``out``.

    One env serves the whole search: a step overwrites its own slots for
    every row, and later steps read only slots bound before them.
    """
    _, _, _, _, pre, binds, post = steps[k]
    last = k + 1 == len(steps)
    for row in rows:
        for pos, s in pre:
            if row[pos] != env[s]:
                break
        else:
            for pos, s in binds:
                env[s] = row[pos]
            for pos, s in post:
                if row[pos] != env[s]:
                    break
            else:
                if last:
                    out.add((rule.head_pred, tuple([env[s] for s in rule.head])))  # type: ignore[misc]
                else:
                    nxt = _rows(steps[k + 1], indexes[k + 1], env, store)
                    _join(steps, indexes, k + 1, nxt, env, store, rule, out)


def fire(
    rule: CompiledRule,
    store: FactStore,
    out: set[Fact],
    seed: int | None = None,
    rows: Iterable[Row] | None = None,
) -> None:
    """Fire a rule once over the store and add each head it derives to ``out``.

    With no seed the rule is fired naively: every body literal takes its
    rows from the store.  With a seed, body literal ``seed`` takes ``rows``
    instead (the semi-naive case).
    """
    steps = rule.plan(seed)
    indexes = tuple(
        None if s.probe_pos is None else store.index(s.pred, s.arity, s.probe_pos) for s in steps
    )
    env = list(rule.env)
    if rows is None:
        rows = _rows(steps[0], indexes[0], env, store)
    _join(steps, indexes, 0, rows, env, store, rule, out)


def saturate(store: FactStore, rules: list[CompiledRule], facts: Iterable[Fact]) -> list[Fact]:
    """Insert ``facts`` and run semi-naive rounds from the new ones until
    nothing new is derived; returns every fact inserted, in order.

    The store must be closed under the rules once ``facts`` are in it,
    except for derivations that use one of the new facts: the first round
    fires each rule from every body literal whose predicate the new facts
    carry.  ``consequences`` passes the heads of its naive first round, and
    ``cover.Session`` passes the facts a grown background adds to a model it
    keeps.
    """
    inserted: list[Fact] = []
    while True:
        delta: dict[tuple[str, int], list[Row]] = {}
        for f in facts:
            if store.add(f):
                inserted.append(f)
                delta.setdefault((f[0], len(f[1])), []).append(f[1])
        if not delta:
            return inserted
        # seed each literal whose predicate is in the delta from the delta,
        # the rest from the full store; set semantics absorbs re-derivations
        facts = set()
        for rule in rules:
            for i, (pred, args) in enumerate(rule.body):
                rows = delta.get((pred, len(args)))
                if rows:
                    fire(rule, store, facts, i, rows)


def compile_rules(hypothesis: Program) -> list[CompiledRule]:
    """The hypothesis's rules, compiled; its facts are not among them."""
    return [compile_clause(c) for c in hypothesis.rules()]


def consequences(background: Program, hypothesis: Program) -> FactStore:
    """Least model of ``background ∪ hypothesis`` as a FactStore.

    The background must be ground facts; hypothesis clauses may include
    facts.  Derivation is monotone: the result always contains the
    background.
    """
    store = FactStore.from_program(background)
    for a in hypothesis.facts():
        store.add(atom_to_fact(a))
    rules = compile_rules(hypothesis)

    # round 1: every rule once, naively, over the whole store
    derived: set[Fact] = set()
    for rule in rules:
        fire(rule, store, derived)
    saturate(store, rules, derived)
    return store


@dataclass(frozen=True)
class CoverageResult:
    covered_pos: frozenset[Atom]
    covered_neg: frozenset[Atom]


def coverage(background: Program, hypothesis: Program, examples) -> CoverageResult:
    """Covered positives and negatives from a single consequences run.

    ``examples`` is anything with ``positives``/``negatives`` atom tuples.
    """
    model = consequences(background, hypothesis)
    return CoverageResult(
        covered_pos=frozenset(a for a in examples.positives if model.has_atom(a)),
        covered_neg=frozenset(a for a in examples.negatives if model.has_atom(a)),
    )


def rule_support(rule: Clause, background: Program, positives: Iterable[Atom]) -> int:
    """Number of positives entailed by the background plus this single rule."""
    model = consequences(background, Program.of([rule]))
    return sum(1 for a in positives if model.has_atom(a))


def rule_supports(rules: list[Clause], background: Program, positives: Iterable[Atom]) -> list[int]:
    """``rule_support`` of each rule, from one background store.

    Each rule fires once, naively, into a derived set of its own.  When no
    rule body uses a head predicate of ``rules``, nothing derived feeds a
    body, so that set is everything the rule adds to the background's
    model; otherwise the supports would be inexact, and ValueError is
    raised.
    """
    heads = {r.head.predicate for r in rules}
    for r in rules:
        if any(lit.predicate in heads for lit in r.body):
            raise ValueError(f"rule body uses a head predicate of the hypothesis: {r}")
    store = FactStore.from_program(background)
    wanted = [atom_to_fact(a) for a in positives]
    supports = []
    for r in rules:
        derived: set[Fact] = set()
        fire(compile_clause(r), store, derived)
        supports.append(sum(1 for f in wanted if f in derived or f in store))
    return supports
