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
none.  A plan runs as a generated kernel: one Python loop per literal,
with each variable and constant a local, its tests inline, and the head
added in the innermost loop.  Kernels are kept per plan shape (slots,
arities and tests, but no predicate or constant, which are passed in), so
rules that differ only in names share one.

``fire`` runs one compiled rule once over a store, through its kernel.
It is the only join path: ``consequences`` calls it for every round,
``rule_supports`` for each rule, and ``cover`` to solve candidate body
groups per component.  ``saturate`` is the only semi-naive loop:
``consequences`` runs it from its naive first round, and ``cover.Session``
runs it from the facts a grown background adds to the model it keeps for
the solver's self-check.

Everything downstream (example coverage, rule support, evaluation) is
defined in terms of membership in that model.

Engine representation: a fact is a row ``(predicate, (c1, ..., ck))`` over
plain strings (``logic.Fact``), and compiled rules refer to arguments by
int env slots.  A background is read through ``Program.ground_rows``: the
rows a program holds, as every program the bundle reader makes holds them
from the start, or else read once from its clauses.  The engine builds no
``Atom`` or ``Clause`` of ground data; ``coverage`` tests the atoms of the
examples it is given.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple

from .logic import Atom, Clause, Fact, Program, Row, Term, connected_groups, row_atom


def atom_to_fact(a: Atom) -> Fact:
    args = a.args
    for t in args:
        if t.kind != "const":
            raise ValueError(f"expected a ground atom: {a}")
    return (a.predicate, tuple([t.name for t in args]))


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
        return FactStore(p.ground_rows())

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
        return set(map(row_atom, self.facts()))

    def components(self) -> list[list[Fact]]:
        """Constant-connected components, as the facts in each."""
        return connected_groups(self.facts(), itemgetter(1))


# --- rule compilation and join planning ----------------------------------------

CompiledLit = tuple[str, tuple[int, ...]]  # (predicate, env slot per argument)
Pairs = tuple[tuple[int, int], ...]  # (argument position, env slot)
Kernel = Callable[..., None]


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


class Plan(NamedTuple):
    """A body's join order, the kernel that runs it, and the predicate of
    each step, which the kernel is passed."""

    steps: tuple[Step, ...]
    kernel: Kernel
    preds: tuple[str, ...]


class CompiledRule:
    """A rule over env slots: variables first, then one pre-filled slot per constant.

    A constant is thus an argument bound before the body is entered, and
    every test a join makes compares a row value with an env slot.  Join
    plans depend on the rule alone, so each is made once and kept here with
    its kernel.
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
        self._plans: dict[int | None, Plan] = {}

    def plan(self, seed: int | None) -> Plan:
        """Join order for the body, seed literal first when there is one.

        The seed literal takes its rows from the delta, so it is matched by
        scanning them.  Every other literal goes greedily: the one with the
        most bound or constant arguments next, ties to body position.  Made
        at the first call for ``seed``, with the kernel of its shape.
        """
        plan = self._plans.get(seed)
        if plan is not None:
            return plan
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
        steps = tuple(order)
        shape = (len(self.env), self.head, seed is not None, tuple(s[1:] for s in steps))
        plan = self._plans[seed] = Plan(steps, _kernel(shape), tuple(s.pred for s in steps))
        return plan


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


# --- join kernels ------------------------------------------------------------------

# Kernels by plan shape: the env width, the head slots, whether the first
# step is seeded, and every step but its predicate.  Rules that differ only
# in predicates and constants share one.
_KERNELS: dict[tuple, Kernel] = {}

# Steps per generated function: each step is a loop, and CPython refuses
# more than 20 statically nested blocks in one function.
_NEST = 16


def _kernel(shape: tuple) -> Kernel:
    kernel = _KERNELS.get(shape)
    if kernel is None:
        kernel = _KERNELS[shape] = _generate(*shape)
    return kernel


def _display(names: list[str]) -> str:
    """A tuple display; a single name keeps its comma."""
    return f"({', '.join(names)}{',' if len(names) == 1 else ''})"


def _generate(width: int, head: tuple[int, ...], seeded: bool, steps: tuple[tuple, ...]) -> Kernel:
    """The join of a plan shape as nested loops, one per step.

    ``k0(add, hp, env, preds, by_pred, index, rows)`` unpacks ``env`` into
    locals ``v0``, ``v1``, ... (one per env slot) and ``preds`` into ``p0``,
    ``p1``, ... (one per step), and takes each step's rows: ``rows`` for a
    seeded first step, the ``get`` of the ``index`` a step probes, or the
    rows of its predicate in ``by_pred`` for a scan, which skips the rows of
    other arities.  Each loop unpacks a row into the slots it binds and into
    temporaries for the arguments it tests, and skips the row unless every
    tested argument equals its slot; the innermost adds ``(hp, head)``
    through ``add``.  A plan deeper than ``_NEST`` steps goes on in ``k1``,
    called from the innermost loop with the env so far and the steps' rows,
    and so on.  The source holds only slot numbers, arities and positions.
    """
    n = len(steps)
    env = _display([f"v{i}" for i in range(width)])
    sources = _display([f"s{k}" for k in range(n)])
    lines = [
        "def k0(add, hp, env, preds, by_pred, index, rows):",
        f" {env} = env",
        f" {_display([f'p{k}' for k in range(n)])} = preds",
    ]
    for k, (arity, probe_pos, *_) in enumerate(steps):
        if k == 0 and seeded:
            lines.append(f" s{k} = rows")
        elif probe_pos is None:
            lines.append(f" s{k} = by_pred.get(p{k}, ())")
        else:
            lines.append(f" s{k} = index(p{k}, {arity}, {probe_pos}).get")
    for j, start in enumerate(range(0, n, _NEST)):
        if j:
            lines += [f"def k{j}(add, hp, env, src):", f" {env} = env", f" {sources} = src"]
        indent = " "
        for k in range(start, min(start + _NEST, n)):
            arity, probe_pos, probe_slot, pre, binds, post = steps[k]
            targets = ["_"] * arity
            for pos, s in binds:
                targets[pos] = f"v{s}"
            tests = []
            for pos, s in pre + post:
                targets[pos] = f"t{pos}"
                tests.append(f"t{pos} != v{s}")
            if probe_pos is not None:
                lines.append(f"{indent}for {_display(targets)} in s{k}(v{probe_slot}, ()):")
            elif k == 0 and seeded:
                lines.append(f"{indent}for {_display(targets)} in s{k}:")
            else:
                lines.append(f"{indent}for r in s{k}:")
                lines.append(f"{indent} if len(r) != {arity}: continue")
                lines.append(f"{indent} {_display(targets)} = r")
            indent += " "
            if tests:
                lines.append(f"{indent}if {' or '.join(tests)}: continue")
        if start + _NEST < n:
            lines.append(f"{indent}k{j + 1}(add, hp, {env}, {sources})")
        else:
            lines.append(f"{indent}add((hp, {_display([f'v{s}' for s in head])}))")
    namespace: dict[str, Kernel] = {}
    exec(compile("\n".join(lines), "<join kernel>", "exec"), namespace)
    return namespace["k0"]


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
    instead (the semi-naive case), which must then be given.  The store
    must not change while the rule fires.
    """
    _, kernel, preds = rule.plan(seed)
    kernel(out.add, rule.head_pred, rule.env, preds, store.by_pred, store.index, rows)


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
    for f in hypothesis.rows:
        store.add(f)
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
