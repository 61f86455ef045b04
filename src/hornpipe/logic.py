"""Terms, atoms, clauses, programs, and hypothesis-space declarations.

The dialect is a function-free subset of Prolog: constants and variables
only, no function symbols, lists, arithmetic, or negation.  Facts are
ground atoms.  Rules are definite clauses whose heads are range-restricted
(every head variable occurs in the body) and whose bodies are connected
(the variable co-occurrence graph of the body, together with the head,
forms a single component).

``connected_groups`` is the one union-find of the package: the clause
connectivity check, a candidate's body groups, a fact store's components
and the generator's type inference all group items by shared keys with it.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Hashable, Iterable, Iterator, Sequence, TypeVar

PRED_RE = re.compile(r"[a-z][A-Za-z0-9_]*\Z")
_CONST_RE = re.compile(r"(?:[a-z][A-Za-z0-9_]*|[0-9]+)\Z")
_VAR_RE = re.compile(r"[A-Z][A-Za-z0-9_]*\Z")

T = TypeVar("T")

DEFAULT_MAX_VARS = 6
DEFAULT_MAX_BODY = 4
DEFAULT_MAX_CLAUSES = 20


@dataclass(frozen=True, slots=True)
class Term:
    """A constant or a variable.  Two terms are equal iff kind and name agree."""

    kind: str  # "const" | "var"
    name: str

    def __hash__(self) -> int:
        # equal terms have equal names, and a string caches its hash, so
        # this costs less than hashing a (kind, name) tuple on every lookup
        return hash(self.name)

    def is_var(self) -> bool:
        return self.kind == "var"

    def is_const(self) -> bool:
        return self.kind == "const"

    def __str__(self) -> str:
        return self.name


def const(name: str) -> Term:
    if not _CONST_RE.match(name):
        raise ValueError(f"bad constant name: {name!r}")
    return Term("const", name)


def var(name: str) -> Term:
    if not _VAR_RE.match(name):
        raise ValueError(f"bad variable name: {name!r}")
    return Term("var", name)


def term(name: str) -> Term:
    """Build a term from its surface name (case decides the kind)."""
    if _VAR_RE.match(name):
        return Term("var", name)
    return const(name)


@dataclass(frozen=True, slots=True)
class Atom:
    predicate: str
    args: tuple[Term, ...]

    def __post_init__(self) -> None:
        if not PRED_RE.match(self.predicate):
            raise ValueError(f"bad predicate name: {self.predicate!r}")
        if not isinstance(self.args, tuple) or not self.args:
            raise ValueError("atom needs a non-empty tuple of args")
        for a in self.args:
            if not isinstance(a, Term):
                raise ValueError(f"atom arg is not a Term: {a!r}")

    @property
    def arity(self) -> int:
        return len(self.args)

    def is_ground(self) -> bool:
        return all(a.is_const() for a in self.args)

    def variables(self) -> list[Term]:
        """Variables in argument order, with repeats."""
        return [a for a in self.args if a.kind == "var"]

    def __str__(self) -> str:
        return f"{self.predicate}({','.join(a.name for a in self.args)})"


def atom(predicate: str, *names: str) -> Atom:
    """Convenience constructor from surface names."""
    return Atom(predicate, tuple(term(n) for n in names))


@dataclass(frozen=True, slots=True)
class Clause:
    """A definite clause ``head :- body``.  Empty body means a ground fact."""

    head: Atom
    body: tuple[Atom, ...] = ()

    def __post_init__(self) -> None:
        if not self.body:
            if not self.head.is_ground():
                raise ValueError(f"fact must be ground: {self.head}")
            return
        head_vars = set(self.head.variables())
        body_vars = {v for lit in self.body for v in lit.variables()}
        missing = head_vars - body_vars
        if missing:
            names = ",".join(sorted(v.name for v in missing))
            raise ValueError(f"head variable {names} not bound by the body")
        if len(connected_groups((self.head, *self.body), Atom.variables)) != 1:
            raise ValueError(f"body is not connected to the head: {self}")

    def is_fact(self) -> bool:
        return not self.body

    def variables(self) -> list[Term]:
        """Distinct variables in first-occurrence order (head, then body)."""
        seen: dict[Term, None] = {}
        for lit in (self.head, *self.body):
            for v in lit.variables():
                seen.setdefault(v)
        return list(seen)

    def __str__(self) -> str:
        if not self.body:
            return f"{self.head}."
        return f"{self.head}:- {','.join(str(b) for b in self.body)}."


def connected_groups(items: Iterable[T], keys: Callable[[T], Iterable[Hashable]]) -> list[list[T]]:
    """The items grouped so that two share a group when a chain of shared
    keys links them; an item with no keys is a group of its own.

    Groups come in the order of their first item, and items keep input order
    inside a group.
    """
    items = list(items)
    parent = list(range(len(items)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    owner: dict[Hashable, int] = {}
    for i, item in enumerate(items):
        for k in keys(item):
            j = owner.setdefault(k, i)
            if j != i:
                parent[find(i)] = find(j)
    groups: dict[int, list[T]] = {}
    for i, item in enumerate(items):
        groups.setdefault(find(i), []).append(item)
    return list(groups.values())


# ---------------------------------------------------------------------------
# Canonical form

Literal = tuple[str, tuple[int, ...]]  # predicate, integer arguments


def least_order(
    body: Sequence[Literal], n_head: int, n_vars: int, bound: Sequence[Literal] | None = None
) -> tuple[tuple[int, ...], list[int]] | None:
    """The body order whose numbering reads least, searched one position at
    a time.

    An argument below ``n_vars`` is a variable, and the first ``n_head`` of
    them are the head's, numbered 0.. in that order.  An argument at or above
    ``n_vars`` is a constant; constants compare as their codes do, after
    every variable.  Reading the body in some order numbers each other
    variable at its first occurrence, and writes each literal as its key:
    the predicate and the numbered arguments.  The least order is the one
    whose key sequence is least.

    A literal's key depends only on the literals placed before it, so the
    least sequence starts with the least key any literal can take next; the
    search keeps every partial order that reaches that key (ties) and
    extends only those.  Tied partial orders whose unplaced literals read the
    same (see ``state``) have the same futures, so only one of them is kept;
    that keeps bodies of interchangeable literals from taking factorial time.

    Returns the least order as indices into ``body`` and the number of each
    variable in it.  Given ``bound``, a key sequence that some order reads,
    returns None as soon as an order reads less than it.
    """
    start = list(range(n_head)) + [-1] * (n_vars - n_head)
    # partial orders tied for the least key prefix: (order, remaining, numbering, next number)
    frontier = [((), tuple(range(len(body))), start, n_head)]
    once: set[int] | None = None  # single-use body variables, built at the first tie

    def state(remaining: tuple[int, ...], number: list[int]) -> tuple:
        """The unplaced literals as a sorted multiset.  A variable is written
        as its number if placed, as a wildcard (-1) if it is used once in the
        clause outside the head, and as itself (below -1) otherwise."""

        def arg(a: int) -> int:
            if a >= n_vars:
                return a  # a constant
            if number[a] >= 0:
                return number[a]
            return -1 if a in once else -2 - a

        return tuple(sorted((body[i][0], tuple(map(arg, body[i][1]))) for i in remaining))

    for pos in range(len(body)):
        least: Literal | None = None
        options: list = []
        for order, remaining, number, used in frontier:
            for j, i in enumerate(remaining):
                pred, args = body[i]
                if least is not None and pred > least[0]:
                    continue  # keys compare by predicate first
                ext, nxt = number, used
                for a in args:
                    if a < n_vars and ext[a] < 0:
                        if ext is number:
                            ext = number[:]
                        ext[a] = nxt
                        nxt += 1
                key = (pred, tuple([ext[a] if a < n_vars else a for a in args]))
                if least is None or key < least:
                    least, options = key, []
                elif key != least:
                    continue
                options.append((order + (i,), remaining[:j] + remaining[j + 1 :], ext, nxt))
        if bound is not None and least < bound[pos]:
            return None
        frontier = options
        if len(frontier) > 1:
            if once is None:
                counts = Counter(a for _, args in body for a in args if n_head <= a < n_vars)
                once = {a for a, n in counts.items() if n == 1}
            frontier = list({state(f[1], f[2]): f for f in frontier}.values())
    # every survivor has the same key sequence, hence the same renamed body
    order, _, number, _ = frontier[0]
    return order, number


def canonical(clause: Clause) -> Clause:
    """Rewrite a clause into canonical form.

    Variables become V0, V1, ... in order of first occurrence (head
    left-to-right, then body), and the body is put into the order whose
    induced renaming gives the least literal sequence (``least_order``).
    Two clauses are equal modulo renaming and body reordering iff their
    canonical forms are identical.  Idempotent.
    """
    if not clause.body:
        return clause
    # exact duplicate body literals are redundant conjuncts
    body: list[Atom] = []
    for lit in clause.body:
        if lit not in body:
            body.append(lit)

    ids: dict[Term, int] = {}
    for v in clause.head.variables():
        ids.setdefault(v, len(ids))
    n_head = len(ids)
    for lit in body:
        for v in lit.variables():
            ids.setdefault(v, len(ids))
    n_vars = len(ids)
    # constants after every variable, in name order
    names = sorted({t.name for lit in body for t in lit.args if t.is_const()})
    code = {name: n_vars + i for i, name in enumerate(names)}
    lits = [(lit.predicate, tuple(ids[t] if t.is_var() else code[t.name] for t in lit.args)) for lit in body]
    order, number = least_order(lits, n_head, n_vars)

    fresh = {v: Term("var", f"V{number[i]}") for v, i in ids.items()}

    def rename(a: Atom) -> Atom:
        return Atom(a.predicate, tuple(fresh.get(t, t) for t in a.args))

    return Clause(rename(clause.head), tuple(rename(body[i]) for i in order))


def print_clause(clause: Clause) -> str:
    """Canonical text form; round-trips through the clause parser."""
    return str(canonical(clause))


@dataclass(frozen=True)
class Program:
    """A set of clauses, duplicate-free modulo variable renaming."""

    clauses: frozenset[Clause] = frozenset()

    @staticmethod
    def of(items: Iterable[Clause | Atom]) -> Program:
        out = set()
        for it in items:
            if isinstance(it, Atom):
                it = Clause(it)
            out.add(canonical(it))
        return Program(frozenset(out))

    @cached_property
    def _sorted(self) -> tuple[Clause, ...]:
        return tuple(sorted(self.clauses, key=str))

    def __iter__(self) -> Iterator[Clause]:
        return iter(self._sorted)

    def __len__(self) -> int:
        return len(self.clauses)

    def __contains__(self, c: Clause) -> bool:
        return canonical(c) in self.clauses

    def facts(self) -> list[Atom]:
        return [c.head for c in self._sorted if c.is_fact()]

    def rules(self) -> list[Clause]:
        return [c for c in self._sorted if not c.is_fact()]

    def union(self, other: "Program") -> "Program":
        """Both programs' clauses.  The clause set is built on first read, so
        a chain of unions (an aggregation trial's growing background) costs
        nothing per link; the result's ``base`` and ``added`` are ``self``
        and ``other``, which tells a reader holding ``base`` what was added."""
        return _Union(self, other)

    def __str__(self) -> str:
        return print_program(self)


class _Union(Program):
    """``Program.union``: equal to, and hashed as, a program of both clause sets."""

    def __init__(self, base: Program, added: Program):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "added", added)

    @cached_property
    def clauses(self) -> frozenset[Clause]:  # type: ignore[override]
        # walk down to the first link already built, so that a long chain is
        # built once and without recursion
        parts = []
        link: Program = self
        while isinstance(link, _Union) and "clauses" not in link.__dict__:
            parts.append(link.added.clauses)
            link = link.base
        return link.clauses.union(*parts)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Program):
            return self.clauses == other.clauses
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.clauses,))


def print_program(program: Program) -> str:
    """Deterministic canonical text: one clause per line, sorted."""
    lines = [str(c) for c in program]
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Hypothesis-space declarations and labeled examples

@dataclass(frozen=True, slots=True)
class PredDecl:
    predicate: str
    arity: int
    types: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise ValueError(f"arity must be >= 1: {self.predicate}/{self.arity}")
        if self.types is not None and len(self.types) != self.arity:
            raise ValueError(
                f"type tuple for {self.predicate} has {len(self.types)} entries, "
                f"arity is {self.arity}"
            )


@dataclass(frozen=True)
class BiasSpec:
    """Declares the hypothesis space: head/body predicates and search bounds."""

    head_decls: tuple[PredDecl, ...]
    body_decls: tuple[PredDecl, ...]
    max_vars: int = DEFAULT_MAX_VARS
    max_body: int = DEFAULT_MAX_BODY
    max_clauses: int = DEFAULT_MAX_CLAUSES

    def __post_init__(self) -> None:
        for decls, which in ((self.head_decls, "head"), (self.body_decls, "body")):
            seen = set()
            for d in decls:
                if d.predicate in seen:
                    raise ValueError(f"duplicate {which} declaration: {d.predicate}")
                seen.add(d.predicate)
        for bound, name in (
            (self.max_vars, "max_vars"),
            (self.max_body, "max_body"),
            (self.max_clauses, "max_clauses"),
        ):
            if bound < 1:
                raise ValueError(f"{name} must be positive, got {bound}")
        # a predicate may be declared as head and as body; arity or type
        # conflicts between the two raise here rather than at first use
        self.vocabulary
        self.types_by_predicate

    @cached_property
    def head_predicates(self) -> frozenset[str]:
        return frozenset(d.predicate for d in self.head_decls)

    @cached_property
    def vocabulary(self) -> dict[str, int]:
        """predicate -> arity over head and body declarations combined."""
        vocab: dict[str, int] = {}
        for d in (*self.head_decls, *self.body_decls):
            if vocab.setdefault(d.predicate, d.arity) != d.arity:
                raise ValueError(
                    f"conflicting arities declared for {d.predicate}"
                )
        return vocab

    @cached_property
    def types_by_predicate(self) -> dict[str, tuple[str, ...] | None]:
        out: dict[str, tuple[str, ...] | None] = {}
        for d in (*self.head_decls, *self.body_decls):
            prev = out.get(d.predicate)
            if prev is not None and d.types is not None and prev != d.types:
                raise ValueError(f"conflicting types declared for {d.predicate}")
            if d.types is not None or d.predicate not in out:
                out[d.predicate] = d.types
        return out


@dataclass(frozen=True)
class ExampleSet:
    """Ground positive/negative example atoms.

    Order is preserved (first-parse order matters downstream when examples
    are retracted one at a time); duplicates are dropped; an atom may not
    appear on both sides.
    """

    positives: tuple[Atom, ...] = ()
    negatives: tuple[Atom, ...] = ()

    def __post_init__(self) -> None:
        for a in (*self.positives, *self.negatives):
            for t in a.args:
                if t.kind != "const":
                    raise ValueError(f"example must be ground: {a}")
        pos, neg = set(self.positives), set(self.negatives)
        if len(pos) != len(self.positives):
            raise ValueError("duplicate positive example")
        if len(neg) != len(self.negatives):
            raise ValueError("duplicate negative example")
        both = pos & neg
        if both:
            raise ValueError(
                "atom labeled both positive and negative: "
                + ", ".join(sorted(str(a) for a in both))
            )

    @staticmethod
    def of(positives: Iterable[Atom], negatives: Iterable[Atom]) -> "ExampleSet":
        pos: dict[Atom, None] = {}
        neg: dict[Atom, None] = {}
        for a in positives:
            pos.setdefault(a)
        for a in negatives:
            neg.setdefault(a)
        return ExampleSet(tuple(pos), tuple(neg))

    def extended(self, positives: tuple[Atom, ...], negatives: tuple[Atom, ...]) -> "ExampleSet":
        """This set with ``positives`` and ``negatives`` appended, unchecked.

        The caller has checked the new atoms against this set: ground, each
        new to both sides, and none on both sides.  Nothing is re-validated,
        so the cost does not grow with this set's checked examples.
        """
        out = object.__new__(ExampleSet)
        object.__setattr__(out, "positives", self.positives + positives)
        object.__setattr__(out, "negatives", self.negatives + negatives)
        return out

    @cached_property
    def pos_set(self) -> frozenset[Atom]:
        return frozenset(self.positives)

    def __len__(self) -> int:
        return len(self.positives) + len(self.negatives)
