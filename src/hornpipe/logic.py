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
from typing import Callable, Hashable, Iterable, Iterator, TypeVar

_PRED_RE = re.compile(r"[a-z][A-Za-z0-9_]*\Z")
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
        if not _PRED_RE.match(self.predicate):
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
        return [a for a in self.args if a.is_var()]

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

def _arg_key(t: Term, renaming: dict[Term, int]):
    if t.is_var():
        return (0, renaming[t], "")
    return (1, 0, t.name)


def _state(remaining: tuple[Atom, ...], renaming: dict[Term, int], once: set[Term]) -> tuple:
    """The unplaced literals as a sorted multiset.  An argument is written
    as its index if placed, as a wildcard if it is a variable used once in
    the clause outside the head, and as itself otherwise."""

    def arg(t: Term) -> tuple:
        return (0, renaming[t]) if t in renaming else (1,) if t in once else (2, t.kind, t.name)

    return tuple(sorted((lit.predicate, tuple(map(arg, lit.args))) for lit in remaining))


def canonical(clause: Clause) -> Clause:
    """Rewrite a clause into canonical form.

    Variables become V0, V1, ... in order of first occurrence (head
    left-to-right, then body), and the body is put into the order whose
    induced renaming gives the least literal sequence.  Two clauses are
    equal modulo renaming and body reordering iff their canonical forms
    are identical.  Idempotent.

    The least sequence is found one position at a time.  A literal's key
    depends only on the literals placed before it, so the least sequence
    starts with the least key any literal can take next; the search keeps
    every partial order that reaches that key (ties) and extends only those.
    Tied partial orders whose unplaced literals read the same (see
    ``_state``) have the same futures, so only one of them is kept; that
    keeps bodies of interchangeable literals from taking factorial time.
    """
    if not clause.body:
        return clause
    # exact duplicate body literals are redundant conjuncts
    body: list[Atom] = []
    for lit in clause.body:
        if lit not in body:
            body.append(lit)

    head_vars: dict[Term, int] = {}
    for v in clause.head.variables():
        head_vars.setdefault(v, len(head_vars))

    once: set[Term] | None = None  # single-use body variables, built at the first tie
    # partial orders tied for the least key prefix: (order, remaining, renaming)
    frontier = [((), tuple(body), head_vars)]
    for _ in body:
        options = []
        for order, remaining, renaming in frontier:
            for i, lit in enumerate(remaining):
                ext = dict(renaming)
                for v in lit.variables():
                    ext.setdefault(v, len(ext))
                key = (lit.predicate, tuple(_arg_key(a, ext) for a in lit.args))
                options.append((key, order + (lit,), remaining[:i] + remaining[i + 1 :], ext))
        least = min(o[0] for o in options)
        frontier = [o[1:] for o in options if o[0] == least]
        if len(frontier) > 1:
            if once is None:
                counts = Counter(v for lit in body for v in lit.variables())
                once = {v for v, n in counts.items() if n == 1 and v not in head_vars}
            frontier = list({_state(f[1], f[2], once): f for f in frontier}.values())
    # every survivor has the same key sequence, hence the same renamed body
    best, _, best_map = frontier[0]

    fresh = {old: Term("var", f"V{i}") for old, i in best_map.items()}

    def rename(a: Atom) -> Atom:
        return Atom(a.predicate, tuple(fresh.get(t, t) for t in a.args))

    return Clause(rename(clause.head), tuple(rename(b) for b in best))


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
        return Program(self.clauses | other.clauses)

    def __str__(self) -> str:
        return print_program(self)


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

    @cached_property
    def pos_set(self) -> frozenset[Atom]:
        return frozenset(self.positives)

    def check_predicates(self, bias: BiasSpec) -> None:
        """Every example must be an atom of a declared head predicate, at its arity."""
        heads, vocab = bias.head_predicates, bias.vocabulary
        for a in (*self.positives, *self.negatives):
            if a.predicate not in heads or vocab[a.predicate] != a.arity:
                raise ValueError(
                    f"example predicate {a.predicate}/{a.arity} is not a declared head predicate"
                )

    def __len__(self) -> int:
        return len(self.positives) + len(self.negatives)
