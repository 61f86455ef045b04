"""Independent brute-force oracles and random-instance generators.

These deliberately avoid the package's engine internals: the model oracle
enumerates every ground substitution over the observed constants and
iterates to fixpoint, the greedy-cover oracle scores one candidate at a
time against every example the same way, the hypothesis-space oracle
canonicalises every raw body and dedupes by text, and the instance
generator uses only the public clause types.  The cursor parser at the end
is a verbatim copy of the tokenizer-and-cursor ``parse_facts`` and
``parse_examples`` that read every line before the one-match reader of
ground lines existed; it is the reference the parser differential compares
against.
"""

from __future__ import annotations

import random
import re
from itertools import combinations_with_replacement, product
from typing import Iterator

from hornpipe.logic import PRED_RE, Atom, BiasSpec, Clause, ExampleSet, PredDecl, Program, Term, canonical, const, term, var
from hornpipe.parsing import ParseError


def naive_consequences(background: Program, hypothesis: Program) -> set[Atom]:
    """Least model by exhaustive ground substitution; exponential, small use only."""
    facts: set[Atom] = {c.head for c in background}
    rules: list[Clause] = []
    for c in hypothesis:
        if c.is_fact():
            facts.add(c.head)
        else:
            rules.append(c)

    constants: set[str] = set()
    for a in facts:
        constants.update(t.name for t in a.args)
    for c in rules:
        for lit in (c.head, *c.body):
            constants.update(t.name for t in lit.args if t.is_const())
    consts = sorted(constants)

    changed = True
    while changed:
        changed = False
        for c in rules:
            vs = c.variables()
            for combo in product(consts, repeat=len(vs)):
                env = dict(zip(vs, combo))
                if all(_ground(b, env) in facts for b in c.body):
                    h = _ground(c.head, env)
                    if h not in facts:
                        facts.add(h)
                        changed = True
    return facts


def greedy_cover(
    background: Program, examples: ExampleSet, clauses: list[Clause], max_clauses: int
) -> tuple[str, Program | None, int]:
    """The solver's specification, by an exhaustive per-candidate scan.

    ``clauses`` is the hypothesis space in canonical form with head
    predicates kept out of bodies, so one pass of ground substitutions
    gives each clause's derivations.  A clause that derives any negative is
    unsafe; greedy cover then picks by most newly covered positives, then
    fewer body literals, then text, up to ``max_clauses`` clauses.  Returns
    the outcome, the hypothesis and the number of negative-safe clauses,
    as ``learner.solve`` reports them.
    """
    facts = {c.head for c in background}
    if any(n in facts for n in examples.negatives):
        return "no_hypothesis", None, 0
    uncovered = {p for p in examples.positives if p not in facts}
    if not uncovered:
        return "hypothesis", Program.of(()), 0
    negatives = set(examples.negatives)
    consts = sorted({t.name for a in facts for t in a.args})

    usable: list[tuple[Clause, set[Atom]]] = []
    safe = 0
    for c in clauses:
        vs = c.variables()
        derived = set()
        for combo in product(consts, repeat=len(vs)):
            env = dict(zip(vs, combo))
            if all(_ground(b, env) in facts for b in c.body):
                derived.add(_ground(c.head, env))
        if derived & negatives:
            continue
        safe += 1
        if derived & uncovered:
            usable.append((c, derived & uncovered))

    chosen: list[Clause] = []
    while uncovered:
        ranked = [
            ((-len(got & uncovered), len(c.body), str(c)), c, got)
            for c, got in usable
            if got & uncovered
        ]
        if len(chosen) >= max_clauses or not ranked:
            return "no_hypothesis", None, safe
        _, c, got = min(ranked, key=lambda r: r[0])
        chosen.append(c)
        uncovered -= got
    return "hypothesis", Program.of(chosen), safe


def reference_clauses(bias: BiasSpec) -> list[Clause]:
    """The hypothesis space as ``learner.enumerate_clauses`` defines it, by
    brute force: every raw body of every predicate combination and variable
    assignment, canonicalised, deduped by text; smallest bodies first, then
    text."""
    out = []
    for length in range(1, bias.max_body + 1):
        block = [c for head in bias.head_decls for c in _reference_of_length(bias, head, length)]
        out += sorted(block, key=str)
    return out


def _typed_positions(decl: PredDecl) -> tuple[str | None, ...]:
    return decl.types if decl.types is not None else (None,) * decl.arity


def _raw_assignments(
    slots: tuple[str | None, ...],
    n_head: int,
    head_types: tuple[str | None, ...],
    max_vars: int,
) -> Iterator[tuple[int, ...]]:
    """Variable index tuples for the body positions: head variables
    0..n_head-1 all used, new variables in first-use order, no variable at
    positions of two different declared types."""
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


def _reference_of_length(bias: BiasSpec, head: PredDecl, length: int) -> list[Clause]:
    if head.arity > bias.max_vars:
        return []
    body_decls = [d for d in bias.body_decls if d.predicate not in bias.head_predicates]
    body_decls.sort(key=lambda d: (d.predicate, d.arity))
    names = [f"V{i}" for i in range(bias.max_vars)]
    head_atom = Atom(head.predicate, tuple(var(names[i]) for i in range(head.arity)))
    head_types = _typed_positions(head)

    out: dict[str, Clause] = {}
    for combo in combinations_with_replacement(body_decls, length):
        slots = tuple(t for d in combo for t in _typed_positions(d))
        if len(slots) < head.arity:
            continue
        for assignment in _raw_assignments(slots, head.arity, head_types, bias.max_vars):
            lits = []
            i = 0
            for d in combo:
                args = tuple(var(names[v]) for v in assignment[i : i + d.arity])
                i += d.arity
                lits.append(Atom(d.predicate, args))
            if len(set(lits)) != len(lits):
                continue
            try:
                clause = canonical(Clause(head_atom, tuple(lits)))
            except ValueError:  # disconnected body
                continue
            out.setdefault(str(clause), clause)
    return list(out.values())


def random_bias(rng: random.Random) -> BiasSpec:
    """A small random bias: one or two heads, typed and untyped positions
    drawn from a few shared types, max_vars 2..5 and max_body 1..3.  Body
    predicates are unary to ternary; at max_body 3 they are at most binary
    and max_vars is at most 4, so that the brute-force reference stays
    fast."""
    types = ["t0", "t1", "t2"][: rng.randint(1, 3)]

    def decl(name: str, arity: int) -> PredDecl:
        typed = rng.random() < 0.7
        return PredDecl(name, arity, tuple(rng.choice(types) for _ in range(arity)) if typed else None)

    max_body = rng.randint(1, 3)
    arities, max_vars = ((1, 2, 2, 3), 5) if max_body < 3 else ((1, 2), 4)
    heads = tuple(decl(f"h{i}", rng.randint(1, 2)) for i in range(rng.randint(1, 2)))
    body = tuple(decl(f"p{i}", rng.choice(arities)) for i in range(rng.randint(1, 3)))
    return BiasSpec(heads, body, max_vars=rng.randint(2, max_vars), max_body=max_body)


def _ground(a: Atom, env: dict[Term, str]) -> Atom:
    return Atom(a.predicate, tuple(const(env[t]) if t.is_var() else t for t in a.args))


def random_instance(
    rng: random.Random,
    max_constants: int = 5,
    max_predicates: int = 4,
    max_clauses: int = 3,
    max_body: int = 3,
    max_facts: int = 10,
    arities: tuple[int, int] = (1, 2),
    n_vars: int = 4,
) -> tuple[Program, Program]:
    """A random (background, hypothesis) pair of bounded size.

    Clauses are range-restricted and connected (resampled otherwise) and may
    chain: one clause's head predicate can feed another clause's body.
    Predicate arities are drawn from the inclusive range ``arities``, and
    clause variables from ``n_vars`` names.
    """
    n_const = rng.randint(2, max_constants)
    consts = [f"c{i}" for i in range(n_const)]
    preds = [(f"p{i}", rng.randint(*arities)) for i in range(rng.randint(1, max_predicates))]

    facts = set()
    for _ in range(rng.randint(1, max_facts)):
        pred, arity = rng.choice(preds)
        facts.add(Atom(pred, tuple(const(rng.choice(consts)) for _ in range(arity))))

    variables = [Term("var", f"X{i}") for i in range(n_vars)]
    clauses = []
    attempts = 0
    while len(clauses) < rng.randint(1, max_clauses) and attempts < 200:
        attempts += 1
        body = []
        for _ in range(rng.randint(1, max_body)):
            pred, arity = rng.choice(preds)
            args = tuple(
                rng.choice(variables) if rng.random() < 0.8 else const(rng.choice(consts))
                for _ in range(arity)
            )
            body.append(Atom(pred, args))
        body_vars = [v for lit in body for v in lit.variables()]
        pred, arity = rng.choice(preds)
        head_args = tuple(
            rng.choice(body_vars)
            if body_vars and rng.random() < 0.85
            else const(rng.choice(consts))
            for _ in range(arity)
        )
        try:
            clauses.append(Clause(Atom(pred, head_args), tuple(body)))
        except ValueError:
            continue
    return Program.of(Clause(a) for a in facts), Program.of(clauses)


def linked_groups(keys: list[list]) -> list[list[int]]:
    """Indices grouped by the transitive closure of "shares a key", grown to
    a fixpoint over every pair; groups in order of their least index, each
    group ascending."""
    reach = [{i} for i in range(len(keys))]
    changed = True
    while changed:
        changed = False
        for linked in reach:
            for j, mine in enumerate(keys):
                if j not in linked and any(set(keys[i]) & set(mine) for i in linked):
                    linked.add(j)
                    changed = True
    return [sorted(linked) for i, linked in enumerate(reach) if min(linked) == i]


# -- the cursor parser of ground data --------------------------------------

_IDENT = r"[A-Za-z][A-Za-z0-9_]*"
# one token, or the one character at which no token starts
_TOKEN_RE = re.compile(rf"\s*(?:({_IDENT}|[0-9]+|:-|[(),.])|(.))")


def _statements(text: str) -> Iterator[tuple[int, tuple[str, ...]]]:
    """Yield (line number, tokens) per non-blank statement line."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("%", 1)[0].strip()
        if not line:
            continue
        tokens, bad = zip(*_TOKEN_RE.findall(line))
        if any(bad):
            raise ParseError(f"unexpected character {''.join(bad)[0]!r}", lineno)
        if tokens[-1] != ".":
            raise ParseError("unterminated clause (missing '.')", lineno)
        yield lineno, tokens


class _Cursor:
    def __init__(self, tokens: tuple[str, ...], line: int):
        self.tokens = tokens
        self.line = line
        self.i = 0

    def peek(self) -> str | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self, expected: str | None = None) -> str:
        if self.i >= len(self.tokens):
            raise ParseError("unexpected end of statement", self.line)
        tok = self.tokens[self.i]
        if expected is not None and tok != expected:
            raise ParseError(f"expected {expected!r}, found {tok!r}", self.line)
        self.i += 1
        return tok

    def name(self, pattern: re.Pattern, what: str) -> str:
        """Take a token that must match ``pattern``."""
        tok = self.take()
        if not pattern.match(tok):
            raise ParseError(f"expected {what}, found {tok!r}", self.line)
        return tok

    def end(self) -> None:
        """Take the closing '.', which must be the statement's last token."""
        self.take(".")
        if self.i != len(self.tokens):
            raise ParseError(
                f"trailing tokens after '.': {' '.join(self.tokens[self.i:])}",
                self.line,
            )


def _parse_atom(cur: _Cursor) -> Atom:
    name = cur.name(PRED_RE, "a predicate name")
    cur.take("(")
    args: list[Term] = []
    while True:
        tok = cur.take()
        if tok in "(),.:-":
            raise ParseError(f"expected a term, found {tok!r}", cur.line)
        args.append(term(tok))
        nxt = cur.take()
        if nxt == ")":
            break
        if nxt != ",":
            raise ParseError(f"expected ',' or ')', found {nxt!r}", cur.line)
    return Atom(name, tuple(args))


def cursor_parse_facts(text: str) -> Program:
    """Parse a background file of ground facts."""
    facts = []
    for line, tokens in _statements(text):
        cur = _Cursor(tokens, line)
        a = _parse_atom(cur)
        cur.end()
        if not a.is_ground():
            raise ParseError(f"fact must be ground: {a}", line)
        facts.append(Clause(a))
    return Program.of(facts)


def cursor_parse_examples(text: str) -> ExampleSet:
    """Parse ``pos(atom).`` / ``neg(atom).`` lines.

    Duplicates collapse; an atom on both sides is an error.  Whether the
    example predicates are declared head predicates is for validation to
    check against the bias.
    """
    pos: list[Atom] = []
    neg: list[Atom] = []
    for line, tokens in _statements(text):
        cur = _Cursor(tokens, line)
        label = cur.take()
        if label not in ("pos", "neg"):
            raise ParseError(f"expected pos(...) or neg(...), found {label!r}", line)
        cur.take("(")
        inner = _parse_atom(cur)
        cur.take(")")
        cur.end()
        if not inner.is_ground():
            raise ParseError(f"example must be ground: {inner}", line)
        (pos if label == "pos" else neg).append(inner)
    try:
        return ExampleSet.of(pos, neg)
    except ValueError as e:
        raise ParseError(str(e)) from None

