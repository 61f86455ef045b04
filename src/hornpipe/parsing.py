"""Line-oriented parsing for facts, examples, bias directives, and rules.

Files are UTF-8 text, one statement per line, each terminated by ``.``;
``%`` starts a comment that runs to the end of the line.  Whitespace is
free between tokens.

Ground data is read a line at a time.  ``parse_facts`` and
``parse_examples`` first try one compiled match per line
(``_FACT_LINE_RE``, ``_EXAMPLE_LINE_RE``): a ground atom written without
inner whitespace, with optional spaces or tabs around the statement and an
optional trailing comment.  The match proves everything the tokenizer and
cursor would check, so its predicate and constants become the atom
directly, each constant's ``Term`` built once per call.  Every other line,
including blank, comment-only and malformed ones, goes through the
tokenizer and cursor (``_tokens``, ``_Cursor``, ``_parse_atom``), which is
also the only path of ``parse_rules``, ``parse_clause`` and ``parse_bias``.
So every ``ParseError`` comes from that one path, with the line's number in
the file.
"""

from __future__ import annotations

import re
from typing import Iterator

from .logic import (
    Atom,
    BiasSpec,
    Clause,
    DEFAULT_MAX_BODY,
    DEFAULT_MAX_CLAUSES,
    DEFAULT_MAX_VARS,
    PRED_RE,
    ExampleSet,
    PredDecl,
    Program,
    Term,
    term,
)

_IDENT = r"[A-Za-z][A-Za-z0-9_]*"
_IDENT_RE = re.compile(_IDENT + r"\Z")
# one token, or the one character at which no token starts
_TOKEN_RE = re.compile(rf"\s*(?:({_IDENT}|[0-9]+|:-|[(),.])|(.))")

_NAME = r"[a-z][A-Za-z0-9_]*"  # a predicate or a named constant
_CONST = rf"(?:{_NAME}|[0-9]+)"
# a ground atom written without whitespace; the groups are the predicate and
# the comma-separated constants
_GROUND_ATOM = rf"({_NAME})\(({_CONST}(?:,{_CONST})*)\)"
_LINE_END = r"[ \t]*(?:%.*)?\Z"
_FACT_LINE_RE = re.compile(rf"[ \t]*{_GROUND_ATOM}\.{_LINE_END}")
_EXAMPLE_LINE_RE = re.compile(rf"[ \t]*(pos|neg)\({_GROUND_ATOM}\)\.{_LINE_END}")

_NO_EXAMPLES = ExampleSet()


class ParseError(ValueError):
    """Syntax or well-formedness error, with the 1-based source line."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _tokens(raw: str, lineno: int) -> tuple[str, ...] | None:
    """The tokens of one source line, or None if it is blank or only a comment."""
    line = raw.split("%", 1)[0].strip()
    if not line:
        return None
    tokens, bad = zip(*_TOKEN_RE.findall(line))
    if any(bad):
        raise ParseError(f"unexpected character {''.join(bad)[0]!r}", lineno)
    if tokens[-1] != ".":
        raise ParseError("unterminated clause (missing '.')", lineno)
    return tokens


def _statements(text: str) -> Iterator[tuple[int, tuple[str, ...]]]:
    """Yield (line number, tokens) per non-blank statement line."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokens(raw, lineno)
        if tokens is not None:
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


class _Consts(dict):
    """Constant name -> its Term, built on first use; one per parse call."""

    def __missing__(self, name: str) -> Term:
        t = self[name] = Term("const", name)
        return t


def _ground_atom(predicate: str, names: str, consts: _Consts) -> Atom:
    """The atom of a line the ground-atom match accepted, built unchecked."""
    a = object.__new__(Atom)
    object.__setattr__(a, "predicate", predicate)
    object.__setattr__(a, "args", tuple(map(consts.__getitem__, names.split(","))))
    return a


def _fact(head: Atom) -> Clause:
    """The fact clause of a ground atom, built unchecked."""
    c = object.__new__(Clause)
    object.__setattr__(c, "head", head)
    object.__setattr__(c, "body", ())
    return c


def _parse_clause_tokens(cur: _Cursor) -> Clause:
    head = _parse_atom(cur)
    body: list[Atom] = []
    while (nxt := cur.peek()) != ".":
        sep = "," if body else ":-"
        if nxt != sep:
            raise ParseError(f"expected {sep!r} or '.', found {nxt!r}", cur.line)
        cur.take()
        body.append(_parse_atom(cur))
    cur.end()
    try:
        return Clause(head, tuple(body))
    except ValueError as e:
        raise ParseError(str(e), cur.line) from None


def parse_clause(text: str) -> Clause:
    """Parse a single clause (fact or rule) from one statement."""
    stmts = list(_statements(text))
    if not stmts:
        raise ParseError("no statement found")
    if len(stmts) > 1:
        raise ParseError("expected a single clause", stmts[1][0])
    line, tokens = stmts[0]
    return _parse_clause_tokens(_Cursor(tokens, line))


def parse_rules(text: str) -> Program:
    """Parse a rules file: any number of clauses, one per line."""
    out = []
    for line, tokens in _statements(text):
        out.append(_parse_clause_tokens(_Cursor(tokens, line)))
    return Program.of(out)


def parse_facts(text: str) -> Program:
    """Parse a background file of ground facts."""
    consts = _Consts()
    facts = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        m = _FACT_LINE_RE.match(raw)
        if m is not None:
            facts.append(_fact(_ground_atom(m[1], m[2], consts)))
            continue
        tokens = _tokens(raw, lineno)
        if tokens is None:
            continue
        cur = _Cursor(tokens, lineno)
        a = _parse_atom(cur)
        cur.end()
        if not a.is_ground():
            raise ParseError(f"fact must be ground: {a}", lineno)
        facts.append(Clause(a))
    # a ground fact is its own canonical form, so this is Program.of(facts)
    return Program(frozenset(facts))


def parse_examples(text: str) -> ExampleSet:
    """Parse ``pos(atom).`` / ``neg(atom).`` lines.

    Duplicates collapse; an atom on both sides is an error.  Whether the
    example predicates are declared head predicates is for validation to
    check against the bias.
    """
    consts = _Consts()
    pos: dict[Atom, None] = {}
    neg: dict[Atom, None] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        m = _EXAMPLE_LINE_RE.match(raw)
        if m is not None:
            (pos if m[1] == "pos" else neg)[_ground_atom(m[2], m[3], consts)] = None
            continue
        tokens = _tokens(raw, lineno)
        if tokens is None:
            continue
        cur = _Cursor(tokens, lineno)
        label = cur.take()
        if label not in ("pos", "neg"):
            raise ParseError(f"expected pos(...) or neg(...), found {label!r}", lineno)
        cur.take("(")
        inner = _parse_atom(cur)
        cur.take(")")
        cur.end()
        if not inner.is_ground():
            raise ParseError(f"example must be ground: {inner}", lineno)
        (pos if label == "pos" else neg)[inner] = None
    try:
        return labelled_examples(tuple(pos), tuple(neg))
    except ValueError as e:
        raise ParseError(str(e)) from None


def labelled_examples(positives: tuple[Atom, ...], negatives: tuple[Atom, ...]) -> ExampleSet:
    """The ExampleSet of ground atoms that are distinct within each side.

    Only the two sides are checked against each other; an atom on both
    raises ``ExampleSet``'s own ValueError.
    """
    if not set(positives).isdisjoint(negatives):
        return ExampleSet(positives, negatives)
    return _NO_EXAMPLES.extended(positives, negatives)


_BOUND_DIRECTIVES = ("max_vars", "max_body", "max_clauses")


def parse_bias(text: str) -> BiasSpec:
    """Parse bias directives into a BiasSpec.

    Grammar: ``head_pred(p,k).``, ``body_pred(p,k).``, ``type(p,(t1,...,tk)).``,
    ``max_vars(n).``, ``max_body(n).``, ``max_clauses(n).``  Missing bounds
    fall back to defaults (6 variables, 4 body literals, 20 clauses).  A
    predicate may be declared both as head and as body, at one arity.
    """
    heads: dict[str, int] = {}
    bodies: dict[str, int] = {}
    types: dict[str, tuple[str, ...]] = {}
    bounds: dict[str, int] = {}

    for line, tokens in _statements(text):
        cur = _Cursor(tokens, line)
        directive = cur.take()
        cur.take("(")
        if directive in ("head_pred", "body_pred"):
            name = cur.name(PRED_RE, "a predicate name")
            cur.take(",")
            arity_tok = cur.take()
            if not arity_tok.isdigit():
                raise ParseError(f"expected an arity, found {arity_tok!r}", line)
            cur.take(")")
            cur.end()
            table = heads if directive == "head_pred" else bodies
            if name in table:
                raise ParseError(f"duplicate declaration: {directive}({name},...)", line)
            table[name] = int(arity_tok)
        elif directive == "type":
            name = cur.name(PRED_RE, "a predicate name")
            cur.take(",")
            cur.take("(")
            tys = [cur.name(_IDENT_RE, "a type name")]
            while cur.peek() == ",":
                cur.take(",")
                tys.append(cur.name(_IDENT_RE, "a type name"))
            cur.take(")")
            cur.take(")")
            cur.end()
            if name in types:
                raise ParseError(f"duplicate type directive for {name}", line)
            types[name] = tuple(tys)
        elif directive in _BOUND_DIRECTIVES:
            val = cur.take()
            if not val.isdigit():
                raise ParseError(f"expected an integer, found {val!r}", line)
            cur.take(")")
            cur.end()
            if directive in bounds:
                raise ParseError(f"duplicate directive: {directive}", line)
            bounds[directive] = int(val)
        else:
            raise ParseError(f"unknown bias directive {directive!r}", line)

    for name, tys in types.items():
        declared = heads.get(name, bodies.get(name))
        if declared is None:
            raise ParseError(f"type directive for undeclared predicate {name}")
        if len(tys) != declared:
            raise ParseError(
                f"type directive for {name} has {len(tys)} entries, arity is {declared}"
            )

    def decl(name: str, arity: int) -> PredDecl:
        return PredDecl(name, arity, types.get(name))

    try:
        return BiasSpec(
            head_decls=tuple(decl(n, k) for n, k in heads.items()),
            body_decls=tuple(decl(n, k) for n, k in bodies.items()),
            max_vars=bounds.get("max_vars", DEFAULT_MAX_VARS),
            max_body=bounds.get("max_body", DEFAULT_MAX_BODY),
            max_clauses=bounds.get("max_clauses", DEFAULT_MAX_CLAUSES),
        )
    except ValueError as e:
        raise ParseError(str(e)) from None


def print_examples(examples: ExampleSet) -> str:
    """Render an example set in parse order; round-trips through parse_examples."""
    lines = [f"pos({a})." for a in examples.positives]
    lines += [f"neg({a})." for a in examples.negatives]
    return "\n".join(lines) + ("\n" if lines else "")


def print_bias(bias: BiasSpec) -> str:
    lines = []
    for d in bias.head_decls:
        lines.append(f"head_pred({d.predicate},{d.arity}).")
    for d in bias.body_decls:
        lines.append(f"body_pred({d.predicate},{d.arity}).")
    for d in (*bias.head_decls, *bias.body_decls):
        if d.types is not None:
            lines.append(f"type({d.predicate},({','.join(d.types)})).")
    lines.append(f"max_vars({bias.max_vars}).")
    lines.append(f"max_body({bias.max_body}).")
    lines.append(f"max_clauses({bias.max_clauses}).")
    return "\n".join(lines) + "\n"
