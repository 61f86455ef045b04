"""Core type and canonicalization tests.

The canonical-form checks are validated against a brute-force oracle that
enumerates every variable bijection and body ordering.
"""

from __future__ import annotations

import pickle
import random
import time
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from hornpipe.logic import (
    Atom,
    Clause,
    ExampleSet,
    Program,
    Term,
    atom,
    canonical,
    connected_groups,
    const,
    print_clause,
    print_program,
    term,
    var,
)
from hornpipe.parsing import ParseError, labelled_examples, parse_clause, parse_examples, parse_facts, parse_rules

from oracles import linked_groups


# --- oracle -----------------------------------------------------------------

def variant_oracle(c1: Clause, c2: Clause) -> bool:
    """True iff some variable bijection maps c1 onto c2 modulo body order.

    Brute force: try every assignment of c1's variables onto c2's variables,
    compare heads and body multisets.  Only usable for small clauses.
    """
    v1, v2 = c1.variables(), c2.variables()
    if len(v1) != len(v2):
        return False

    def apply(a: Atom, m: dict[Term, Term]) -> Atom:
        return Atom(a.predicate, tuple(m.get(t, t) for t in a.args))

    for image in permutations(v2):
        m = dict(zip(v1, image))
        if apply(c1.head, m) != c2.head:
            continue
        if sorted(map(str, (apply(b, m) for b in c1.body))) == sorted(
            map(str, c2.body)
        ):
            return True
    return False


def brute_force_canonical(clause: Clause) -> Clause:
    """Canonical form by trying every body ordering; factorial, small use only."""
    if not clause.body:
        return clause
    body: list[Atom] = []
    for lit in clause.body:
        if lit not in body:
            body.append(lit)
    head_vars: dict[Term, int] = {}
    for v in clause.head.variables():
        head_vars.setdefault(v, len(head_vars))

    def arg_key(t: Term, renaming: dict[Term, int]):
        return (0, renaming[t], "") if t.is_var() else (1, 0, t.name)

    best = None
    for perm in permutations(body):
        renaming = dict(head_vars)
        for lit in perm:
            for v in lit.variables():
                renaming.setdefault(v, len(renaming))
        key = tuple(
            (lit.predicate, tuple(arg_key(a, renaming) for a in lit.args)) for lit in perm
        )
        if best is None or key < best[0]:
            best = (key, perm, renaming)
    _, perm, renaming = best
    fresh = {old: Term("var", f"V{i}") for old, i in renaming.items()}

    def rename(a: Atom) -> Atom:
        return Atom(a.predicate, tuple(fresh.get(t, t) for t in a.args))

    return Clause(rename(clause.head), tuple(rename(b) for b in perm))


# --- random clause generator (plain random, used by the frozen-seed suite) ---

PREDS = [("p", 2), ("q", 2), ("r", 1), ("s", 2)]


def random_clause(rng: random.Random, max_body: int = 3, max_vars: int = 4) -> Clause:
    """A random range-restricted, connected clause (resamples until valid)."""
    while True:
        n_body = rng.randint(1, max_body)
        pool = [Term("var", f"X{i}") for i in range(max_vars)]
        body = []
        for _ in range(n_body):
            pred, arity = rng.choice(PREDS)
            args = tuple(rng.choice(pool) for _ in range(arity))
            body.append(Atom(pred, args))
        body_vars = [v for lit in body for v in lit.variables()]
        if not body_vars:
            continue
        head_args = tuple(rng.choice(body_vars) for _ in range(2))
        try:
            return Clause(Atom("h", head_args), tuple(body))
        except ValueError:
            continue


# --- terms and atoms ---------------------------------------------------------

def test_term_kinds_from_surface_name():
    assert term("abc").is_const()
    assert term("Abc").is_var()
    assert term("42").is_const()
    assert const("a1").name == "a1"
    with pytest.raises(ValueError):
        const("Bad")
    with pytest.raises(ValueError):
        var("bad")


def test_terms_equal_iff_kind_and_name_match():
    assert term("X") == var("X")
    assert term("x") != term("X".lower() + "_")
    assert const("a") != var("A")


def test_atom_validation():
    with pytest.raises(ValueError):
        Atom("p", ())
    with pytest.raises(ValueError):
        Atom("P", (const("a"),))
    a = atom("p", "a", "X")
    assert not a.is_ground()
    assert atom("p", "a", "b").is_ground()


# --- clause invariants ---------------------------------------------------------

def test_fact_must_be_ground():
    with pytest.raises(ValueError):
        Clause(atom("p", "X"))
    assert Clause(atom("p", "a")).is_fact()


def test_range_restriction_enforced():
    head = atom("h", "X", "Y")
    with pytest.raises(ValueError, match="not bound"):
        Clause(head, (atom("p", "X", "Z"),))


def test_connectedness_enforced():
    # q(Z,W) shares no variable with the head or the other literal
    head = atom("h", "X", "Y")
    with pytest.raises(ValueError, match="connected"):
        Clause(head, (atom("p", "X", "Y"), atom("q", "Z", "W")))
    # connected through the head alone is fine
    c = Clause(head, (atom("p", "X", "U"), atom("q", "Y", "W")))
    assert len(c.body) == 2


# --- canonical form -----------------------------------------------------------

def test_canonical_known_example():
    c = parse_clause("collision(A,B):- cross_runway(A,R),landing_runway(B,R).")
    assert (
        print_clause(c)
        == "collision(V0,V1):- cross_runway(V0,V2),landing_runway(V1,V2)."
    )


def test_canonical_sorts_body():
    c = parse_clause("collision(A,B):- landing_runway(B,R),cross_runway(A,R).")
    assert (
        print_clause(c)
        == "collision(V0,V1):- cross_runway(V0,V2),landing_runway(V1,V2)."
    )


def test_canonical_drops_exact_duplicate_literals():
    c = parse_clause("h(X,Y):- p(X,Y),p(X,Y).")
    assert print_clause(c) == "h(V0,V1):- p(V0,V1)."


def test_canonical_idempotent_and_matches_oracle():
    rng = random.Random(20260825)
    for _ in range(300):
        c1 = random_clause(rng)
        c2 = random_clause(rng)
        k1, k2 = canonical(c1), canonical(c2)
        assert canonical(k1) == k1, f"not idempotent on {c1}"
        same = k1 == k2
        assert same == variant_oracle(c1, c2), f"{c1} vs {c2}"
        # a clause is always a variant of itself
        assert canonical(c1) == canonical(canonical(c1))


def random_interchangeable_clause(rng: random.Random) -> Clause:
    """Up to 6 literals over two predicates, each holding the head variable
    X and one term from a small pool, so some variables are shared and
    nearly every literal ties with the others at every position."""
    pool = [Term("var", f"Y{i}") for i in range(rng.randint(1, 6))] + [const("k")]
    x = Term("var", "X")
    body = []
    for _ in range(rng.randint(1, 6)):
        y = rng.choice(pool)
        args = (x, y) if rng.random() < 0.75 else (y, x)
        body.append(Atom(rng.choice("ppq"), args))
    tail = rng.choice([t for lit in body for t in lit.args if t.is_var()])
    return Clause(Atom("h", (x, tail) if rng.random() < 0.3 else (x,)), tuple(body))


@settings(deadline=None, max_examples=200)
@given(st.integers(min_value=0, max_value=2**32))
def test_canonical_matches_brute_force_form(seed):
    """Up to 6 body literals over 4 predicates, so tied keys are common, and
    a body of interchangeable literals, where nearly all of them tie."""
    rng = random.Random(seed)
    for c in (
        random_clause(rng, max_body=6, max_vars=rng.randint(2, 6)),
        random_interchangeable_clause(rng),
    ):
        assert canonical(c) == brute_force_canonical(c)


def test_canonical_keeps_tied_orders_whose_futures_differ():
    # after either p literal, the unplaced literals have the same shape, but
    # which of r and s hangs off V1 depends on the choice: only one is least
    c = parse_clause("h(X):- p(X,Y),p(X,Z),q(Y,W),r(W),q(Z,V),s(V).")
    want = brute_force_canonical(c)
    assert str(want) == "h(V0):- p(V0,V1),p(V0,V2),q(V1,V3),q(V2,V4),r(V3),s(V4)."
    for body in permutations(c.body):
        assert canonical(Clause(c.head, body)) == want


def test_canonical_long_chain_rule_is_fast():
    lits = ",".join(f"p{i}(X{i},X{i + 1})" for i in range(10))
    start = time.perf_counter()
    rules = parse_rules(f"h(X0,X10):- {lits}.\n")
    assert time.perf_counter() - start < 1.0
    assert len(rules) == 1


def test_canonical_interchangeable_body_is_fast():
    lits = ",".join(f"p(X,Y{i})" for i in range(10))
    start = time.perf_counter()
    rules = parse_rules(f"h(X):- {lits}.\n")
    assert time.perf_counter() - start < 1.0
    assert print_program(rules) == "h(V0):- " + ",".join(f"p(V0,V{i})" for i in range(1, 11)) + ".\n"


def test_canonical_invariant_under_renaming_and_reordering():
    rng = random.Random(7)
    for _ in range(200):
        c = random_clause(rng)
        perm = list(c.body)
        rng.shuffle(perm)
        names = list("ABCDEFG")
        rng.shuffle(names)
        mapping = {v: Term("var", names[i]) for i, v in enumerate(c.variables())}

        def ren(a: Atom) -> Atom:
            return Atom(a.predicate, tuple(mapping.get(t, t) for t in a.args))

        c2 = Clause(ren(c.head), tuple(ren(b) for b in perm))
        assert canonical(c) == canonical(c2)


# --- connected groups -----------------------------------------------------------

@settings(deadline=None, max_examples=300)
@given(st.lists(st.lists(st.integers(min_value=0, max_value=7), max_size=3), max_size=12))
def test_connected_groups_match_closure_oracle(keys):
    """Groups, their order and the order inside each group all match a
    brute-force closure of the shares-a-key relation."""
    items = [f"item{i}" for i in range(len(keys))]
    got = connected_groups(items, dict(zip(items, keys)).__getitem__)
    assert got == [[items[i] for i in group] for group in linked_groups(keys)]


def test_connected_groups_chain_links_through_a_later_item():
    # items 0 and 1 share no key; item 2 links them, so all three group
    groups = connected_groups(["a", "b", "c", "d"], {"a": [1], "b": [2], "c": [2, 1], "d": []}.get)
    assert groups == [["a", "b", "c"], ["d"]]


# --- printing round-trips -------------------------------------------------------

@st.composite
def clauses(draw):
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    return random_clause(rng)


@settings(deadline=None, max_examples=150)
@given(clauses())
def test_parse_print_roundtrip_is_canonical(c):
    assert parse_clause(print_clause(c)) == canonical(c)


@settings(deadline=None, max_examples=60)
@given(st.lists(clauses(), max_size=5))
def test_program_roundtrip(cs):
    p = Program.of(cs)
    assert parse_rules(print_program(p)) == p
    assert len(p) <= len(cs)


def test_program_dedups_variants():
    a = parse_clause("h(X,Y):- p(X,Z),q(Y,Z).")
    b = parse_clause("h(U,W):- q(W,T),p(U,T).")
    p = Program.of([a, b])
    assert len(p) == 1
    assert a in p and b in p


def test_empty_program_prints_empty():
    assert print_program(Program.of([])) == ""


# --- example sets ----------------------------------------------------------------

def test_example_set_rejects_overlap():
    e = atom("c", "a", "b")
    with pytest.raises(ValueError, match="both"):
        ExampleSet((e,), (e,))


def test_example_set_rejects_nonground():
    with pytest.raises(ValueError, match="ground"):
        ExampleSet((atom("c", "X", "b"),), ())


def test_example_set_of_dedups_preserving_order():
    a, b = atom("c", "a", "b"), atom("c", "b", "a")
    es = ExampleSet.of([a, b, a], [])
    assert es.positives == (a, b)
    assert es.pos_set == frozenset({a, b})


# --- ground data as rows and as objects --------------------------------------------

def _ground_lines(rng: random.Random, n: int) -> list[tuple[str, tuple[str, ...]]]:
    preds = [("p", 2), ("q", 1), ("r", 3), ("p", 1)]
    consts = ["a", "b", "c", "d1", "0", "class"]
    out = []
    for _ in range(n):
        pred, arity = rng.choice(preds)
        out.append((pred, tuple(rng.choice(consts) for _ in range(arity))))
    return out


def _same(x, y) -> None:
    """Equal both ways, hashed alike and printed alike, also after pickling."""
    assert x == y and y == x
    assert hash(x) == hash(y)
    assert str(x) == str(y)
    for z in (pickle.loads(pickle.dumps(x)), pickle.loads(pickle.dumps(y))):
        assert z == x and x == z and hash(z) == hash(x) and str(z) == str(x)


def test_row_and_object_programs_are_interchangeable():
    """A program the fact reader made, a union of such programs and the
    same clauses built as objects compare equal both ways, hash alike,
    print alike and survive pickling; rules in either side take part."""
    rng = random.Random(2710)
    rule = parse_clause("h(X):- p(X,Y),q(Y).")
    for _ in range(200):
        rows = _ground_lines(rng, rng.randint(0, 8))
        more = _ground_lines(rng, rng.randint(0, 4))
        read = parse_facts("".join(f"{p}({','.join(args)}).\n" for p, args in rows))
        built = Program.of(atom(p, *args) for p, args in rows)
        assert "clauses" not in read.__dict__
        _same(read, built)
        assert "clauses" in read.__dict__  # printing built them
        union = read.union(Program.from_rows(frozenset(more)))
        _same(union, Program.of(atom(p, *args) for p, args in (*rows, *more)))
        with_rule = Program.from_rows(frozenset(rows)).union(Program.of([rule]))
        _same(with_rule, Program.of([rule, *(atom(p, *args) for p, args in rows)]))
        assert read != with_rule and with_rule != read
    assert Program.from_rows(frozenset()) == Program() and Program() == Program.from_rows(frozenset())


def test_row_and_object_example_sets_are_interchangeable():
    """Example sets the example reader made and the same atoms through
    ``ExampleSet.of`` compare equal both ways, hash alike, print alike and
    survive pickling; their rebuilt atoms equal the parsed ones, in order."""
    rng = random.Random(2711)
    for _ in range(200):
        lines = list(dict.fromkeys(_ground_lines(rng, rng.randint(0, 10))))
        labels = [rng.random() < 0.5 for _ in lines]
        text = "".join(f"{'pos' if pos else 'neg'}({p}({','.join(args)})).\n" for (p, args), pos in zip(lines, labels))
        read = parse_examples(text)
        assert not {"positives", "negatives"} & read.__dict__.keys()
        pos = [parse_clause(f"{p}({','.join(args)}).").head for (p, args), ok in zip(lines, labels) if ok]
        neg = [parse_clause(f"{p}({','.join(args)}).").head for (p, args), ok in zip(lines, labels) if not ok]
        built = ExampleSet.of(pos, neg)
        assert len(read) == len(built) == len(lines)
        _same(read, built)
        assert read.positives == tuple(pos) and read.negatives == tuple(neg)
        assert read.pos_set == built.pos_set
        assert read != ExampleSet.of(neg, pos) or not lines


def test_labelled_examples_raises_the_example_sets_text():
    """A row labelled on both sides raises, in the reader and in
    ``labelled_examples``, the text ``ExampleSet`` raises for its atom."""
    rows = (("h", ("b", "a")), ("h", ("a", "b")), ("g", ("c",)))
    atoms = tuple(atom(p, *args) for p, args in rows)
    with pytest.raises(ValueError) as want:
        ExampleSet(atoms, atoms[:2])
    with pytest.raises(ValueError) as got:
        labelled_examples(rows, rows[:2])
    assert str(got.value) == str(want.value) == "atom labeled both positive and negative: h(a,b), h(b,a)"
    with pytest.raises(ParseError, match=r"^atom labeled both positive and negative: h\(a,b\), h\(b,a\)$"):
        parse_examples("pos(h(b,a)).\npos(h(a,b)).\nneg(h(a,b)).\nneg(h(b,a)).\n")
