"""Parser tests: formats, errors with line numbers, mutation fuzzing, and a
seeded differential between the ground-data reader and the cursor parser."""

from __future__ import annotations

import random

import pytest
from oracles import cursor_parse_examples, cursor_parse_facts

from hornpipe.logic import atom
from hornpipe.parsing import (
    ParseError,
    parse_bias,
    parse_clause,
    parse_examples,
    parse_facts,
    parse_rules,
    print_bias,
    print_examples,
)

VOCAB_BIAS = """\
% runway incursion vocabulary
head_pred(collision,2).
body_pred(landing_runway,2).
body_pred(takeoff_runway,2).
body_pred(cross_runway,2).
body_pred(on_taxiway,1).
body_pred(holding_short_runway,2).
body_pred(on_extended_area_runway,2).
body_pred(holding_on_runway,2).
body_pred(parallel_runways,2).
body_pred(intersecting_runways,2).
body_pred(same_runway,2).
type(collision,(agent,agent)).
type(landing_runway,(agent,runway)).
type(takeoff_runway,(agent,runway)).
type(cross_runway,(agent,runway)).
type(on_taxiway,(agent)).
type(holding_short_runway,(agent,runway)).
type(on_extended_area_runway,(agent,runway)).
type(holding_on_runway,(agent,runway)).
type(parallel_runways,(runway,runway)).
type(intersecting_runways,(runway,runway)).
type(same_runway,(runway,runway)).
max_vars(6).
max_body(4).
max_clauses(20).
"""


def test_parse_facts_basic():
    p = parse_facts("landing_runway(a1,r31l).\n% comment\n\ncross_runway(a2, r31l).\n")
    assert len(p) == 2
    assert atom("cross_runway", "a2", "r31l") in {c.head for c in p.clauses}


def test_parse_facts_reports_line_numbers():
    with pytest.raises(ParseError, match="line 3"):
        parse_facts("p(a).\n\np(X).\n")


def test_parse_facts_rejects_unterminated():
    with pytest.raises(ParseError, match="unterminated"):
        parse_facts("p(a)")


def test_parse_facts_rejects_rule():
    with pytest.raises(ParseError):
        parse_facts("h(X):- p(X).")


def test_whitespace_insensitive_inside_parens():
    p = parse_facts("p( a , b ).")
    assert atom("p", "a", "b") in {c.head for c in p.clauses}


def test_parse_clause_fact_and_rule():
    c = parse_clause("collision(V0,V1):- cross_runway(V0,V2),landing_runway(V1,V2).")
    assert len(c.body) == 2
    f = parse_clause("p(a,b).")
    assert f.is_fact()


def test_parse_clause_rejects_nonground_fact():
    with pytest.raises(ParseError):
        parse_clause("collision(V0,V1).")


def test_parse_clause_rejects_unbound_head_var():
    with pytest.raises(ParseError, match="not bound"):
        parse_clause("collision(A,B):- cross_runway(A,R).")


def test_parse_clause_rejects_disconnected_body():
    with pytest.raises(ParseError, match="connected"):
        parse_clause("collision(A,B):- cross_runway(A,R),landing_runway(B,R),same_runway(S,T).")


def test_unexpected_character_is_the_first_one_on_the_line():
    with pytest.raises(ParseError, match=r"line 2: unexpected character '#'"):
        parse_facts("p(a).\np(a#,b!).\n")


def test_parse_examples():
    es = parse_examples("pos(collision(a1,a2)).\nneg(collision(a2,a1)).\n")
    assert es.positives == (atom("collision", "a1", "a2"),)
    assert es.negatives == (atom("collision", "a2", "a1"),)


def test_parse_examples_contradiction():
    with pytest.raises(ParseError, match="both"):
        parse_examples("pos(c(a,b)).\nneg(c(a,b)).\n")


def test_parse_bias_full_vocabulary():
    bias = parse_bias(VOCAB_BIAS)
    assert len(bias.head_decls) == 1
    assert len(bias.body_decls) == 10
    assert bias.vocabulary["on_taxiway"] == 1
    assert bias.types_by_predicate["collision"] == ("agent", "agent")
    assert (bias.max_vars, bias.max_body, bias.max_clauses) == (6, 4, 20)


def test_parse_bias_defaults():
    bias = parse_bias("head_pred(c,2).\nbody_pred(p,2).\n")
    assert (bias.max_vars, bias.max_body, bias.max_clauses) == (6, 4, 20)
    assert bias.types_by_predicate["c"] is None


def test_parse_bias_duplicate_declaration():
    with pytest.raises(ParseError, match="duplicate"):
        parse_bias("head_pred(c,2).\nhead_pred(c,2).\n")


def test_parse_bias_head_and_body_declaration_of_one_predicate():
    bias = parse_bias("head_pred(p,2).\nbody_pred(p,2).\nbody_pred(q,2).\n")
    assert [d.predicate for d in bias.head_decls] == ["p"]
    assert [d.predicate for d in bias.body_decls] == ["p", "q"]
    assert bias.vocabulary == {"p": 2, "q": 2}


def test_parse_bias_head_and_body_arities_must_agree():
    with pytest.raises(ParseError, match="conflicting arities declared for p"):
        parse_bias("head_pred(p,2).\nbody_pred(p,1).\n")


def test_parse_bias_type_arity_mismatch():
    with pytest.raises(ParseError, match="arity"):
        parse_bias("head_pred(c,2).\ntype(c,(agent)).\n")


def test_parse_bias_type_for_undeclared():
    with pytest.raises(ParseError, match="undeclared"):
        parse_bias("head_pred(c,2).\ntype(p,(agent,runway)).\n")


def test_parse_bias_unknown_directive():
    with pytest.raises(ParseError, match="unknown"):
        parse_bias("modeh(c,2).\n")


def test_parse_bias_rejects_bad_predicate_name():
    for text in (
        "head_pred(),2).\n",
        "head_pred(c,2).\nbody_pred(Runway,2).\n",
        "head_pred(c,2).\ntype(:-,(agent,agent)).\n",
    ):
        with pytest.raises(ParseError, match=r"line \d+: expected a predicate name"):
            parse_bias(text)


def test_parse_bias_rejects_bad_type_name():
    for tys in ("(:-,.)", "(agent,7)", "(agent,,)"):
        with pytest.raises(ParseError, match="line 3: expected a type name"):
            parse_bias(f"head_pred(c,2).\nbody_pred(p,2).\ntype(p,{tys}).\n")


def test_print_bias_roundtrip():
    bias = parse_bias(VOCAB_BIAS)
    assert parse_bias(print_bias(bias)) == bias


def test_print_examples_roundtrip():
    es = parse_examples("pos(c(a,b)).\nneg(c(b,a)).\nneg(c(a,a)).\n")
    assert parse_examples(print_examples(es)) == es


def test_parse_rules_fig_style():
    text = (
        "collision(V0,V1):- landing_runway(V1,V2),same_runway(V3,V2),holding_on_runway(V0,V3).\n"
        "collision(V0,V1):- landing_runway(V1,V2),cross_runway(V0,V2).\n"
        "collision(V0,V1):- on_extended_area_runway(V1,V2),landing_runway(V0,V3),same_runway(V2,V3).\n"
    )
    p = parse_rules(text)
    assert len(p) == 3
    assert all(not c.is_fact() for c in p)


def test_fuzz_mutated_valid_lines_rejected():
    """Point mutations that break a format invariant must raise ParseError."""
    valid = [
        "landing_runway(a1,r31l).",
        "pos(collision(a1,a2)).",
        "head_pred(collision,2).",
        "collision(A,B):- cross_runway(A,R),landing_runway(B,R).",
    ]
    parsers = [parse_facts, parse_examples, parse_bias, parse_clause]
    mutations = [
        lambda s: s.rstrip("."),                # drop terminator
        lambda s: s.replace("(", "", 1),        # unbalanced parens
        lambda s: s.replace(",", ",,", 1),      # empty term slot
        lambda s: s + " junk",                  # trailing tokens
        lambda s: s.replace("a1", "a 1", 1),    # split identifier -> junk token
        lambda s: "1" + s,                      # predicate starting with a digit
    ]
    for text, parser in zip(valid, parsers):
        for mutate in mutations:
            bad = mutate(text)
            if bad == text:
                continue
            with pytest.raises(ParseError):
                parser(bad)
    # ground-ness mutations for facts and examples
    with pytest.raises(ParseError):
        parse_facts("landing_runway(A1,r31l).")
    with pytest.raises(ParseError):
        parse_examples("pos(collision(A1,a2)).")


def test_ground_reader_errors_carry_the_file_line_number():
    """A malformed line after matched, blank and comment-only lines is
    reported with its line number in the file, not within its statement."""
    lead = "  % header\n\n{0}\n\t\n% between\n{1} % trailing\n\n"
    cases = [
        (parse_facts, lead.format("p(a,b).", "q(1,c_2)."), "p(a#,b).", "unexpected character '#'"),
        (parse_facts, lead.format("p(a,b).", "q(1,c_2)."), "p(a,X).", "fact must be ground: p(a,X)"),
        (parse_facts, lead.format("p(a,b).", "q(1,c_2)."), "p(a,b)", "unterminated clause (missing '.')"),
        (parse_examples, lead.format("pos(g(a,b)).", "neg(g(b,a))."), "pos(g(a,,b)).", "expected a term, found ','"),
        (parse_examples, lead.format("pos(g(a,b)).", "neg(g(b,a))."), "neg(g(B,a)).", "example must be ground: g(B,a)"),
        (parse_examples, lead.format("pos(g(a,b)).", "neg(g(b,a))."), "maybe(g(a,b)).", "expected pos(...) or neg(...), found 'maybe'"),
    ]
    for parse, head, bad, message in cases:
        text = head + bad + "\np(c,d).\n"
        line = head.count("\n") + 1
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.line == line
        assert str(err.value) == f"line {line}: {message}"


FACTS_TEXT = (
    "landing_runway(a1,r31l).\n"
    "cross_runway(a_2,r31l). % crossing\n"
    "\n"
    "  holding_short_runway(a3,r09).\n"
    "parallel_runways(r31l,r09).\n"
    "same_runway(12,007).\n"
)
EXAMPLES_TEXT = (
    "pos(collision(a1,a_2)).\n"
    "% labels\n"
    "neg(collision(a_2,a1)).\n"
    "\tpos(collision(a3,12)). % late\n"
    "neg(collision(a1,a1)).\n"
)
# whitespace (Unicode spaces and line breaks too), comments, digits, upper
# case, underscores and punctuation
MUTANT_CHARS = " \t\u00a0\u2003\u3000\x0b\u2028%0179AZQXB__(),.:-#!ab"


def _mutate(text: str, rng: random.Random) -> str:
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        op = rng.randrange(5)
        if op == 0:
            text = text[:i] + rng.choice(MUTANT_CHARS) + text[i:]
        elif op == 1:
            text = text[:i] + rng.choice(MUTANT_CHARS) + text[i + 1 :]
        elif op == 2:
            text = text[:i] + text[i + 1 :]
        elif op == 3:  # empty an argument slot or a predicate name
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            text = text[:i] + text[j:]
        else:  # a blank or space-only line
            i = text.rfind("\n", 0, i) + 1
            text = text[:i] + rng.choice(("", " ", "\t")) + "\n" + text[i:]
    return text


def _outcome(parse, text: str):
    try:
        return "parsed", parse(text)
    except Exception as e:  # the same error type, text and line, or a failure
        return type(e).__name__, str(e), getattr(e, "line", None)


def test_ground_reader_matches_the_cursor_parser_on_mutated_texts():
    """Seeded, bounded differential: the one-match reader of ground lines and
    the cursor parser it replaced give the same Program or ExampleSet, or
    the same error text and line, on thousands of mutated texts."""
    rng = random.Random(2024)
    parsed = failed = 0
    for parse, reference, valid in (
        (parse_facts, cursor_parse_facts, FACTS_TEXT),
        (parse_examples, cursor_parse_examples, EXAMPLES_TEXT),
    ):
        assert _outcome(parse, valid) == _outcome(reference, valid)
        for _ in range(2000):
            text = _mutate(valid, rng)
            got, want = _outcome(parse, text), _outcome(reference, text)
            assert got == want, text
            if want[0] == "parsed":
                parsed += 1
            else:
                failed += 1
    # both outcomes are well represented, so neither side is tested vacuously
    assert parsed > 800 and failed > 800, (parsed, failed)
