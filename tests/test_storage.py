import json

import pytest

from hornpipe.logic import print_program
from hornpipe.parsing import parse_examples, parse_facts, parse_rules, print_bias, print_examples
from hornpipe.storage import (
    MANIFEST_FILE,
    StoredSubset,
    load_corpus_bias,
    load_scenario_dirs,
    load_subsets,
    parse_meta,
    print_meta,
    read_rules,
    read_subset,
    split_example_lines,
    write_corpus_bias,
    write_manifest,
    write_rules,
    write_subset,
)
from test_parsing import VOCAB_BIAS

from hornpipe.parsing import parse_bias


def test_meta_round_trip():
    meta = {"timestamp": "2024-01-01T00:00:00+00:00", "violation_source": "r-9"}
    assert parse_meta(print_meta(meta)) == meta


def test_meta_skips_comments_and_blank_lines():
    text = "% header\n\ntimestamp: 2024-01-01\n  % indented comment\n"
    assert parse_meta(text) == {"timestamp": "2024-01-01"}


def test_meta_rejects_duplicates_and_garbage():
    with pytest.raises(ValueError):
        parse_meta("a: 1\na: 2\n")
    with pytest.raises(ValueError):
        parse_meta("no separator here\n")


def test_split_example_lines_keeps_wrapper_lines():
    pos, neg = split_example_lines("pos(h(a,b)).\nneg(h(b,a)).\npos(h(a,c)).\n")
    assert pos == "pos(h(a,b)).\npos(h(a,c)).\n"
    assert neg == "neg(h(b,a)).\n"
    assert split_example_lines("") == ("", "")
    # comments drop out; an unwrapped statement is kept for parsing to reject
    assert split_example_lines("% note\ngoal(b,a).\nneg(h(b,a)).\n") == (
        "goal(b,a).\n",
        "neg(h(b,a)).\n",
    )


def _subset(sid: str, stamp: str) -> StoredSubset:
    return StoredSubset(
        id=sid,
        facts_text="cross_runway(p1,r1).\n",
        examples_text="pos(collision(p1,p2)).\n",
        meta={"timestamp": stamp},
    )


def test_subset_round_trip(tmp_path):
    sub = _subset("s-1", "2024-03-01T10:00:00+00:00")
    d = write_subset(tmp_path, sub)
    assert read_subset(d) == sub


def test_corpus_loads_in_timestamp_then_id_order(tmp_path):
    bias = parse_bias(VOCAB_BIAS)
    write_corpus_bias(tmp_path, bias)
    for sid, stamp in [
        ("s-b", "2024-01-02"),
        ("s-a", "2024-01-03"),
        ("s-c", "2024-01-01"),
        ("s-d", "2024-01-02"),
    ]:
        write_subset(tmp_path, _subset(sid, stamp))
    assert load_corpus_bias(tmp_path) == bias
    assert [s.id for s in load_subsets(tmp_path)] == ["s-c", "s-b", "s-d", "s-a"]


def test_manifest_round_trip(tmp_path):
    manifest = {"schema": 1, "corrupted": {"s-2": "label_flip"}}
    write_manifest(tmp_path, manifest)
    assert json.loads((tmp_path / MANIFEST_FILE).read_text(encoding="utf-8")) == manifest


def test_scenario_round_trip(tmp_path):
    background = parse_facts("cross_runway(p1,r1).\nlanding_runway(p2,r1).\n")
    examples = parse_examples("pos(collision(p1,p2)).\nneg(collision(p2,p1)).\n")
    facts_text, examples_text = print_program(background), print_examples(examples)
    write_subset(tmp_path, StoredSubset("scn-001", facts_text, examples_text, {"tags": "generated,x"}))
    write_subset(tmp_path, StoredSubset("scn-000", facts_text, examples_text, {}))
    loaded = load_scenario_dirs(tmp_path)
    assert [name for name, *_ in loaded] == ["scn-000", "scn-001"]
    name, bg, exs, tags = loaded[1]
    assert bg == background
    assert set(exs.positives) == set(examples.positives)
    assert set(exs.negatives) == set(examples.negatives)
    assert tags == ("generated", "x")
    assert loaded[0][3] == ()


def test_rules_round_trip(tmp_path):
    rules = parse_rules("collision(V0,V1):- cross_runway(V0,V2),landing_runway(V1,V2).\n")
    write_rules(tmp_path / "out.rules", rules)
    assert read_rules(tmp_path / "out.rules") == rules
    # serialized form is one statement per line
    text = (tmp_path / "out.rules").read_text(encoding="utf-8")
    assert text.endswith(".\n")


def test_bias_file_round_trip(tmp_path):
    bias = parse_bias(VOCAB_BIAS)
    assert parse_bias(print_bias(bias)) == bias
