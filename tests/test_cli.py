import json
from pathlib import Path

import pytest

from hornpipe.cli import CONFIG_ENV, main
from hornpipe.logic import print_clause
from hornpipe.parsing import parse_rules
from hornpipe.storage import MANIFEST_FILE, load_subsets, read_rules

DATA = Path(__file__).resolve().parent.parent / "data"

PLANT = (
    "goal(V0,V1):- link(V0,V2),feeds(V2,V1).\n"
    "goal(V0,V1):- marked(V0),feeds(V0,V1).\n"
)


@pytest.fixture(autouse=True)
def _no_ambient_config(monkeypatch):
    monkeypatch.delenv(CONFIG_ENV, raising=False)


def _gen(tmp_path: Path, name="corpus", subsets=6, corruption=0.0, seed=1, rules=PLANT) -> Path:
    rules_file = tmp_path / f"{name}.rules"
    rules_file.write_text(rules, encoding="utf-8")
    out = tmp_path / name
    code = main(
        [
            "gen",
            "--rules-file",
            str(rules_file),
            "--subsets",
            str(subsets),
            "--corruption",
            str(corruption),
            "--seed",
            str(seed),
            "--out-dir",
            str(out),
        ]
    )
    assert code == 0
    return out


def test_gen_writes_a_loadable_corpus(tmp_path, capsys):
    out = _gen(tmp_path, subsets=8, corruption=0.25)
    stdout = capsys.readouterr().out
    assert "wrote 8 subsets" in stdout and "(2 corrupted)" in stdout
    assert len(load_subsets(out)) == 8
    manifest = json.loads((out / MANIFEST_FILE).read_text(encoding="utf-8"))
    assert len(manifest["corrupted"]) == 2
    assert manifest["rules"] == [print_clause(c) for c in parse_rules(PLANT).rules()]


def test_gen_is_deterministic_on_disk(tmp_path):
    a = _gen(tmp_path, name="one", seed=4)
    b = _gen(tmp_path, name="two", seed=4)
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (a / rel).read_bytes() == (b / rel).read_bytes()


def test_learn_emits_rules_and_reports(tmp_path, capsys):
    corpus = _gen(tmp_path)
    out = tmp_path / "run"
    code = main(["learn", "--corpus-dir", str(corpus), "--out", str(out), "--seed", "1"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "validation: 6/6 bundles accepted" in stdout
    assert (out / "final.rules").exists()
    assert read_rules(out / "final.rules").clauses
    lines = (out / "report.jsonl").read_text(encoding="utf-8").splitlines()
    assert json.loads(lines[0])["kind"] == "pipeline"
    assert "elapsed" in (out / "report.txt").read_text(encoding="utf-8")


def test_learn_reruns_are_byte_identical(tmp_path):
    corpus = _gen(tmp_path)
    outs = []
    for name in ("run-a", "run-b"):
        out = tmp_path / name
        code = main(
            ["learn", "--corpus-dir", str(corpus), "--out", str(out), "--seed", "7"]
        )
        assert code == 0
        outs.append(out)
    a, b = outs
    assert (a / "report.jsonl").read_bytes() == (b / "report.jsonl").read_bytes()
    assert (a / "final.rules").read_bytes() == (b / "final.rules").read_bytes()


def test_learn_jobs_flag_does_not_change_output(tmp_path):
    corpus = _gen(tmp_path)
    serial = tmp_path / "serial"
    fanned = tmp_path / "fanned"
    assert main(["learn", "--corpus-dir", str(corpus), "--out", str(serial)]) == 0
    assert (
        main(["learn", "--corpus-dir", str(corpus), "--out", str(fanned), "--jobs", "2"])
        == 0
    )
    a = (serial / "report.jsonl").read_text(encoding="utf-8").splitlines()
    b = (fanned / "report.jsonl").read_text(encoding="utf-8").splitlines()
    # only the config record differs (jobs setting), every result record matches
    assert [x for x in a if '"record": "config"' not in x] == [
        x for x in b if '"record": "config"' not in x
    ]


def test_learn_empty_corpus_exits_one(tmp_path, capsys):
    corpus = tmp_path / "empty"
    corpus.mkdir()
    (corpus / "bias.bias").write_text("head_pred(goal,2).\nbody_pred(p,2).\n", encoding="utf-8")
    out = tmp_path / "run"
    code = main(["learn", "--corpus-dir", str(corpus), "--out", str(out)])
    assert code == 1
    assert "pipeline emptied at: no_bundles" in capsys.readouterr().out
    assert (out / "report.jsonl").exists()
    assert not read_rules(out / "final.rules").clauses


def test_learn_tau_one_keeps_only_max_support_rules(tmp_path):
    # five subsets over two patterns: supports 3 and 2
    corpus = _gen(tmp_path, subsets=5)
    out = tmp_path / "run"
    code = main(
        ["learn", "--corpus-dir", str(corpus), "--out", str(out), "--tau", "1.0"]
    )
    assert code == 0
    kept = read_rules(out / "final.rules")
    assert len(kept.clauses) == 1
    records = [
        json.loads(line)
        for line in (out / "report.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    supports = [r for r in records if r["record"] == "rule_support"]
    assert sorted(r["support"] for r in supports) == [2, 3]
    assert [r["kept"] for r in sorted(supports, key=lambda r: r["support"])] == [False, True]


def test_config_file_and_flag_precedence(tmp_path):
    corpus = _gen(tmp_path)
    cfg = tmp_path / "settings.cfg"
    cfg.write_text("% project defaults\ntau = 0.5\nseed = 9\n", encoding="utf-8")
    out = tmp_path / "run"
    code = main(
        [
            "learn",
            "--corpus-dir",
            str(corpus),
            "--out",
            str(out),
            "--config",
            str(cfg),
            "--seed",
            "3",
        ]
    )
    assert code == 0
    records = [
        json.loads(line)
        for line in (out / "report.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    config = next(r for r in records if r["record"] == "config")
    assert config["support_threshold"] == 0.5  # from file
    assert config["seed"] == 3  # flag wins over file


def test_config_env_var_is_fallback(tmp_path, monkeypatch):
    corpus = _gen(tmp_path)
    cfg = tmp_path / "env.cfg"
    cfg.write_text("seed = 11\n", encoding="utf-8")
    monkeypatch.setenv(CONFIG_ENV, str(cfg))
    out = tmp_path / "run"
    assert main(["learn", "--corpus-dir", str(corpus), "--out", str(out)]) == 0
    records = [
        json.loads(line)
        for line in (out / "report.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    config = next(r for r in records if r["record"] == "config")
    assert config["seed"] == 11


def test_bad_config_values_exit_two(tmp_path, capsys):
    corpus = _gen(tmp_path)
    out = tmp_path / "run"
    code = main(
        ["learn", "--corpus-dir", str(corpus), "--out", str(out), "--rho", "2.0"]
    )
    assert code == 2
    assert "retry_fail_threshold" in capsys.readouterr().err

    cfg = tmp_path / "bad.cfg"
    cfg.write_text("velocity = 9\n", encoding="utf-8")
    code = main(
        ["learn", "--corpus-dir", str(corpus), "--out", str(out), "--config", str(cfg)]
    )
    assert code == 2


def test_missing_corpus_exits_three(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["learn", "--corpus-dir", str(tmp_path / "nowhere"), "--out", str(out)])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_failed_invariant_check_exits_four(tmp_path, capsys, monkeypatch):
    from hornpipe import learner

    corpus = _gen(tmp_path, subsets=2)
    capsys.readouterr()
    unsound = learner.Verification("unsound", (), ())
    monkeypatch.setattr(learner, "verify", lambda *args: unsound)
    code = main(["learn", "--corpus-dir", str(corpus), "--out", str(tmp_path / "run")])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error: ") and "self-check failed (unsound)" in err


def test_unknown_flag_fails_fast(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["learn", "--corpus-dir", "x", "--out", "y", "--turbo"])
    assert exc.value.code == 2


def test_eval_and_diff_take_no_jobs_flag():
    # evaluation runs in-process; only subset checks take --jobs
    for argv in (
        ["eval", "--rules", "r", "--scenarios-dir", "s", "--jobs", "2"],
        ["diff", "--rules", "r", "--other", "o", "--scenarios-dir", "s", "--jobs", "2"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_learn_takes_no_timeout(tmp_path, capsys):
    # solves have no deadline, so neither the flag nor the config key exists
    corpus = _gen(tmp_path)
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main(["learn", "--corpus-dir", str(corpus), "--out", str(out), "--timeout", "5"])
    assert exc.value.code == 2
    capsys.readouterr()

    cfg = tmp_path / "timeout.cfg"
    cfg.write_text("timeout = 5\n", encoding="utf-8")
    code = main(["learn", "--corpus-dir", str(corpus), "--out", str(out), "--config", str(cfg)])
    assert code == 2
    assert "unknown config key 'timeout'" in capsys.readouterr().err
    assert not out.exists()


def test_help_lists_commands():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_check_clean_corpus_all_reliable(tmp_path, capsys):
    corpus = _gen(tmp_path)
    report = tmp_path / "check.jsonl"
    code = main(["check", "--corpus-dir", str(corpus), "--out", str(report)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "validation: 6/6 bundles accepted" in stdout
    assert "subset checks: 6/6 reliable" in stdout
    records = [json.loads(x) for x in report.read_text(encoding="utf-8").splitlines()]
    assert records[0]["kind"] == "check"
    assert sum(1 for r in records if r["record"] == "subset_check") == 6


def test_check_rejects_unwrapped_example_line(tmp_path, capsys):
    corpus = _gen(tmp_path)
    first = sorted(d for d in corpus.iterdir() if d.is_dir())[0]
    with (first / "exs.exs").open("a", encoding="utf-8") as f:
        f.write("goal(b,a).\n")
    code = main(["check", "--corpus-dir", str(corpus)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "validation: 5/6 bundles accepted" in stdout
    assert f"rejected {first.name}: " in stdout
    assert "expected pos(...) or neg(...)" in stdout


def test_check_names_missing_predicate(tmp_path, capsys):
    corpus = _gen(tmp_path)
    thin_bias = tmp_path / "thin.bias"
    thin_bias.write_text(
        "head_pred(goal,2).\nbody_pred(link,2).\nbody_pred(marked,1).\nbody_pred(idle,1).\n",
        encoding="utf-8",
    )
    code = main(["check", "--corpus-dir", str(corpus), "--bias", str(thin_bias)])
    assert code == 1
    stdout = capsys.readouterr().out
    assert "unknown predicate feeds/2" in stdout
    assert "validation: 0/6 bundles accepted" in stdout


@pytest.mark.parametrize("breakage", ["missing", "malformed"])
def test_bias_flag_does_not_read_the_corpus_bias(tmp_path, breakage):
    corpus = _gen(tmp_path)
    bias = tmp_path / "copy.bias"
    bias.write_bytes((corpus / "bias.bias").read_bytes())

    def reports(tag: str) -> list[bytes]:
        check, learn = tmp_path / f"{tag}-check.jsonl", tmp_path / f"{tag}-learn"
        flags = ["--corpus-dir", str(corpus), "--bias", str(bias), "--out"]
        assert main(["check", *flags, str(check)]) == 0
        assert main(["learn", *flags, str(learn)]) == 0
        return [p.read_bytes() for p in (check, learn / "report.jsonl", learn / "final.rules")]

    intact = reports("intact")
    if breakage == "missing":
        (corpus / "bias.bias").unlink()
    else:
        (corpus / "bias.bias").write_text("head_pred(goal,\n", encoding="utf-8")
    assert reports(breakage) == intact


def test_check_flags_corrupted_subsets(tmp_path, capsys):
    corpus = _gen(tmp_path, subsets=8, corruption=0.25, seed=2)
    manifest = json.loads((corpus / MANIFEST_FILE).read_text(encoding="utf-8"))
    code = main(["check", "--corpus-dir", str(corpus)])
    capsys.readouterr()
    assert code in (0, 1)
    assert set(manifest["corrupted"])  # the corpus really does carry corruption


def test_eval_hand_rules_on_shipped_scenarios(tmp_path, capsys):
    out = tmp_path / "eval"
    code = main(
        [
            "eval",
            "--rules",
            str(DATA / "hand_rules.rules"),
            "--scenarios-dir",
            str(DATA / "scenarios"),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "accuracy  1.000" in stdout
    assert "scenarios: 20/20 fully correct" in stdout
    assert (out / "report.jsonl").exists()


def test_eval_empty_rules_recall_zero(tmp_path, capsys):
    empty = tmp_path / "empty.rules"
    empty.write_text("", encoding="utf-8")
    code = main(
        ["eval", "--rules", str(empty), "--scenarios-dir", str(DATA / "scenarios")]
    )
    assert code == 0
    assert "recall    0.000" in capsys.readouterr().out


def test_diff_same_rules_is_empty(tmp_path, capsys):
    code = main(
        [
            "diff",
            "--rules",
            str(DATA / "hand_rules.rules"),
            "--other",
            str(DATA / "hand_rules.rules"),
            "--scenarios-dir",
            str(DATA / "scenarios"),
        ]
    )
    assert code == 0
    assert "no verdict disagreements" in capsys.readouterr().out


def test_print_rules_canonicalizes(tmp_path, capsys):
    scrambled = tmp_path / "scrambled.rules"
    scrambled.write_text(
        "goal(A,B):- feeds(X,B),link(A,X).\n", encoding="utf-8"
    )
    code = main(["print-rules", str(scrambled)])
    assert code == 0
    # canonical form renames vars and picks the min-lex body ordering
    assert capsys.readouterr().out == "goal(V0,V1):- feeds(V2,V1),link(V0,V2).\n"
