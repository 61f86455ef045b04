"""An entailment oracle that shares no code with ``hornpipe.entailment``.

Least models are computed by naive bottom-up evaluation: every round joins
every rule body literal by literal against all facts of the literal's
predicate (no argument index, no delta), until a round adds nothing.  It is
slow, and meant for scenes of tens of facts, which is where the benchmark
uses it.
"""

from __future__ import annotations

from hornpipe.logic import Atom, Clause

Fact = tuple[str, tuple[str, ...]]


def _fact(a: Atom) -> Fact:
    return (a.predicate, tuple(t.name for t in a.args))


def _extend(lit: Atom, row: tuple[str, ...], env: dict[str, str]) -> dict[str, str] | None:
    if len(row) != len(lit.args):
        return None
    out = dict(env)
    for t, value in zip(lit.args, row):
        if t.is_var():
            if out.setdefault(t.name, value) != value:
                return None
        elif t.name != value:
            return None
    return out


def least_model(facts: list[Atom], rules: list[Clause]) -> set[Fact]:
    """The ground facts closed under the rules, as (predicate, args) tuples."""
    model: set[Fact] = {_fact(a) for a in facts}
    while True:
        by_pred: dict[str, list[tuple[str, ...]]] = {}
        for pred, args in model:
            by_pred.setdefault(pred, []).append(args)
        new: set[Fact] = set()
        for rule in rules:
            envs: list[dict[str, str]] = [{}]
            for lit in rule.body:
                envs = [
                    e2
                    for env in envs
                    for row in by_pred.get(lit.predicate, ())
                    if (e2 := _extend(lit, row, env)) is not None
                ]
            for env in envs:
                head = (rule.head.predicate, tuple(env[t.name] if t.is_var() else t.name for t in rule.head.args))
                if head not in model:
                    new.add(head)
        if not new:
            return model
        model |= new


def counts(facts, rules, positives, negatives) -> tuple[int, int, int, int]:
    """(tp, fp, fn, tn) of the examples under the rules' least model."""
    model = least_model(facts, rules)
    tp = sum(1 for a in positives if _fact(a) in model)
    fp = sum(1 for a in negatives if _fact(a) in model)
    return tp, fp, len(positives) - tp, len(negatives) - fp
