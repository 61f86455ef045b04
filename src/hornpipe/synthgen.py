"""Synthetic corpus generator with known ground truth.

Every subset plants one rule: its body is instantiated over fresh constants
to form the violation scene (one positive example), and the nominal side
carries safe counter-patterns whose agent pairs are all negatives:

  * partition variants: the body instantiated with its literals split into
    two or more blocks, joins severed across blocks, one instance per way
    of splitting, so any clause that skips a join covers a negative (light
    mode keeps only the fully severed split);
  * drop-one variants (full mode): the body minus one literal with joins
    intact, for every literal whose removal still binds both head
    variables, so clauses that skip a literal cover a negative;
  * a generic idle scene with no rule structure at all.

Nominal patterns are twinned in full mode (two isomorphic instances per
pattern), which makes any single corrupted example detectable: whatever
covers the corrupted instance also covers its intact twin's negatives.
Constants are fresh per subset, so subsets never interact through joins.

Corruption plants one edit per corrupted subset: a deleted fact, a flipped
example label, or an undeclared predicate.  Flips either demote the lone
positive or promote an idle pair to a hallucinated positive; promoted
structured pairs would only be coverable by the join-skipping clauses the
nominal patterns exist to block, so the idle form keeps the corruption
recoverable instead of forcing whole-subset discards.  The generator
self-checks the clean corpus against the planted rules before corrupting,
and the manifest records exactly what was planted and broken.
"""

from __future__ import annotations

import datetime
import random
from dataclasses import dataclass

from .entailment import coverage
from .ingestion import BundleSource, RawBundle
from .logic import (
    Atom,
    BiasSpec,
    Clause,
    ExampleSet,
    PredDecl,
    Program,
    Term,
    connected_groups,
    const,
    print_clause,
)
from .storage import StoredSubset

START_DATE = datetime.datetime(2024, 1, 1, tzinfo=datetime.timezone.utc)


def _stamp(i: int) -> str:
    # one subset per hour; lexicographic order matches generation order
    return (START_DATE + datetime.timedelta(hours=i)).isoformat()


@dataclass(frozen=True)
class GenSubset:
    id: str
    timestamp: str
    violation_facts: tuple[Atom, ...]
    positives: tuple[Atom, ...]
    nominal_facts: tuple[Atom, ...]
    negatives: tuple[Atom, ...]
    planted_rule: str
    corruption: str | None = None

    def raw_bundle(self) -> RawBundle:
        return RawBundle(
            id=self.id,
            timestamp=self.timestamp,
            violation_id=f"{self.id}-v",
            nominal_id=f"{self.id}-n",
            violation_facts="".join(f"{a}.\n" for a in self.violation_facts),
            violation_examples="".join(f"pos({a}).\n" for a in self.positives),
            nominal_facts="".join(f"{a}.\n" for a in self.nominal_facts),
            nominal_examples="".join(f"neg({a}).\n" for a in self.negatives),
        )

    def bundle_source(self) -> BundleSource:
        bundle = self.raw_bundle()
        return BundleSource(id=self.id, timestamp=self.timestamp, fetch=lambda attempt: bundle)

    def stored(self) -> StoredSubset:
        raw = self.raw_bundle()
        return StoredSubset(
            id=self.id,
            facts_text=raw.violation_facts + raw.nominal_facts,
            examples_text=raw.violation_examples + raw.nominal_examples,
            meta={
                "timestamp": self.timestamp,
                "violation_source": raw.violation_id,
                "nominal_source": raw.nominal_id,
            },
        )


@dataclass(frozen=True)
class GeneratedCorpus:
    bias: BiasSpec
    rules: Program
    subsets: tuple[GenSubset, ...]
    manifest: dict

    def bundle_sources(self) -> list[BundleSource]:
        return [s.bundle_source() for s in self.subsets]

    def stored_subsets(self) -> list[StoredSubset]:
        return [s.stored() for s in self.subsets]


# -------------------------------------------------------------- rule plumbing


def _infer_types(rules: list[Clause]) -> dict[str, tuple[str, ...]]:
    """Assign a type name to every predicate position.

    Positions sharing a variable anywhere in the rules share a type; the
    resulting typing is the coarsest one consistent with the joins.
    """
    arity: dict[str, int] = {}
    # (clause index, variable) pairs at each predicate position
    uses: dict[tuple[str, int], list[tuple[int, Term]]] = {}
    for n, clause in enumerate(rules):
        for lit in (clause.head, *clause.body):
            if arity.setdefault(lit.predicate, lit.arity) != lit.arity:
                raise ValueError(f"predicate {lit.predicate} used at two arities")
        for lit in (clause.head, *clause.body):
            for i, t in enumerate(lit.args):
                if t.is_const():
                    raise ValueError(f"planted rules must be constant-free: {clause}")
                uses.setdefault((lit.predicate, i), []).append((n, t))

    groups = connected_groups(sorted(uses), uses.__getitem__)
    names = {pos: f"t{n}" for n, group in enumerate(groups) for pos in group}
    return {pred: tuple(names[pred, i] for i in range(arity[pred])) for pred in sorted(arity)}


def _planted(rules: Program) -> tuple[list[Clause], dict[str, tuple[str, ...]]]:
    """The rules to plant and their inferred types, after the checks both
    generators share: at least one rule, and binary heads."""
    rules_list = rules.rules()
    if not rules_list:
        raise ValueError("need at least one planted rule")
    if any(c.head.arity != 2 for c in rules_list):
        raise ValueError("planted rules must have binary heads")
    return rules_list, _infer_types(rules_list)


def _build_bias(rules: list[Clause], types: dict[str, tuple[str, ...]], idle_pred: str) -> BiasSpec:
    heads: dict[str, PredDecl] = {}
    bodies: dict[str, PredDecl] = {}
    for clause in rules:
        h = clause.head
        heads.setdefault(h.predicate, PredDecl(h.predicate, h.arity, types[h.predicate]))
        for lit in clause.body:
            bodies.setdefault(lit.predicate, PredDecl(lit.predicate, lit.arity, types[lit.predicate]))
    head0 = rules[0].head
    idle_type = types[head0.predicate][0]
    bodies[idle_pred] = PredDecl(idle_pred, 1, (idle_type,))
    max_vars = max(len(c.variables()) for c in rules)
    max_body = max(len(c.body) for c in rules)
    return BiasSpec(
        head_decls=tuple(heads[p] for p in sorted(heads)),
        body_decls=tuple(bodies[p] for p in sorted(bodies)),
        max_vars=max_vars,
        max_body=max_body,
    )


class _Fresh:
    """Per-corpus constant factory; every call is globally unique."""

    def __init__(self) -> None:
        self.n = 0

    def __call__(self, ty: str) -> str:
        self.n += 1
        return f"{ty}_{self.n}"


def _var_types(clause: Clause, types: dict[str, tuple[str, ...]]) -> dict[Term, str]:
    out: dict[Term, str] = {}
    for lit in (clause.head, *clause.body):
        for t, ty in zip(lit.args, types[lit.predicate]):
            out.setdefault(t, ty)
    return out


@dataclass
class _Instance:
    facts: list[Atom]
    by_type: dict[str, list[str]]

    def pairs(self, ty0: str, ty1: str) -> list[tuple[str, str]]:
        return [
            (x, y)
            for x in self.by_type.get(ty0, ())
            for y in self.by_type.get(ty1, ())
            if x != y
        ]


def _ground(lits, mapping: dict[Term, str]) -> list[Atom]:
    return [
        Atom(lit.predicate, tuple(const(mapping[t]) for t in lit.args)) for lit in lits
    ]


def _instantiate_blocks(
    blocks, var_types: dict[Term, str], fresh: _Fresh
) -> tuple[_Instance, list[dict[Term, str]]]:
    """Ground each block of literals over fresh constants, with joins kept
    inside a block and severed across blocks.  Also returns each block's
    variable-to-constant mapping."""
    facts: list[Atom] = []
    by_type: dict[str, list[str]] = {}
    mappings: list[dict[Term, str]] = []
    for block in blocks:
        mapping: dict[Term, str] = {}
        for lit in block:
            for t in lit.args:
                if t not in mapping:
                    ty = var_types[t]
                    mapping[t] = fresh(ty)
                    by_type.setdefault(ty, []).append(mapping[t])
        facts.extend(_ground(block, mapping))
        mappings.append(mapping)
    return _Instance(facts=facts, by_type=by_type), mappings


def _partitions(n: int):
    """All set partitions of range(n), as tuples of index blocks."""

    def rec(i: int, blocks: list[list[int]]):
        if i == n:
            yield tuple(tuple(b) for b in blocks)
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1, blocks)
            b.pop()
        blocks.append([i])
        yield from rec(i + 1, blocks)
        blocks.pop()

    if n:
        yield from rec(0, [])


def _drop_one_bodies(clause: Clause):
    """Sub-bodies with one literal removed that still bind both head vars."""
    head_vars = set(clause.head.variables())
    for i in range(len(clause.body)):
        rest = clause.body[:i] + clause.body[i + 1 :]
        if not rest:
            continue
        bound = {v for lit in rest for v in lit.variables()}
        if head_vars <= bound:
            yield rest


# ----------------------------------------------------------------- generator


def _nominal_instances(clause: Clause, var_types, fresh: _Fresh, idle_pred: str, idle_type: str, light: bool):
    twins = 1 if light else 2
    out: list[_Instance] = []
    for blocks in _partitions(len(clause.body)):
        if len(blocks) < 2:
            continue
        if light and len(blocks) != len(clause.body):
            continue
        split = [[clause.body[i] for i in block] for block in blocks]
        for _ in range(twins):
            out.append(_instantiate_blocks(split, var_types, fresh)[0])
    if not light:
        for rest in _drop_one_bodies(clause):
            for _ in range(twins):
                out.append(_instantiate_blocks([rest], var_types, fresh)[0])
    for _ in range(twins):
        a, b = fresh(idle_type), fresh(idle_type)
        out.append(
            _Instance(
                facts=[Atom(idle_pred, (const(a),)), Atom(idle_pred, (const(b),))],
                by_type={idle_type: [a, b]},
            )
        )
    return out


def _check_subset(sub: GenSubset, rules: Program) -> None:
    background = Program.of((*sub.violation_facts, *sub.nominal_facts))
    examples = ExampleSet.of(sub.positives, sub.negatives)
    cov = coverage(background, rules, examples)
    missing = set(sub.positives) - set(cov.covered_pos)
    if missing:
        raise ValueError(f"planted rules miss generated positive(s): {missing}")
    if cov.covered_neg:
        raise ValueError(f"planted rules cover generated negative(s): {set(cov.covered_neg)}")


def generate_corpus(
    rules: Program,
    n_subsets: int,
    corruption: float,
    seed: int,
    light: bool = False,
) -> GeneratedCorpus:
    """Plant the given rules into n_subsets bundles with optional corruption.

    ``light`` shrinks each subset (single decoupled and idle patterns, no
    twins or drop-one variants) for bulk property testing.
    """
    rules_list, types = _planted(rules)
    if not 0.0 <= corruption <= 1.0:
        raise ValueError("corruption must be within [0, 1]")
    if n_subsets < 1:
        raise ValueError("n_subsets must be positive")

    idle_pred = "idle"
    while idle_pred in types:
        idle_pred += "_x"
    bias = _build_bias(rules_list, types, idle_pred)
    fresh = _Fresh()

    subsets: list[GenSubset] = []
    for i in range(n_subsets):
        clause = rules_list[i % len(rules_list)]
        var_types = _var_types(clause, types)
        ty0, ty1 = types[clause.head.predicate]
        scene, (mapping,) = _instantiate_blocks([clause.body], var_types, fresh)
        (pos,) = _ground([clause.head], mapping)

        nominal_facts: list[Atom] = []
        negatives: list[Atom] = []
        for inst in _nominal_instances(clause, var_types, fresh, idle_pred, ty0, light):
            nominal_facts.extend(inst.facts)
            for x, y in inst.pairs(ty0, ty1):
                negatives.append(Atom(pos.predicate, (const(x), const(y))))

        sub = GenSubset(
            id=f"sub-{i:04d}",
            timestamp=_stamp(i),
            violation_facts=tuple(scene.facts),
            positives=(pos,),
            nominal_facts=tuple(nominal_facts),
            negatives=tuple(negatives),
            planted_rule=print_clause(clause),
        )
        _check_subset(sub, rules)
        subsets.append(sub)

    rng = random.Random(f"{seed}:corrupt")
    n_bad = round(corruption * n_subsets)
    bad_ids = sorted(rng.sample(range(n_subsets), n_bad)) if n_bad else []
    corrupted: dict[str, str] = {}
    for idx in bad_ids:
        subsets[idx], kind = _corrupt(subsets[idx], rng, idle_pred)
        corrupted[subsets[idx].id] = kind

    manifest = {
        "schema": 1,
        "seed": seed,
        "n_subsets": n_subsets,
        "corruption": corruption,
        "light": light,
        "rules": [print_clause(c) for c in rules_list],
        "corrupted": corrupted,
    }
    return GeneratedCorpus(bias=bias, rules=rules, subsets=tuple(subsets), manifest=manifest)


def _corrupt(sub: GenSubset, rng: random.Random, idle_pred: str) -> tuple[GenSubset, str]:
    kind = rng.choice(("fact_deletion", "label_flip", "unknown_predicate"))
    v_facts = list(sub.violation_facts)
    n_facts = list(sub.nominal_facts)
    pos = list(sub.positives)
    neg = list(sub.negatives)
    if kind == "fact_deletion":
        i = rng.randrange(len(v_facts) + len(n_facts))
        if i < len(v_facts):
            v_facts.pop(i)
        else:
            n_facts.pop(i - len(v_facts))
    elif kind == "label_flip":
        idle_consts = {f.args[0].name for f in n_facts if f.predicate == idle_pred}
        flippable = [
            i for i, a in enumerate(neg) if all(t.name in idle_consts for t in a.args)
        ]
        if flippable and (not pos or rng.random() < 0.5):
            pos.append(neg.pop(rng.choice(flippable)))
        else:
            neg.append(pos.pop(rng.randrange(len(pos))))
    else:
        i = rng.randrange(len(v_facts) + len(n_facts))
        target = v_facts if i < len(v_facts) else n_facts
        j = i if i < len(v_facts) else i - len(v_facts)
        a = target[j]
        target[j] = Atom(f"mystery_{a.predicate}", a.args)
    return (
        GenSubset(
            id=sub.id,
            timestamp=sub.timestamp,
            violation_facts=tuple(v_facts),
            positives=tuple(pos),
            nominal_facts=tuple(n_facts),
            negatives=tuple(neg),
            planted_rule=sub.planted_rule,
            corruption=kind,
        ),
        kind,
    )


# ----------------------------------------------------------------- scenarios


def generate_scenarios(rules: Program, n_scenarios: int, seed: int):
    """Held-out labeled worlds drawn from the same planted patterns.

    Returns (id, background, examples, tags) tuples.  Every positive comes
    from a fresh rule instantiation; negatives are the scene's other agent
    pairs plus a decoupled pattern's pairs.  ``seed`` does not yet vary the
    scenes: every seed returns the same worlds with the same constants.
    """
    rules_list, types = _planted(rules)
    fresh = _Fresh()
    fresh.n = 10**6  # scenario constants never collide with corpus constants
    out = []
    for i in range(n_scenarios):
        clause = rules_list[i % len(rules_list)]
        var_types = _var_types(clause, types)
        ty0, ty1 = types[clause.head.predicate]

        scene, (mapping,) = _instantiate_blocks([clause.body], var_types, fresh)
        (pos,) = _ground([clause.head], mapping)
        pos_key = tuple(t.name for t in pos.args)
        facts = list(scene.facts)
        negatives = [
            Atom(pos.predicate, (const(x), const(y)))
            for x, y in scene.pairs(ty0, ty1)
            if (x, y) != pos_key
        ]
        other = rules_list[(i + 1) % len(rules_list)]
        decoy, _ = _instantiate_blocks([(lit,) for lit in other.body], _var_types(other, types), fresh)
        facts.extend(decoy.facts)
        negatives.extend(
            Atom(other.head.predicate, (const(x), const(y)))
            for x, y in decoy.pairs(*types[other.head.predicate])
        )

        examples = ExampleSet.of((pos,), negatives)
        background = Program.of(facts)
        cov = coverage(background, rules, examples)
        if set(cov.covered_pos) != {pos} or cov.covered_neg:
            raise ValueError(f"scenario {i} is not faithful to the planted rules")
        out.append((f"scn-{i:04d}", background, examples, ("generated", f"pattern-{i % len(rules_list)}")))
    return out


# ------------------------------------------------------------- random rules


def sample_rules(rng: random.Random, n_rules: int = 1) -> Program:
    """Random planted rules for fuzzing; each rule gets its own predicates.

    Bodies always have at least two binary literals sharing a join variable,
    so the decoupled nominal pattern genuinely differs from the violation
    scene.
    """
    clauses = []
    v0, v1, v2 = Term("var", "V0"), Term("var", "V1"), Term("var", "V2")
    for j in range(n_rules):
        p = f"p{j}a"
        q = f"p{j}b"
        shape = rng.choice(("chain", "vee"))
        if shape == "chain":
            body = [Atom(p, (v0, v2)), Atom(q, (v2, v1))]
        else:
            body = [Atom(p, (v0, v2)), Atom(q, (v1, v2))]
        if rng.random() < 0.5:
            u = f"p{j}c"
            anchor = rng.choice((v0, v1, v2))
            body.append(Atom(u, (anchor,)))
        rng.shuffle(body)
        clauses.append(Clause(Atom(f"goal{j}", (v0, v1)), tuple(body)))
    return Program.of(clauses)
