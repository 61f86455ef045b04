"""Outside-in layer tracing: spans and counts from wrappers around module attributes.

Nothing under ``src/`` is edited.  ``Tracer.install`` replaces a public
function (or class attribute) of a hornpipe module with a timing wrapper,
and also every other hornpipe module attribute bound to the same object, so
``from .entailment import coverage`` bindings are caught too.
``uninstall`` puts the originals back.

A span is ``[name, start, end, parent, attrs]``; ``parent`` indexes the
span that was open when this one started (-1 for a top-level span).  Spans
stay in memory until the run writes them out.

Worker processes (``check_subsets`` with jobs > 1) inherit the wrappers on
fork.  A worker's top-level ``learner.solve`` returns its result as a
``_Shipped`` whose pickled form carries the worker's spans; unpickling it
in the parent hands the spans to the parent's tracer and yields a plain
``SolverResult``, so the library sees what it always sees.  Worker spans
are kept apart as ``remote``: they ran in parallel inside the parent's
``check_subsets`` span, so they add to calls and seconds but are not part
of the parent's timeline.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from typing import Callable

from hornpipe import cover, entailment, evalharness, learner, parsing, pipeline, synthgen

_now = time.perf_counter


# Attribute hooks: ``before(args)`` runs before the call, ``after(args,
# result)`` after it; each returns a dict of counts stored on the span.


def _cache_lookup(args) -> dict:
    cache, view = args[0], args[1]
    return {"hit": view.key in cache.tables}


def _solve_stats(args, result) -> dict:
    return {"safe": result.stats.candidates_negative_safe}


def _tables_scanned(args, result) -> dict:
    return {"scanned": len(args[0])}


def _validated(args, result) -> dict:
    return {"accepted": int(result.accepted)}


def _checked(args, result) -> dict:
    return {"reliable": len(result[0]), "total": len(args[0])}


def _aggregated(args, result) -> dict:
    return {"accepts": sum(t.accepted_count for t in result.trials)}


def _evaluated(args, result) -> dict:
    return {"scored": len(result.verdicts)}


# (owner, attribute, layer name, before hook, after hook); owner is a module or class.
TIMED_LAYERS = (
    (pipeline, "run_pipeline", "pipeline.run_pipeline", None, None),
    (pipeline, "validate_bundle", "pipeline.validate_bundle", None, _validated),
    (pipeline, "check_subsets", "pipeline.check_subsets", None, _checked),
    (pipeline, "aggregate", "pipeline.aggregate", None, _aggregated),
    (pipeline, "retain_partial", "pipeline.retain_partial", None, None),
    (pipeline, "prune_by_support", "pipeline.prune_by_support", None, None),
    (parsing, "parse_facts", "parsing.parse_facts", None, None),
    (parsing, "parse_examples", "parsing.parse_examples", None, None),
    (learner, "solve", "learner.solve", None, _solve_stats),
    (learner, "verify", "learner.verify", None, None),
    (cover, "coverage_tables", "cover.coverage_tables", None, _tables_scanned),
    (cover, "covers_any", "cover.covers_any", None, None),
    (cover, "covered_atoms", "cover.covered_atoms", None, None),
    (cover.CoverCache, "table", "cover.CoverCache.table", _cache_lookup, None),
    (entailment, "consequences", "entailment.consequences", None, None),
    (entailment, "coverage", "entailment.coverage", None, None),
    (entailment, "rule_support", "entailment.rule_support", None, None),
    (entailment.FactStore, "from_program", "entailment.FactStore.from_program", None, None),
    (entailment.FactStore, "components", "entailment.FactStore.components", None, None),
    (evalharness, "evaluate", "evalharness.evaluate", None, _evaluated),
)

SETUP_LAYERS = (
    (synthgen, "generate_corpus", "synthgen.generate_corpus", None, None),
    (synthgen, "generate_scenarios", "synthgen.generate_scenarios", None, None),
    (parsing, "parse_rules", "parsing.parse_rules", None, None),
    (learner, "candidate_list", "learner.candidate_list", None, None),
)

_ACTIVE: "Tracer | None" = None  # the parent-side tracer that worker spans land in


class _Shipped(learner.SolverResult):
    """A worker's SolverResult that pickles together with the worker's spans."""

    def __reduce__(self):
        plain = learner.SolverResult(self.outcome, self.hypothesis, self.stats)
        return (_land, (plain, self.__dict__["spans"]))


def _land(result, spans):
    if _ACTIVE is not None:
        _ACTIVE.remote.append(spans)
    return result


class Tracer:
    """Records spans for the layers it has installed wrappers on."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.remote: list[list[list]] = []  # one span list per worker solve
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._in_worker = False
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn: Callable, name: str, before, after) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if os.getpid() != tracer._pid:  # first call in a forked worker
                tracer._pid, tracer._in_worker = os.getpid(), True
                tracer.spans, tracer.remote, tracer._stack = [], [], []
            spans, stack = tracer.spans, tracer._stack
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            if before is not None:
                span[4] = before(args)
            spans.append(span)
            stack.append(idx)
            span[1] = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = _now()
                stack.pop()
            if after is not None:
                span[4] = after(args, result)
            if tracer._in_worker and not stack:
                shipped = _Shipped(result.outcome, result.hypothesis, result.stats)
                shipped.__dict__["spans"] = [
                    [n, t0, t1, p - idx if p >= idx else -1, a] for n, t0, t1, p, a in spans[idx:]
                ]
                del spans[idx:]
                return shipped
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, layers) -> None:
        global _ACTIVE
        _ACTIVE = self
        modules = [m for n, m in sys.modules.items() if n == "hornpipe" or n.startswith("hornpipe.")]
        for owner, attr, name, before, after in layers:
            raw = owner.__dict__[attr]
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            wrapper = self._wrap(fn, name, before, after)
            self._set(owner, attr, staticmethod(wrapper) if is_static else wrapper)
            if isinstance(owner, type):
                continue
            for mod in modules:
                if mod is not owner and mod.__dict__.get(attr) is fn:
                    self._set(mod, attr, wrapper)

    def _set(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        global _ACTIVE
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        _ACTIVE = None

    def take(self) -> tuple[list[list], list[list[list]]]:
        """Hand over and forget the spans recorded so far."""
        out = (self.spans, self.remote)
        self.spans, self.remote = [], []
        return out


# -- summarising ------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus its direct children's durations."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def _ancestor(spans: list[list], i: int, name: str) -> int:
    p = spans[i][3]
    while p >= 0 and spans[p][0] != name:
        p = spans[p][3]
    return p


def layer_totals(spans: list[list], remote: list[list[list]]) -> dict[str, float]:
    """Calls, self seconds and hook counts per layer, summed over the spans.

    Hook counts are keyed ``<layer>#<count>``; solves are also counted
    under each aggregation layer they ran inside.
    """
    out: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0) + value

    for group in (spans, *remote):
        for s, own in zip(group, self_times(group)):
            add(s[0] + ".s", own)
            add(s[0] + ".calls", 1)
            for key, value in (s[4] or {}).items():
                add(f"{s[0]}#{key}", value)
    for i, s in enumerate(spans):
        if s[0] == "learner.solve":
            for layer in ("pipeline.aggregate", "pipeline.retain_partial"):
                if _ancestor(spans, i, layer) >= 0:
                    add(layer + ".solves", 1)
    return out


def aggregate_steps(spans: list[list]) -> tuple[list[float], list[float]]:
    """Solve durations in the first and in the last quarter of each aggregate call."""
    steps: dict[int, list[float]] = {}
    for i, s in enumerate(spans):
        if s[0] == "learner.solve":
            a = _ancestor(spans, i, "pipeline.aggregate")
            if a >= 0:
                steps.setdefault(a, []).append(s[2] - s[1])
    early: list[float] = []
    late: list[float] = []
    for durations in steps.values():
        q = max(1, len(durations) // 4)
        early += durations[:q]
        late += durations[-q:]
    return early, late


def top_level_seconds(spans: list[list]) -> float:
    return sum(s[2] - s[1] for s in spans if s[3] == -1)


TIMED_METRICS = [name + sfx for _, _, name, _, _ in TIMED_LAYERS for sfx in (".s", ".calls")]
SETUP_METRICS = [name + ".s" for _, _, name, _, _ in SETUP_LAYERS]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarise(rounds: list[tuple[float, list, list]], setups: list[tuple[list, list]]) -> dict[str, float]:
    """Per-layer metrics: timed layers per round, set-up layers per set-up.

    ``rounds`` holds (wall seconds, spans, remote spans) for each timed
    round and ``setups`` holds (spans, remote spans) for each set-up.
    Means are taken, so that the parent-side self seconds of the timed
    layers plus ``other.s`` add up to ``traced.run_s``.
    """
    n = len(rounds)
    totals: dict[str, float] = {}
    early: list[float] = []
    late: list[float] = []
    wall = other = 0.0
    for seconds, spans, remote in rounds:
        for k, v in layer_totals(spans, remote).items():
            totals[k] = totals.get(k, 0) + v
        e, l = aggregate_steps(spans)
        early += e
        late += l
        wall += seconds
        other += seconds - top_level_seconds(spans)
    setup_totals: dict[str, float] = {}
    for spans, remote in setups:
        for k, v in layer_totals(spans, remote).items():
            setup_totals[k] = setup_totals.get(k, 0) + v

    def t(key: str) -> float:
        return totals.get(key, 0)

    out = {k: t(k) / n for k in TIMED_METRICS}
    out.update({k: setup_totals.get(k, 0) / len(setups) for k in SETUP_METRICS})
    hits, lookups = t("cover.CoverCache.table#hit"), t("cover.CoverCache.table.calls")
    out.update(
        {
            "learner.negative_safe_ratio": _ratio(t("learner.solve#safe"), t("cover.coverage_tables#scanned")),
            "cover.cache.hits": hits / n,
            "cover.cache.misses": (lookups - hits) / n,
            "cover.cache.hit_ratio": _ratio(hits, lookups),
            "pipeline.validate.accept_ratio": _ratio(
                t("pipeline.validate_bundle#accepted"), t("pipeline.validate_bundle.calls")
            ),
            "pipeline.subset_check.reliable_ratio": _ratio(
                t("pipeline.check_subsets#reliable"), t("pipeline.check_subsets#total")
            ),
            "pipeline.aggregate.solves": t("pipeline.aggregate.solves") / n,
            "pipeline.aggregate.accepts_per_solve": _ratio(
                t("pipeline.aggregate#accepts"), t("pipeline.aggregate.solves")
            ),
            "pipeline.aggregate.early_step_s": statistics.fmean(early) if early else 0.0,
            "pipeline.aggregate.late_step_s": statistics.fmean(late) if late else 0.0,
            "pipeline.retain_partial.solves": t("pipeline.retain_partial.solves") / n,
            "evalharness.examples_scored": t("evalharness.evaluate#scored") / n,
            "other.s": other / n,
            "traced.run_s": wall / n,
        }
    )
    return out
