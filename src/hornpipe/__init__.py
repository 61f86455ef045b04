"""hornpipe: learn function-free definite-clause rules from noisy bundles.

The package derives per-subset induction instances from paired source
records, validates them, checks each for standalone solvability, folds the
reliable ones into one training-correct hypothesis (with seeded-shuffle
retries and per-example retraction on conflict), prunes rules by empirical
support, and scores hypotheses by logical entailment on held-out scenarios.
"""

from .entailment import consequences, coverage, rule_support
from .evalharness import (
    EvalReport,
    HypothesisDiff,
    Metrics,
    Scenario,
    diff_hypotheses,
    evaluate,
)
from .learner import solve
from .logic import (
    Atom,
    BiasSpec,
    Clause,
    ExampleSet,
    PredDecl,
    Program,
    Term,
    atom,
    canonical,
    const,
    print_clause,
    print_program,
    term,
    var,
)
from .parsing import (
    ParseError,
    parse_bias,
    parse_clause,
    parse_examples,
    parse_facts,
    parse_rules,
)
from .pipeline import (
    AggregationOutcome,
    PipelineConfig,
    PipelineReport,
    SubsetInstance,
    aggregate,
    check_subsets,
    prune_by_support,
    run_pipeline,
    validate_bundle,
)
from .synthgen import generate_corpus, generate_scenarios, sample_rules

__all__ = [
    "AggregationOutcome",
    "Atom",
    "BiasSpec",
    "Clause",
    "EvalReport",
    "ExampleSet",
    "HypothesisDiff",
    "Metrics",
    "ParseError",
    "PipelineConfig",
    "PipelineReport",
    "PredDecl",
    "Program",
    "Scenario",
    "SubsetInstance",
    "Term",
    "aggregate",
    "atom",
    "canonical",
    "check_subsets",
    "consequences",
    "const",
    "coverage",
    "diff_hypotheses",
    "evaluate",
    "generate_corpus",
    "generate_scenarios",
    "parse_bias",
    "parse_clause",
    "parse_examples",
    "parse_facts",
    "parse_rules",
    "print_clause",
    "print_program",
    "prune_by_support",
    "rule_support",
    "run_pipeline",
    "sample_rules",
    "solve",
    "term",
    "validate_bundle",
    "var",
]
