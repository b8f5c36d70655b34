"""Criterion-guided search over query-generation models and per-query
semantic test suites built by database fuzzing."""

__version__ = "0.1.0"

from .schema import ColumnId, Schema, Table, load_spider_schemas
from .query_ast import column_signature, extract_constants, print_query
from .parser import ParseError, QuerySyntaxError, ResolutionError, UnsupportedFeature, parse
from .executor import (
    DatabaseInstance,
    Denotation,
    ExecutionOutcome,
    QueryExecutor,
    compare,
)
from .scorer import (
    Hypothesis,
    NgramScorer,
    ReplayScorer,
    Scorer,
    TableScorer,
    Vocabulary,
    apply_temperature,
    sequence_logprob,
)
from .search import (
    CabSchedule,
    SCHEDULE_PRESETS,
    SamplerState,
    beam_search,
    cab_search,
    greedy_decode,
    topk_sample,
    topp_sample,
    unique_randomizer_sample,
)
from .criteria import (
    ColumnMatchCriterion,
    ExecutionCriterion,
    MethodConfig,
    OneTestCriterion,
    QuestionContext,
    SearchVerdict,
    SuiteTestCriterion,
    check,
    first_passing,
    guided_search,
)
from .testsuite import (
    NeighborSet,
    NoNeighborsPossible,
    SuiteConfig,
    SuiteStats,
    TestSuite,
    build_suite,
    fuzz_database,
    generate_neighbors,
    is_empty_output,
    load_suite,
    save_suite,
    suite_stats,
)
from .metrics import (
    EvalRecord,
    RunReport,
    exact_set_match,
    execution_accuracy,
    test_suite_accuracy,
)
