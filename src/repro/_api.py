"""Aggregated public API, lazily re-exported as the top-level ``repro``
namespace (see ``repro/__init__.py``)."""

from .analysis import Analysis, AnalysisResult
from .bdd import (
    BDDManager,
    Function,
    ResourcePolicy,
    to_dot,
)
from .circuits import (
    DEFAULT_CAPACITY,
    DEFAULT_DEPTH,
    FIGURE1_FORMULA,
    FIGURE2_FORMULA,
    FIGURE3_FORMULA,
    HOLD_CYCLES,
    build_circular_queue,
    build_counter,
    build_pipeline,
    build_priority_buffer,
    circular_queue_empty_properties,
    circular_queue_full_properties,
    circular_queue_wrap_properties,
    circular_queue_wrap_stall_property,
    counter_partial_properties,
    counter_properties,
    figure1_graph,
    figure2_graph,
    figure3_graph,
    pipeline_augmented_properties,
    pipeline_output_properties,
    pipeline_retention_properties,
    priority_buffer_hi_properties,
    priority_buffer_lo_augmented_properties,
    priority_buffer_lo_hole_property,
    priority_buffer_lo_properties,
)
from .coverage import (
    CoverageEstimator,
    CoverageReport,
    PropertyCoverage,
    depend,
    firstreached,
    format_uncovered_traces,
    mutation_covered,
    mutation_covered_raw,
    trace_to_uncovered,
    traverse,
)
from .ctl import (
    CtlFormula,
    ctl_to_str,
    normalize_for_coverage,
    observability_transform,
    parse_ctl,
)
from .engine import DEFAULT_CONFIG, EngineConfig
from .errors import (
    BDDError,
    ConfigError,
    CoverageError,
    EvaluationError,
    ModelError,
    NotInSubsetError,
    ParseError,
    ReportError,
    ReproError,
    ServeError,
    VerificationError,
)
from .expr import Expr, evaluate, expr_to_str, parse_expr
from .fsm import FSM, ExplicitGraph, ExplicitModel, enumerate_model
from .gen import (
    Disagreement,
    FuzzResult,
    GeneratedModel,
    GenParams,
    check_module,
    generate,
    random_actl,
    random_ctl,
    random_expr,
    random_graph,
    random_module,
    run_fuzz,
    shrink_module,
)
from .lang import (
    ElaboratedModel,
    Module,
    elaborate,
    load_module,
    module_to_str,
    parse_module,
)
from .mc import (
    CheckResult,
    ExplicitModelChecker,
    ModelChecker,
    format_trace,
    input_sequence,
)
from .obs import (
    BENCH_WORKLOADS,
    BenchResult,
    BenchWorkload,
    Span,
    Telemetry,
    WorkStats,
    chrome_trace_events,
    compare_result,
    format_profile,
    run_bench,
    run_workload,
    write_baseline,
    write_chrome_trace,
)
from .serve import (
    AnalysisServer,
    ResultCache,
    ServeClient,
    ServeOptions,
    model_key,
    request_key,
    run_server,
)
from .suite import (
    BUILTIN_TARGETS,
    BuiltinTarget,
    CoverageJob,
    ShardStats,
    builtin_job,
    builtin_jobs,
    builtin_source,
    default_jobs,
    discover_rml,
    execute_job,
    read_report,
    rml_job,
    run_jobs,
    run_jobs_sharded,
    run_jobs_via_server,
    run_sharded,
    suite_report,
    write_report,
)

__all__ = [
    # facade + engine configuration
    "Analysis", "AnalysisResult", "EngineConfig", "DEFAULT_CONFIG",
    # bdd
    "BDDManager", "Function", "ResourcePolicy", "to_dot",
    # expr / ctl
    "Expr", "parse_expr", "expr_to_str", "evaluate",
    "CtlFormula", "parse_ctl", "ctl_to_str", "normalize_for_coverage",
    "observability_transform",
    # fsm
    "FSM", "ExplicitGraph", "ExplicitModel", "enumerate_model",
    # mc
    "ModelChecker", "CheckResult", "ExplicitModelChecker",
    "format_trace", "input_sequence",
    # obs (telemetry + bench)
    "Telemetry", "Span", "WorkStats", "format_profile",
    "chrome_trace_events", "write_chrome_trace",
    "BENCH_WORKLOADS", "BenchWorkload", "BenchResult",
    "run_bench", "run_workload", "write_baseline", "compare_result",
    # coverage
    "CoverageEstimator", "CoverageReport", "PropertyCoverage",
    "depend", "traverse", "firstreached",
    "mutation_covered", "mutation_covered_raw",
    "trace_to_uncovered", "format_uncovered_traces",
    # circuits
    "build_counter", "counter_properties", "counter_partial_properties",
    "build_priority_buffer", "priority_buffer_hi_properties",
    "priority_buffer_lo_properties", "priority_buffer_lo_hole_property",
    "priority_buffer_lo_augmented_properties", "DEFAULT_CAPACITY",
    "build_circular_queue", "circular_queue_wrap_properties",
    "circular_queue_wrap_stall_property", "circular_queue_full_properties",
    "circular_queue_empty_properties", "DEFAULT_DEPTH",
    "build_pipeline", "pipeline_output_properties",
    "pipeline_retention_properties", "pipeline_augmented_properties",
    "HOLD_CYCLES",
    "figure1_graph", "figure2_graph", "figure3_graph",
    "FIGURE1_FORMULA", "FIGURE2_FORMULA", "FIGURE3_FORMULA",
    # lang
    "Module", "ElaboratedModel", "parse_module", "load_module",
    "elaborate", "module_to_str",
    # gen (random scenarios + differential oracle)
    "GenParams", "GeneratedModel", "generate", "random_module",
    "random_expr", "random_actl", "random_ctl", "random_graph",
    "check_module", "Disagreement", "shrink_module", "run_fuzz",
    "FuzzResult",
    # suite
    "CoverageJob", "BuiltinTarget", "BUILTIN_TARGETS",
    "builtin_source", "builtin_job", "builtin_jobs", "default_jobs",
    "discover_rml", "rml_job", "execute_job", "run_jobs", "run_jobs_sharded",
    "run_jobs_via_server", "run_sharded", "ShardStats",
    "suite_report", "write_report", "read_report",
    # serve (coverage-as-a-service)
    "AnalysisServer", "ServeOptions", "ServeClient", "ResultCache",
    "run_server", "model_key", "request_key",
    # errors
    "ReproError", "BDDError", "ParseError", "EvaluationError", "ModelError",
    "NotInSubsetError", "VerificationError", "CoverageError", "ConfigError",
    "ReportError", "ServeError",
]
