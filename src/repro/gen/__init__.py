"""``repro.gen`` — seeded random scenarios and the differential oracle.

The scenario-diversity engine of the test strategy: a deterministic
random-model generator (:mod:`repro.gen.model`), a multi-engine
differential oracle (:mod:`repro.gen.oracle`), a greedy reproducer
shrinker (:mod:`repro.gen.shrink`), and the fuzz-campaign driver behind
``repro fuzz`` (:mod:`repro.gen.fuzz`).

    >>> from repro.gen import generate
    >>> gm = generate("docs:0")
    >>> gm.module.name
    'fuzz_docs_0'
    >>> len(gm.module.specs) >= 1 and len(gm.module.observed) >= 1
    True

Everything is a pure function of its seed: the same key regenerates the
same scenario on any platform, under any ``PYTHONHASHSEED``.  See
``docs/testing.md`` for the oracle hierarchy and the reproduction
workflow.
"""

from .fuzz import (
    FUZZ_SCHEMA_ID,
    FuzzFinding,
    FuzzResult,
    case_key,
    run_fuzz,
    write_fuzz_report,
)
from .model import (
    GeneratedModel,
    GenParams,
    generate,
    random_actl,
    random_ctl,
    random_expr,
    random_graph,
    random_module,
)
from .oracle import (
    AXIS_CONFIGS,
    AXIS_EXPLICIT,
    AXIS_GC,
    AXIS_MONO,
    AXIS_ROUNDTRIP,
    COST_FIELDS,
    DEFAULT_AXES,
    Disagreement,
    check_module,
    comparable_result,
    validate_axes,
)
from .shrink import latch_bits, shrink_module

__all__ = [
    # generation
    "GenParams",
    "GeneratedModel",
    "generate",
    "random_module",
    "random_expr",
    "random_actl",
    "random_ctl",
    "random_graph",
    # oracle
    "AXIS_MONO",
    "AXIS_GC",
    "AXIS_EXPLICIT",
    "AXIS_ROUNDTRIP",
    "AXIS_CONFIGS",
    "COST_FIELDS",
    "DEFAULT_AXES",
    "Disagreement",
    "check_module",
    "comparable_result",
    "validate_axes",
    # shrinking
    "shrink_module",
    "latch_bits",
    # fuzzing
    "FUZZ_SCHEMA_ID",
    "FuzzFinding",
    "FuzzResult",
    "run_fuzz",
    "write_fuzz_report",
    "case_key",
]
