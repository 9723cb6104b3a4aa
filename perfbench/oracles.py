"""Reference answers from paths independent of the ones being timed.

* Pipelines: the reachable-state count and coverage space come from
  :func:`repro.circuits.build_pipeline` (the circuit builder, not the
  ``.rml`` elaborator), plus the pinned covered-state counts below.
* Generated models: verdicts from the explicit-state
  :class:`~repro.mc.ExplicitModelChecker`; on small fairness- and
  don't-care-free models also the Definition-3 ``mutation_covered`` oracle.
* Builtins: the reproduction's Table-2 figures.

A reference is a dict of the :class:`~repro.analysis.AnalysisResult`
fields it pins; :func:`matches` compares a result against it.
"""

from __future__ import annotations

import re
from typing import Dict, Optional

from . import inputs

#: Covered-state counts of the pipeline workloads (exact; the seed only
#: reorders SPECs, which cannot change a union of covered sets).  Deep:
#: two thirds of the coverage space; fair: 62.5%.
PINNED_COVERED = {
    inputs.DEEP_STAGES:
        12259964326927110866866776217202473468949912977468817408,
    inputs.FAIR_STAGES: 2013265920,
}

#: (covered, space) of every builtin suite job — the Table-2 percentages
#: the circuit tests pin, as state counts.
BUILTIN_COVERAGE = {
    "counter@full": (20, 20),
    "counter@partial": (16, 20),
    "buffer-hi": (240, 240),
    "buffer-lo@initial": (192, 240),
    "buffer-lo@augmented": (240, 240),
    "queue-wrap@initial": (448, 640),
    "queue-wrap@extended": (544, 640),
    "queue-wrap@final": (640, 640),
    "queue-full": (640, 640),
    "queue-empty": (640, 640),
    "pipeline@initial": (624, 768),
    "pipeline@augmented": (768, 768),
}

#: Explicit enumeration stops here; larger generated models go unchecked.
ENUM_CAP = 4096
#: The mutation oracle costs one explicit model check per state per
#: property per observed bit; 33-64-state models cost ~90% of its time.
MUTATION_CAP = 32

_SUMMARY = re.compile(r"covered (\d+) / (\d+) reachable states")


def pipeline_reference(stages: int) -> Dict:
    """Reference for a pipeline workload model, via the circuit builder."""
    from repro.circuits import build_pipeline
    from repro.coverage import CoverageEstimator

    fsm = build_pipeline(stages=stages)
    space = CoverageEstimator(fsm).coverage_space(dont_care="!out_valid")
    return {
        "status": "ok",
        "reachable": fsm.count_states(fsm.reachable()),
        "space_states": fsm.count_states(space),
        "covered_states": PINNED_COVERED[stages],
    }


def generated_reference(text: str, name: str) -> Optional[Dict]:
    """Reference for a generated model, or ``None`` past :data:`ENUM_CAP`."""
    from repro.coverage.mutation import mutation_covered
    from repro.errors import ModelError
    from repro.fsm.explicit import enumerate_model
    from repro.lang import elaborate, parse_module
    from repro.mc.explicit_checker import ExplicitModelChecker

    module = parse_module(text, filename=name)
    model = elaborate(module)
    try:
        explicit = enumerate_model(model.fsm, limit=ENUM_CAP)
    except ModelError:
        return None
    fairness = [f.expr for f in module.fairness]
    checker = ExplicitModelChecker(explicit, fairness=fairness)
    failing = sum(not checker.holds(spec) for spec in model.specs)
    if failing:
        return {"status": "fail", "failing": failing, "reachable": explicit.n}
    ref: Dict = {"status": "ok", "reachable": explicit.n}
    if not fairness and module.dont_care is None:
        ref["space_states"] = explicit.n
        if explicit.n <= MUTATION_CAP:
            covered = set()
            for spec in model.specs:
                covered |= mutation_covered(explicit, spec, model.observed)
            ref["covered_states"] = len(covered)
    return ref


def builtin_reference(name: str) -> Dict:
    covered, space = BUILTIN_COVERAGE[name]
    return {"status": "ok", "covered_states": covered, "space_states": space}


def matches(result: Dict, ref: Optional[Dict]) -> bool:
    """Whether an ``AnalysisResult`` JSON agrees with ``ref``."""
    if ref is None:
        return True
    if result.get("status") != ref["status"]:
        return False
    if "failing" in ref and len(result.get("failing_properties") or ()) != ref["failing"]:
        return False
    return all(
        result.get(field) == ref[field]
        for field in ("covered_states", "space_states")
        if field in ref
    )


def run_output_matches(stdout: str, ref: Dict) -> bool:
    """Whether ``repro run`` printed the reference coverage figures."""
    found = _SUMMARY.search(stdout)
    return found is not None and (
        int(found.group(1)), int(found.group(2))
    ) == (ref["covered_states"], ref["space_states"])
