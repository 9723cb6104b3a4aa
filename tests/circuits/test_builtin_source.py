"""The builtin targets are ``.rml`` text: every target, stage and variant
renders to a module that lints clean and carries its suite exactly, and the
size-parametric builders are that text elaborated."""

import pytest

from repro.circuits import (
    BUILTIN_TARGETS,
    build_circular_queue,
    build_counter,
    build_pipeline,
    build_priority_buffer,
    builtin_source,
    circular_queue_source,
    counter_source,
    pipeline_source,
    priority_buffer_source,
)
from repro.coverage import CoverageEstimator
from repro.lang import elaborate, module_to_str, parse_module
from repro.lint import lint_source


def _variants():
    for target in BUILTIN_TARGETS.values():
        for stage in target.stages or (None,):
            for buggy in (False, True) if target.buggy else (False,):
                suffix = f"@{stage}" if stage else ""
                yield pytest.param(
                    target, stage, buggy,
                    id=f"{target.name}{suffix}{'+buggy' if buggy else ''}",
                )


@pytest.mark.parametrize("target,stage,buggy", _variants())
def test_every_variant_lints_clean(target, stage, buggy):
    report = lint_source(builtin_source(target.name, stage, buggy))
    assert report.diagnostics == []


@pytest.mark.parametrize("target,stage,buggy", _variants())
def test_one_spec_per_suite_property(target, stage, buggy):
    module = parse_module(builtin_source(target.name, stage, buggy))
    suite = target.suites[stage] if stage else next(iter(target.suites.values()))
    assert [spec.formula for spec in module.specs] == suite()
    assert module.observed == (target.observed,)
    assert parse_module(module_to_str(module)) == module


def test_default_stage_is_the_first_suite():
    assert builtin_source("queue-wrap") == builtin_source("queue-wrap", "initial")
    assert builtin_source("counter") == builtin_source("counter", "full")


@pytest.mark.parametrize(
    "build,source,size",
    [
        (build_counter, counter_source, 3),
        (build_circular_queue, circular_queue_source, 8),
        (build_priority_buffer, priority_buffer_source, 2),
        (build_pipeline, pipeline_source, 5),
    ],
    ids=["counter", "queue", "buffer", "pipeline"],
)
def test_builders_elaborate_their_text(build, source, size):
    built = build(size)
    text = elaborate(parse_module(source(size))).fsm
    assert (built.name, built.state_vars) == (text.name, text.state_vars)
    assert built.manager.var_names == text.manager.var_names


@pytest.mark.parametrize(
    "stages,reachable,space",
    [
        (3, 1024, 768),
        (14, 2**32, 3 * 2**30),
        (90, 24519928653854221733733552434404946937899825954937634816,
         18389946490390666300300164325803710203424869466203226112),
    ],
)
def test_pipeline_sizes_keep_their_state_counts(stages, reachable, space):
    """perfbench's oracles take these as reference answers."""
    fsm = build_pipeline(stages=stages)
    covered_space = CoverageEstimator(fsm).coverage_space(dont_care="!out_valid")
    assert fsm.count_states(fsm.reachable()) == reachable
    assert fsm.count_states(covered_space) == space


def test_size_checks_are_kept():
    with pytest.raises(ValueError, match="power of two"):
        circular_queue_source(3)
    with pytest.raises(ValueError, match="at least 2 stages"):
        pipeline_source(1)
