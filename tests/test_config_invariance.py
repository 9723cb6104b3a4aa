"""Config invariance: engine knobs must be invisible in results.

:class:`~repro.engine.EngineConfig` promises that every field is a *cost*
knob — any two configs produce byte-identical results on the same model.
This suite holds the engine to that promise on the curated corpus: every
builtin target at every stage and every shipped ``.rml`` model, compared
through :func:`repro.gen.oracle.comparable_result` (verdicts,
counterexample renderings, coverage numbers, uncovered-trace text) against
the default config.

The configs form an all-pairs covering array over four knobs — transition
mode (partitioned, mono), GC schedule (default, trigger at one live node,
collect at every safe point), operation-cache cap (default, one entry) and
telemetry (off, counters, spans): any setting of one knob meets every
setting of any other knob in at least one row.  On these models the
default GC trigger and cache cap never fire, so each non-default setting
changes what the engine actually does.
"""

import dataclasses
import functools
from pathlib import Path

import pytest

from repro.analysis import Analysis
from repro.engine import EngineConfig
from repro.gen.oracle import comparable_result
from repro.suite import BUILTIN_TARGETS

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"

_GC = {
    "gc-default": {},
    "gc-at-1": {"gc_threshold": 1},
    "gc-every": {"gc_threshold": 1, "gc_growth": 1.0},
}
_CACHE = {"cache-default": {}, "cache-cap-1": {"cache_threshold": 1}}

#: (trans, GC schedule, cache cap, telemetry); the default config is the
#: reference row and is not listed.  No row is the plain forced-GC config
#: (gc-every, default cache, telemetry off): ``tests/suite/test_gc_safety.py``
#: already runs that one on this corpus in both transition modes.
_ROWS = (
    ("mono", "gc-default", "cache-cap-1", "counters"),
    ("mono", "gc-default", "cache-default", "spans"),
    ("mono", "gc-at-1", "cache-cap-1", "off"),
    ("partitioned", "gc-at-1", "cache-default", "counters"),
    ("partitioned", "gc-at-1", "cache-cap-1", "spans"),
    ("mono", "gc-every", "cache-cap-1", "off"),
    ("partitioned", "gc-every", "cache-cap-1", "counters"),
    ("mono", "gc-every", "cache-default", "spans"),
)

CONFIGS = [
    pytest.param(
        EngineConfig(
            trans=trans, telemetry=telemetry, **_GC[gc], **_CACHE[cache]
        ),
        id=f"{trans}-{gc}-{cache}-{telemetry}",
    )
    for trans, gc, cache, telemetry in _ROWS
]


def _all_builtin_cases():
    for target in BUILTIN_TARGETS.values():
        for stage in target.stages or (None,):
            yield pytest.param(
                target.name, stage, id=f"{target.name}@{stage or 'default'}"
            )


def _builtin_result(name, stage, config):
    return comparable_result(
        Analysis.builtin(name, stage=stage, config=config)
    )


def _rml_result(path, config):
    return comparable_result(Analysis.from_rml(path, config=config))


@functools.lru_cache(maxsize=None)
def _builtin_reference(name, stage):
    return _builtin_result(name, stage, EngineConfig())


@functools.lru_cache(maxsize=None)
def _rml_reference(path):
    return _rml_result(path, EngineConfig())


def test_rows_cover_every_pair_of_settings():
    levels = (("partitioned", "mono"), tuple(_GC), tuple(_CACHE),
              ("off", "counters", "spans"))
    rows = (("partitioned", "gc-default", "cache-default", "off"), *_ROWS)
    assert len(set(rows)) == len(rows)
    for i in range(len(levels)):
        for j in range(i + 1, len(levels)):
            met = {(row[i], row[j]) for row in rows}
            assert met == {(a, b) for a in levels[i] for b in levels[j]}


def test_rows_set_every_knob():
    """A new :class:`EngineConfig` field must join the covering array, so
    that no knob skips the byte-identity check."""
    default = EngineConfig()
    never_set = [
        field.name
        for field in dataclasses.fields(EngineConfig)
        if all(
            getattr(param.values[0], field.name) == getattr(default, field.name)
            for param in CONFIGS
        )
    ]
    assert never_set == []


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("name,stage", _all_builtin_cases())
def test_builtin_results_identical_across_configs(name, stage, config):
    assert _builtin_result(name, stage, config) == _builtin_reference(
        name, stage
    )


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize(
    "path", sorted(EXAMPLES.glob("*.rml")), ids=lambda p: p.stem
)
def test_rml_results_identical_across_configs(path, config):
    assert _rml_result(path, config) == _rml_reference(path)
