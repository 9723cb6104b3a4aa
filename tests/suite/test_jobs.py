"""CoverageJob: config field, describe() regeneration, round-trips.

``describe()`` is regenerated from ``EngineConfig.to_cli_args()``, and the
round-trip tests here pin the contract: parsing a description's flags back
through the CLI parser yields the job's exact config.
"""

import argparse
import pickle

import pytest

from repro.engine import EngineConfig
from repro.suite import CoverageJob, builtin_job


def _reparse_flags(tokens):
    """Parse engine flags the way the CLI does and revive the config."""
    parser = argparse.ArgumentParser()
    EngineConfig.add_cli_arguments(parser)
    return EngineConfig.from_args(parser.parse_args(tokens))


CONFIGS = [
    EngineConfig(),
    EngineConfig(trans="mono"),
    EngineConfig(gc_threshold=0),
    EngineConfig(gc_threshold=12345, telemetry="counters"),
    EngineConfig(trans="mono", gc_growth=1.5, cache_threshold=77),
]


class TestDescribe:
    @pytest.mark.parametrize("config", CONFIGS)
    def test_builtin_describe_round_trips(self, config):
        job = builtin_job("counter", "full", config=config)
        description = job.describe()
        assert description.startswith("<counter@full>")
        flags = description[len("<counter@full>"):].split()
        assert _reparse_flags(flags) == config

    @pytest.mark.parametrize("config", CONFIGS)
    def test_rml_describe_round_trips(self, config):
        job = CoverageJob(name="rml:m", path="m.rml",
                          source="MODULE m\n", config=config)
        description = job.describe()
        assert description.startswith("m.rml")
        flags = description[len("m.rml"):].split()
        assert _reparse_flags(flags) == config

    def test_buggy_variant_and_stage_are_in_the_name(self):
        job = builtin_job("buffer-lo", "augmented", True,
                          config=EngineConfig(trans="mono"))
        assert job.describe() == "<buffer-lo@augmented> --trans mono"
        assert "_buggy" in job.source

    def test_default_config_renders_no_flags(self):
        assert builtin_job("counter").describe() == "<counter>"


class TestConstruction:
    def test_default_config(self):
        job = CoverageJob(name="c", source="MODULE c\n")
        assert job.config == EngineConfig()

    def test_frozen(self):
        job = CoverageJob(name="c", source="MODULE c\n")
        with pytest.raises(Exception):
            job.name = "other"

    def test_equality_includes_config(self):
        a = builtin_job("counter", config=EngineConfig(trans="mono"))
        b = builtin_job("counter")
        assert a != b
        assert a == builtin_job("counter", config=EngineConfig(trans="mono"))

    def test_pickle_round_trip(self):
        job = builtin_job("counter", config=EngineConfig(gc_threshold=3))
        assert pickle.loads(pickle.dumps(job)) == job
