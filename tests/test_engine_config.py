"""EngineConfig: validation, codecs (JSON / CLI / pickle), policy compilation.

The config is the one value that carries engine knobs through the system,
so each transport it rides — argparse, JSON reports, process-pool pickling
— gets a round-trip test here.
"""

import argparse
import pickle

import pytest

from repro.bdd import ResourcePolicy
from repro.engine import DEFAULT_CONFIG, EngineConfig
from repro.errors import ConfigError


class TestValidation:
    def test_default_is_valid(self):
        assert EngineConfig().validate() == DEFAULT_CONFIG

    def test_unknown_trans_mode(self):
        with pytest.raises(ConfigError, match="unknown transition mode"):
            EngineConfig(trans="nope")

    def test_negative_gc_threshold(self):
        with pytest.raises(ConfigError, match="gc-threshold"):
            EngineConfig(gc_threshold=-1)

    def test_gc_growth_below_one(self):
        with pytest.raises(ConfigError, match="gc-growth"):
            EngineConfig(gc_growth=0.99)

    def test_negative_cache_threshold(self):
        with pytest.raises(ConfigError, match="cache-threshold"):
            EngineConfig(cache_threshold=-1)

    def test_unknown_telemetry_level(self):
        with pytest.raises(ConfigError, match="unknown telemetry level"):
            EngineConfig(telemetry="verbose")

    def test_config_error_is_value_error_and_repro_error(self):
        from repro.errors import ReproError

        with pytest.raises(ValueError):
            EngineConfig(trans="nope")
        with pytest.raises(ReproError):
            EngineConfig(trans="nope")

    def test_frozen(self):
        with pytest.raises(Exception):
            EngineConfig().trans = "mono"

    def test_with_replaces_and_revalidates(self):
        cfg = EngineConfig().with_(trans="mono")
        assert cfg.trans == "mono"
        with pytest.raises(ConfigError):
            cfg.with_(gc_threshold=-3)


class TestJsonCodec:
    def test_round_trip(self):
        cfg = EngineConfig(
            trans="mono", gc_threshold=1234, gc_growth=1.5,
            cache_threshold=0, telemetry="spans",
        )
        assert EngineConfig.from_json(cfg.to_json()) == cfg

    def test_default_round_trip(self):
        assert EngineConfig.from_json(EngineConfig().to_json()) == EngineConfig()

    def test_every_knob_explicit_in_json(self):
        payload = EngineConfig().to_json()
        assert set(payload) == {
            "trans", "gc_threshold", "gc_growth", "cache_threshold",
            "telemetry",
        }

    @pytest.mark.parametrize("payload,key", [
        ({"trans": "mono", "warp_drive": True}, "warp_drive"),
        # The BDD backend knob is gone: a config recorded before its
        # removal fails loudly, naming the stale key.
        ({"backend": "dict"}, "backend"),
        # So is the dynamic-reordering switch.
        ({"auto_reorder": False}, "auto_reorder"),
    ])
    def test_unknown_key_rejected(self, payload, key):
        with pytest.raises(
            ConfigError, match=f"unknown engine config key.*{key}"
        ):
            EngineConfig.from_json(payload)

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError, match="JSON object"):
            EngineConfig.from_json(["mono"])


class TestCliCodec:
    def _parser(self):
        parser = argparse.ArgumentParser()
        EngineConfig.add_cli_arguments(parser)
        return parser

    @pytest.mark.parametrize("cfg", [
        EngineConfig(),
        EngineConfig(trans="mono"),
        EngineConfig(gc_threshold=0),
        EngineConfig(gc_threshold=500, gc_growth=1.5),
        EngineConfig(gc_growth=1.0, cache_threshold=10_000),
        EngineConfig(telemetry="spans"),
        EngineConfig(trans="mono", gc_threshold=1, gc_growth=2.5,
                     cache_threshold=0, telemetry="counters"),
    ])
    def test_to_cli_args_round_trips(self, cfg):
        args = self._parser().parse_args(cfg.to_cli_args())
        assert EngineConfig.from_args(args) == cfg

    def test_default_renders_no_flags(self):
        assert EngineConfig().to_cli_args() == []

    def test_from_args_tolerates_missing_attributes(self):
        # Namespaces from parsers without the engine flags (or plain
        # objects) fall back to defaults.
        assert EngineConfig.from_args(argparse.Namespace()) == EngineConfig()


class TestPolicyCompilation:
    def test_default_compiles_to_none(self):
        assert EngineConfig().policy() is None

    def test_trans_alone_compiles_to_none(self):
        # The transition mode is not a resource knob.
        assert EngineConfig(trans="mono").policy() is None

    def test_telemetry_alone_compiles_to_none(self):
        # Telemetry is observational, not a resource knob.
        assert EngineConfig(telemetry="spans").policy() is None

    def test_gc_threshold_sets_node_threshold(self):
        policy = EngineConfig(gc_threshold=42).policy()
        assert policy.gc_node_threshold == 42

    def test_zero_disables_gc(self):
        assert not EngineConfig(gc_threshold=0).policy().gc_enabled

    def test_aggressive_equivalent(self):
        cfg = EngineConfig(gc_threshold=1, gc_growth=1.0)
        assert cfg.policy() == ResourcePolicy.aggressive()

    def test_cache_threshold_and_gc_growth(self):
        policy = EngineConfig(cache_threshold=7, gc_growth=3.0).policy()
        assert policy.cache_entry_threshold == 7
        assert policy.gc_growth == 3.0


class TestPickle:
    def test_round_trip(self):
        cfg = EngineConfig(trans="mono", gc_threshold=9, telemetry="counters")
        assert pickle.loads(pickle.dumps(cfg)) == cfg
