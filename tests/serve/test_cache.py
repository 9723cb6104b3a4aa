"""ResultCache: two tiers, bounded memory, versioned entries, degrade."""

import json

import pytest

from repro._version import __version__
from repro.obs.counters import counter_delta
from repro.serve.cache import ENTRY_SCHEMA, ResultCache, default_cache_dir


def result_doc(tag: str) -> dict:
    return {"name": tag, "status": "ok", "percentage": 100.0}


class TestMemoryTier:
    def test_miss_then_hit(self):
        cache = ResultCache()
        assert cache.get("k1") is None
        cache.put("k1", result_doc("a"))
        assert cache.get("k1") == result_doc("a")
        stats = cache.stats()
        assert stats["misses"] == 1
        assert stats["memory_hits"] == 1
        assert stats["stores"] == 1

    def test_lru_evicts_least_recently_used(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", result_doc("a"))
        cache.put("b", result_doc("b"))
        assert cache.get("a") is not None  # refresh a; b is now oldest
        cache.put("c", result_doc("c"))
        assert cache.stats()["evictions"] == 1
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert cache.get("c") is not None

    def test_returned_results_are_isolated_copies(self):
        cache = ResultCache()
        cache.put("k", result_doc("a"))
        served = cache.get("k")
        served["lint"] = {"injected": True}  # the server's lint merge
        assert "lint" not in cache.get("k")

    def test_stored_results_are_isolated_from_caller_mutation(self):
        cache = ResultCache()
        doc = result_doc("a")
        cache.put("k", doc)
        doc["status"] = "mangled"
        assert cache.get("k")["status"] == "ok"

    def test_memory_tier_holds_bytes_and_get_decodes_fresh_dicts(self):
        cache = ResultCache()
        cache.put("k", result_doc("a"))
        assert all(isinstance(e.body, bytes) for e in cache._memory.values())
        assert json.loads(cache.get_entry("k").body) == result_doc("a")
        first, second = cache.get("k"), cache.get("k")
        assert first == second == result_doc("a")
        assert first is not second

    def test_memory_bytes_follows_stores_replacements_and_evictions(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", result_doc("a"))
        cache.put("b", result_doc("bb"))
        cache.put("a", result_doc("aaa"))  # replaced in place
        cache.put("c", result_doc("c"))  # evicts b
        stats = cache.stats()
        assert stats["evictions"] == 1
        held = sum(len(entry.body) for entry in cache._memory.values())
        assert stats["memory_bytes"] == held > 0

    def test_max_entries_must_be_positive(self):
        with pytest.raises(ValueError):
            ResultCache(max_entries=0)

    def test_counts_mirror_into_global_registry(self):
        cache = ResultCache()
        with counter_delta("serve.cache.misses") as missed:
            with counter_delta("serve.cache.memory_hits") as hit:
                cache.get("nope")
                cache.put("yes", result_doc("a"))
                cache.get("yes")
        assert missed() == 1
        assert hit() == 1


class TestDiskTier:
    def test_entries_survive_a_new_instance(self, tmp_path):
        first = ResultCache(tmp_path)
        first.put("k1", result_doc("a"))
        second = ResultCache(tmp_path)
        assert second.get("k1") == result_doc("a")
        assert second.stats()["disk_hits"] == 1

    def test_disk_hit_promotes_into_memory(self, tmp_path):
        ResultCache(tmp_path).put("k1", result_doc("a"))
        cache = ResultCache(tmp_path)
        cache.get("k1")
        cache.get("k1")
        stats = cache.stats()
        assert stats["disk_hits"] == 1
        assert stats["memory_hits"] == 1

    def test_entry_file_is_schema_tagged_json(self, tmp_path):
        ResultCache(tmp_path).put("k1", result_doc("a"))
        entry = json.loads((tmp_path / "k1.json").read_text())
        assert entry["schema"] == ENTRY_SCHEMA
        assert entry["engine"] == __version__
        assert entry["key"] == "k1"
        assert entry["result"] == result_doc("a")

    def test_no_temp_files_left_behind(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(5):
            cache.put(f"k{i}", result_doc(str(i)))
        leftovers = [p.name for p in tmp_path.iterdir() if ".tmp" in p.name]
        assert leftovers == []

    def test_engine_version_mismatch_self_invalidates(self, tmp_path):
        ResultCache(tmp_path, engine_version="0.0.1").put(
            "k1", result_doc("a")
        )
        cache = ResultCache(tmp_path)  # the running engine's version
        assert cache.get("k1") is None
        assert cache.stats()["invalidations"] == 1
        assert not (tmp_path / "k1.json").exists()

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        cache = ResultCache(tmp_path)
        (tmp_path / "bad.json").write_text("{not json")
        assert cache.get("bad") is None
        assert cache.stats()["invalidations"] == 1
        assert not (tmp_path / "bad.json").exists()

    def test_wrong_schema_is_invalidated(self, tmp_path):
        (tmp_path / "k.json").write_text(
            json.dumps(
                {
                    "schema": "repro-cache-entry/v999",
                    "engine": __version__,
                    "key": "k",
                    "result": result_doc("a"),
                }
            )
        )
        cache = ResultCache(tmp_path)
        assert cache.get("k") is None
        assert cache.stats()["invalidations"] == 1


class TestDegrade:
    def test_unwritable_directory_degrades_to_memory_only(self, tmp_path):
        # The cache "directory" is a file: mkdir fails with an OSError
        # for any uid (chmod tricks don't bite when tests run as root).
        blocker = tmp_path / "blocker"
        blocker.write_text("occupied")
        cache = ResultCache(blocker / "cache")
        with pytest.warns(RuntimeWarning, match="memory-only"):
            cache.put("k1", result_doc("a"))
        assert cache.degraded
        # Requests keep working off the memory tier.
        assert cache.get("k1") == result_doc("a")
        cache.put("k2", result_doc("b"))
        assert cache.get("k2") == result_doc("b")

    def test_degrade_warns_exactly_once(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("occupied")
        cache = ResultCache(blocker / "cache")
        with pytest.warns(RuntimeWarning):
            cache.put("k1", result_doc("a"))
        import warnings

        with warnings.catch_warnings(record=True) as captured:
            warnings.simplefilter("always")
            cache.put("k2", result_doc("b"))
        assert [w for w in captured if w.category is RuntimeWarning] == []

    def test_default_cache_dir_is_user_scoped(self, monkeypatch, tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == tmp_path / "xdg" / "repro"
        monkeypatch.delenv("XDG_CACHE_HOME")
        assert default_cache_dir().name == "repro"
