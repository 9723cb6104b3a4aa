"""The regression corpus: discovered, exercised in both modes, reproducible.

``tests/corpus/`` holds two kinds of ``.rml`` modules:

* the seeded baseline (``gen_*.rml``) — generator-produced, seeds recorded
  in ``MANIFEST.json``, regenerated by ``tools/gen_corpus.py``, and
  guaranteed ``status == "ok"``;
* fuzz reproducers (``fuzz-*.rml``) — shrunken witnesses written by
  ``repro fuzz`` on a disagreement.  They may legitimately carry failing
  properties; what must hold forever is that both transition modes agree
  on them byte for byte.

The suite registry must discover every one of them.
"""

import json
from pathlib import Path

import pytest

from repro.engine import EngineConfig
from repro.gen import generate
from repro.gen.oracle import COST_FIELDS
from repro.suite import default_jobs, discover_rml, execute_job

CORPUS = Path(__file__).resolve().parents[1] / "corpus"


def _manifest():
    return json.loads((CORPUS / "MANIFEST.json").read_text())


def _seeded_files():
    return sorted(p.name for p in CORPUS.glob("gen_*.rml"))


def _all_files():
    return sorted(p.name for p in CORPUS.glob("*.rml"))


def _comparable(result):
    data = result.to_json()
    for field in COST_FIELDS:
        data.pop(field, None)
    return data


def _run_both_modes(filename):
    results = {}
    for trans in ("partitioned", "mono"):
        jobs = default_jobs(
            rml_dir=CORPUS,
            include_builtins=False,
            config=EngineConfig(trans=trans),
        )
        job = next(j for j in jobs if Path(j.path).name == filename)
        results[trans] = execute_job(job)
    return results


class TestManifest:
    def test_schema_and_shape(self):
        manifest = _manifest()
        assert manifest["schema"] == "repro-corpus/v1"
        assert len(manifest["files"]) >= 10

    def test_manifest_matches_seeded_files_one_to_one(self):
        listed = sorted(entry["file"] for entry in _manifest()["files"])
        assert listed == _seeded_files()

    def test_seeds_regenerate_the_committed_modules(self):
        # The manifest's promise: every seeded corpus file is a pure
        # function of its recorded seed.  (Generator changes must
        # consciously refresh the corpus via tools/gen_corpus.py.)
        for entry in _manifest()["files"]:
            content = (CORPUS / entry["file"]).read_text()
            assert content.endswith(generate(entry["seed_key"]).text), entry


class TestRegistryDiscovery:
    def test_discovery_finds_every_corpus_module(self):
        assert sorted(p.name for p in discover_rml(CORPUS)) == _all_files()

    def test_default_jobs_collect_the_corpus(self):
        jobs = default_jobs(rml_dir=CORPUS, include_builtins=False)
        assert len(jobs) == len(_all_files())
        assert sorted(Path(job.path).name for job in jobs) == _all_files()


class TestCorpusInBothModes:
    @pytest.mark.parametrize("filename", _seeded_files())
    def test_seeded_module_passes_in_both_modes(self, filename):
        results = _run_both_modes(filename)
        for trans, result in results.items():
            assert result.status == "ok", (
                f"{filename} [{trans}]: "
                f"{result.error or result.failing_properties}"
            )
        assert _comparable(results["partitioned"]) == _comparable(
            results["mono"]
        )

    @pytest.mark.parametrize(
        "filename",
        [f for f in _all_files() if f not in _seeded_files()] or ["<none>"],
    )
    def test_fuzz_reproducers_agree_across_modes(self, filename):
        # Reproducers may fail verification by design, but they must
        # never error out, and both modes must tell the same story.
        if filename == "<none>":
            pytest.skip("no fuzz reproducers committed")
        results = _run_both_modes(filename)
        for trans, result in results.items():
            assert result.status != "error", f"{filename} [{trans}]"
        assert _comparable(results["partitioned"]) == _comparable(
            results["mono"]
        )
