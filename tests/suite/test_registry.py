"""Tests for the suite registry (builtins merged with .rml discovery)."""

import pytest

from repro.circuits import counter_properties
from repro.expr import parse_expr
from repro.lang import parse_module
from repro.suite import (
    BUILTIN_TARGETS,
    builtin_job,
    builtin_jobs,
    builtin_source,
    default_jobs,
    discover_rml,
    rml_job,
)


class TestBuiltins:
    def test_every_paper_target_registered(self):
        assert set(BUILTIN_TARGETS) == {
            "counter", "buffer-hi", "buffer-lo", "queue-wrap",
            "queue-full", "queue-empty", "pipeline",
        }

    def test_builtin_source_is_one_module_with_its_suite(self):
        module = parse_module(builtin_source("counter"))
        assert module.name == "counter_mod5"
        assert len(module.specs) == len(counter_properties())
        assert module.observed == ("count",)
        assert module.dont_care is None

    def test_pipeline_carries_dont_care(self):
        module = parse_module(builtin_source("pipeline"))
        assert module.dont_care == parse_expr("!out_valid")

    def test_unknown_target_raises(self):
        with pytest.raises(ValueError, match="unknown target"):
            builtin_source("nonsense")

    def test_invalid_stage_raises(self):
        with pytest.raises(ValueError, match="invalid stage"):
            builtin_source("counter", stage="bogus")
        with pytest.raises(ValueError, match="invalid stage"):
            builtin_source("queue-full", stage="anything")

    def test_buggy_without_a_buggy_variant_raises(self):
        with pytest.raises(ValueError, match="buggy variants: buffer-hi, buffer-lo"):
            builtin_source("counter", buggy=True)
        with pytest.raises(ValueError, match="no buggy variant"):
            builtin_job("counter", buggy=True)
        assert "_buggy" in builtin_source("buffer-hi", buggy=True)

    def test_builtin_job_runs_the_generated_text(self):
        job = builtin_job("queue-wrap", "final")
        assert job.name == "queue-wrap@final"
        assert job.stage == "final"
        assert job.path is None
        assert job.source == builtin_source("queue-wrap", "final")

    def test_one_job_per_stage(self):
        names = [job.name for job in builtin_jobs()]
        assert len(names) == len(set(names))
        assert "counter@full" in names
        assert "counter@partial" in names
        assert "queue-wrap@final" in names
        assert "buffer-hi" in names  # stage-less target: single job


class TestDiscovery:
    def test_discover_rml_sorted(self, tmp_path):
        (tmp_path / "b.rml").write_text("MODULE b\n")
        (tmp_path / "a.rml").write_text("MODULE a\n")
        (tmp_path / "ignored.txt").write_text("not a model")
        found = discover_rml(tmp_path)
        assert [p.name for p in found] == ["a.rml", "b.rml"]

    def test_rml_job_reads_source_eagerly(self, tmp_path):
        path = tmp_path / "tiny.rml"
        path.write_text("MODULE tiny\n")
        job = rml_job(path)
        path.unlink()  # the job must survive the file disappearing
        assert job.name == "rml:tiny"
        assert job.source == "MODULE tiny\n"

    def test_default_jobs_merges(self, tmp_path):
        (tmp_path / "extra.rml").write_text("MODULE extra\n")
        jobs = default_jobs(rml_dir=tmp_path)
        assert jobs[:-1] == builtin_jobs()
        assert jobs[-1].path == str(tmp_path / "extra.rml")

    def test_default_jobs_without_builtins(self, tmp_path):
        (tmp_path / "only.rml").write_text("MODULE only\n")
        jobs = default_jobs(rml_dir=tmp_path, include_builtins=False)
        assert [job.name for job in jobs] == ["rml:only"]

    def test_default_jobs_builtins_only(self):
        assert default_jobs() == builtin_jobs()
