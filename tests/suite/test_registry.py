"""Tests for the suite registry (builtins merged with .rml discovery)."""

import pytest

from repro.suite import (
    BUILTIN_TARGETS,
    build_builtin,
    builtin_jobs,
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

    def test_build_builtin_returns_quadruple(self):
        fsm, props, observed, dont_care = build_builtin("counter")
        assert fsm.name.startswith("counter")
        assert props
        assert observed == "count"
        assert dont_care is None

    def test_pipeline_carries_dont_care(self):
        *_, dont_care = build_builtin("pipeline")
        assert dont_care == "!out_valid"

    def test_unknown_target_raises(self):
        with pytest.raises(ValueError, match="unknown target"):
            build_builtin("nonsense")

    def test_invalid_stage_raises(self):
        with pytest.raises(ValueError, match="invalid stage"):
            build_builtin("counter", stage="bogus")
        with pytest.raises(ValueError, match="invalid stage"):
            build_builtin("queue-full", stage="anything")

    def test_buggy_without_a_buggy_variant_raises(self):
        with pytest.raises(ValueError, match="buggy variants: buffer-hi, buffer-lo"):
            build_builtin("counter", buggy=True)
        build_builtin("buffer-hi", buggy=True)

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
        assert job.kind == "rml"
        assert job.source == "MODULE tiny\n"

    def test_default_jobs_merges(self, tmp_path):
        (tmp_path / "extra.rml").write_text("MODULE extra\n")
        jobs = default_jobs(rml_dir=tmp_path)
        kinds = {job.kind for job in jobs}
        assert kinds == {"builtin", "rml"}
        assert len(jobs) == len(builtin_jobs()) + 1

    def test_default_jobs_without_builtins(self, tmp_path):
        (tmp_path / "only.rml").write_text("MODULE only\n")
        jobs = default_jobs(rml_dir=tmp_path, include_builtins=False)
        assert [job.name for job in jobs] == ["rml:only"]

    def test_default_jobs_builtins_only(self):
        jobs = default_jobs()
        assert all(job.kind == "builtin" for job in jobs)
