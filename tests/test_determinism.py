"""Output determinism under ``PYTHONHASHSEED`` variation.

The differential oracle compares engine outputs byte for byte, and the
fuzz harness promises that a seed line reproduces a finding exactly — both
are sound only if nothing in the reporting or trace pipeline leaks Python
hash ordering.  These tests run the same jobs in subprocesses with
different hash seeds and diff the outputs (timing fields normalised).
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.engine import TRANS_MODES

ROOT = Path(__file__).resolve().parents[1]
HASH_SEEDS = ("0", "424242")


def _run(args, hash_seed, cwd=ROOT):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, env=env, cwd=cwd,
    )
    return proc


#: Every wall-clock key any emission layer writes: stats/metrics
#: ("seconds", "gc_seconds"), telemetry events ("t"), Chrome trace
#: events ("ts", "dur"), bench baselines ("wall_seconds").
TIMING_KEYS = ("seconds", "gc_seconds", "t", "ts", "dur", "wall_seconds")


def _normalise_stdout(text):
    """Blank the wall-clock digits in cost lines (the report's
    "25 - 0.00s", ``--profile``'s "25 - 1.3ms") — they are load noise, not
    hash-order signal."""
    return re.sub(r"(\d+k?) - \d+\.\d+m?s", r"\1 - Xs", text)


def _strip_timings(data):
    if isinstance(data, dict):
        return {
            k: _strip_timings(v)
            for k, v in data.items()
            if k not in TIMING_KEYS
        }
    if isinstance(data, list):
        return [_strip_timings(v) for v in data]
    return data


class TestHashSeedInvariance:
    @pytest.mark.parametrize("trans", TRANS_MODES)
    def test_target_report_with_traces_is_stable(self, trans):
        outs = []
        for hs in HASH_SEEDS:
            proc = _run(
                ["counter", "--stage", "partial", "--traces", "2",
                 "--trans", trans],
                hs,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(_normalise_stdout(proc.stdout))
        assert outs[0] == outs[1]
        assert "trace to uncovered state" in outs[0]

    @pytest.mark.parametrize("trans", TRANS_MODES)
    def test_rml_run_with_traces_is_stable(self, trans):
        outs = []
        for hs in HASH_SEEDS:
            proc = _run(
                ["run", "examples/arbiter.rml", "--traces", "2",
                 "--trans", trans, "--profile"],
                hs,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(_normalise_stdout(proc.stdout))
        assert outs[0] == outs[1]
        # The --profile table is there, with its ms digits blanked.
        assert "cost (nodes - time)" in outs[0]
        assert not re.search(r"\d\.\d+m?s", outs[0])

    def test_suite_json_is_stable(self, tmp_path):
        reports = []
        for hs in HASH_SEEDS:
            out = tmp_path / f"suite-{hs}.json"
            proc = _run(
                ["suite", "tests/corpus", "--no-builtins",
                 "--json", str(out)],
                hs,
            )
            assert proc.returncode == 0, proc.stderr
            reports.append(_strip_timings(json.loads(out.read_text())))
        assert reports[0] == reports[1]

    def test_chrome_trace_is_stable(self, tmp_path):
        """--trace output (timings stripped) is byte-identical across
        hash seeds: span order, names, attrs and counter deltas must not
        leak dict ordering."""
        stripped = []
        for hs in HASH_SEEDS:
            out = tmp_path / f"trace-{hs}.jsonl"
            proc = _run(
                ["run", "examples/counter.rml", "--trace", str(out)], hs
            )
            assert proc.returncode == 0, proc.stderr
            events = json.loads(out.read_text())
            assert isinstance(events, list) and events
            stripped.append(
                json.dumps(_strip_timings(events), sort_keys=True)
            )
        assert stripped[0] == stripped[1]

    def test_metrics_block_is_stable(self, tmp_path):
        """Suite JSON with telemetry spans on: the per-job metrics block
        (timings stripped) is byte-identical across hash seeds."""
        reports = []
        for hs in HASH_SEEDS:
            out = tmp_path / f"suite-tel-{hs}.json"
            proc = _run(
                ["suite", "tests/corpus", "--no-builtins",
                 "--telemetry", "spans", "--json", str(out)],
                hs,
            )
            assert proc.returncode == 0, proc.stderr
            report = json.loads(out.read_text())
            for job in report["jobs"]:
                assert job["metrics"]["level"] == "spans"
                assert job["metrics"]["spans"]
            reports.append(
                json.dumps(_strip_timings(report), sort_keys=True)
            )
        assert reports[0] == reports[1]

    def test_telemetry_is_observationally_inert(self):
        """Verdicts/coverage/trace text are byte-identical with telemetry
        on or off (spans only read engine state).  Only wall-clock digits
        are normalised — the node counts in the cost line must match too,
        proving the recording created no BDD nodes."""
        base = _run(["counter", "--traces", "2"], "0")
        spans = _run(
            ["counter", "--traces", "2", "--telemetry", "spans"], "0"
        )
        assert base.returncode == spans.returncode == 0
        assert _normalise_stdout(base.stdout) == _normalise_stdout(spans.stdout)

    def test_fuzz_report_is_stable(self, tmp_path):
        reports = []
        for hs in HASH_SEEDS:
            out = tmp_path / f"fuzz-{hs}.json"
            proc = _run(
                ["fuzz", "--budget", "3", "--seed", "5",
                 "--json", str(out), "--corpus", str(tmp_path / "c")],
                hs,
            )
            assert proc.returncode == 0, proc.stderr
            reports.append(_strip_timings(json.loads(out.read_text())))
        assert reports[0] == reports[1]
