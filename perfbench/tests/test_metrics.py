import json
import re
from pathlib import Path

from perfbench.run import UNITS

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_are_plain():
    for name in UNITS:
        assert NAME.fullmatch(name), name
        assert len(name) <= 64


def test_benchmark_json_lists_every_reported_metric():
    bench = _benchmark()
    listed = bench["end_to_end"] + bench["per_layer"]
    assert sorted(m["name"] for m in listed) == sorted(UNITS)
    for metric in listed:
        assert metric["unit"] == UNITS[metric["name"]]


def test_setup_bound_is_the_largest():
    bench = _benchmark()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert max(bounds.values()) <= 0.25
