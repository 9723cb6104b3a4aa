import os

import pytest

from perfbench import calib


@pytest.fixture
def probe(monkeypatch):
    monkeypatch.setattr(calib, "TABLE_SIZE", 1000)
    monkeypatch.setattr(calib, "LOOKUPS", 1000)
    return calib.Probe()


def test_factor_takes_times_to_the_reference_speed(probe):
    # A host twice as slow as the reference halves the wall time; the
    # median reading stands for the run.
    probe.readings = [calib.REFERENCE_S, 2 * calib.REFERENCE_S, 9.0]
    assert probe.factor() == pytest.approx(0.5)


def test_probe_reading_restores_the_callers_cpus(probe):
    own = os.sched_getaffinity(0)
    reading = probe.read(own)
    assert reading > 0
    assert probe.readings == [reading]
    assert os.sched_getaffinity(0) == own
