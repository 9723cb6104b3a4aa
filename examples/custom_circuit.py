#!/usr/bin/env python
"""Using the library on your own design: a traffic-light controller.

This example shows the full public API surface on a fresh circuit rather
than a paper benchmark: write the design as ``.rml`` module text,
elaborate it, verify CTL properties, estimate coverage for an observed
signal, inspect the holes with the Definition-3 mutation oracle, and
cross-check the two.

Run:  python examples/custom_circuit.py
"""

from repro import (
    CoverageEstimator,
    ModelChecker,
    elaborate,
    enumerate_model,
    mutation_covered,
    parse_ctl,
    parse_module,
)

#: Green -> yellow -> red -> green, with an emergency override to red.
TRAFFIC_LIGHT = """
MODULE traffic_light

VAR
  emergency : boolean;   -- free input: force the light to red
  phase : word[2];       -- 0 = green, 1 = yellow, 2 = red

ASSIGN
  init(phase) := 0;
  next(phase) := case
    emergency : 2;
    phase = 2 : 0;
    TRUE : phase + 1;
  esac;

DEFINE
  green := phase = 0;
  yellow := phase = 1;
  red := phase = 2;
"""


def build_traffic_light():
    """The traffic light's FSM: its module text, parsed and elaborated."""
    return elaborate(parse_module(TRAFFIC_LIGHT), text=TRAFFIC_LIGHT).fsm


def main() -> None:
    light = build_traffic_light()
    checker = ModelChecker(light)

    properties = [
        parse_ctl("AG (emergency -> AX red)"),
        parse_ctl("AG (!emergency & green -> AX yellow)"),
        parse_ctl("AG (!emergency & yellow -> AX red)"),
    ]
    for prop in properties:
        result = checker.check(prop)
        print(f"  [{'PASS' if result.holds else 'FAIL'}] {prop} "
              f"({result.stats.format()})")
        assert result.holds

    estimator = CoverageEstimator(light, checker=checker)
    report = estimator.estimate(properties, observed="red")
    print()
    print(report.summary())

    # No property checks that red eventually yields back to green: the
    # post-red (green) states are uncovered for observed signal `red`.
    report2 = estimator.estimate(
        properties + [parse_ctl("AG (!emergency & red -> AX !red)")],
        observed="red",
    )
    print(f"\nwith the red-releases property: {report2.percentage:.2f}%")

    # Cross-check the symbolic covered set against the paper's Definition 3
    # (one dual FSM per state) on the explicit model.
    model = enumerate_model(light)
    oracle = mutation_covered(model, properties[0], "red")
    symbolic = estimator.covered_set(properties[0], observed="red")
    symbolic_keys = {
        tuple(s[v] for v in light.state_vars)
        for s in light.iter_states(symbolic)
    }
    oracle_keys = {
        tuple(model.signal_values[i][v] for v in light.state_vars)
        for i in oracle
    }
    assert symbolic_keys == oracle_keys
    print("\nsymbolic covered set == Definition-3 mutation oracle "
          f"({len(oracle_keys)} states) — the Correctness Theorem, live.")


if __name__ == "__main__":
    main()
