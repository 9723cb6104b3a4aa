"""Suite-runner walkthrough: textual models + parallel coverage jobs.

Demonstrates the PR's two subsystems working together:

1. ``repro.lang`` — a model written as ``.rml`` text (no Python builders),
   parsed, elaborated, round-tripped, and estimated;
2. ``repro.suite`` — a small job list (builtin targets, which are ``.rml``
   text too, and the textual model side by side) executed through the
   runner, with the JSON report assembled in-process.

Run directly (``python examples/suite_runner.py``) or via the test suite.
"""

from repro import (
    CoverageEstimator,
    CoverageJob,
    ModelChecker,
    builtin_job,
    elaborate,
    module_to_str,
    parse_module,
    run_jobs,
    suite_report,
)

# A two-bit saturating event counter, described textually: it counts events
# up to 3 and holds there until cleared.
SOURCE = """
MODULE saturating_counter

VAR
  event : boolean;
  clearit : boolean;
  n : word[2];

ASSIGN
  init(n) := 0;
  next(n) := case
    clearit : 0;
    event & n = 3 : 3;     -- saturate
    event : n + 1;
    TRUE : n;
  esac;

SPEC AG (clearit -> AX n = 0);
SPEC AG (!clearit & event & n = 0 -> AX n = 1);
SPEC AG (!clearit & event & n = 1 -> AX n = 2);
SPEC AG (!clearit & event & n = 2 -> AX n = 3);
SPEC AG (!clearit & event & n = 3 -> AX n = 3);
SPEC AG (!clearit & !event & n = 0 -> AX n = 0);
SPEC AG (!clearit & !event & n = 1 -> AX n = 1);
SPEC AG (!clearit & !event & n = 2 -> AX n = 2);
SPEC AG (!clearit & !event & n = 3 -> AX n = 3);

OBSERVED n;
"""


def main() -> None:
    # -- 1. the textual model, end to end ------------------------------
    module = parse_module(SOURCE, filename="saturating_counter.rml")
    assert parse_module(module_to_str(module)) == module, "round-trip broke"
    model = elaborate(module)
    checker = ModelChecker(model.fsm)
    assert all(checker.holds(p) for p in model.specs)
    report = CoverageEstimator(model.fsm, checker=checker).estimate(
        model.specs, observed=model.observed
    )
    print(f"textual model {module.name!r}: {report.percentage:.2f}% coverage "
          f"({report.covered_count}/{report.space_count} states)")

    # -- 2. a mixed suite through the runner ---------------------------
    jobs = [
        builtin_job("counter", "full"),
        builtin_job("counter", "partial"),
        CoverageJob(name="rml:saturating", path="saturating_counter.rml",
                    source=SOURCE),
    ]
    results = run_jobs(jobs, max_workers=1)
    for result in results:
        print(result.format_line())
    totals = suite_report(results)["totals"]
    print(f"totals: {totals['ok']}/{totals['jobs']} ok, "
          f"mean {totals['mean_percentage']:.2f}%")
    assert totals["ok"] == totals["jobs"] == 3


if __name__ == "__main__":
    main()
