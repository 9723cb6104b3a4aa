"""Deliberately-bad fixture for ``tools/check_invariants.py``.

Each construct below violates exactly one enforced invariant; the unit
tests run the checker on this file (explicit files get every rule) and
assert that every rule fires.  Nothing imports this module — it only
needs to be syntactically valid.
"""


class BadKernel:
    def apply(self, a, b):
        # kernel-recursion: a self-recursive traversal.
        if a == 0:
            return b
        return self.apply(a - 1, b)


def bad_countdown(n):
    # kernel-recursion: direct recursion through the bare name.
    return 0 if n == 0 else bad_countdown(n - 1)


def bad_report(names):
    # set-iteration: looping over a frozenset constructor.
    for name in frozenset(names):
        print(name)
    # set-iteration: a comprehension drawing from a set literal.
    return [item for item in {"b", "a"}]


def bad_meter(manager):
    # single-meter: a resource_stats() snapshot outside repro.obs.
    return manager.resource_stats()["nodes_created"]


def bad_model(build_fsm):
    # one-model-path: an FSM compiled outside the elaborator.
    return build_fsm("m", {}, ["x"], {}, {}, [])
