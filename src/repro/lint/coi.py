"""Cone-of-influence analysis linking latches, observed signals, properties.

The paper's coverage metric (Definition 1) perturbs *observed* signals
and asks whether any *property* notices.  Two purely structural facts
bound that metric before any BDD is built:

* a latch outside every property's cone of influence can never change a
  verdict — its Definition-1 contribution is exactly zero; and
* a latch that cannot reach any observed signal through the dependency
  graph cannot be covered no matter which properties are written.

Both cones are dependency closures over :class:`~repro.lang.deps.DepGraph`,
seeded from property atoms and the ``OBSERVED`` list respectively.  Each
function reads what the validation pass (:class:`~repro.lang.check.ModuleCheck`)
already collected, so no expression is walked again; the cone functions
take the spec seeds as an argument so that a caller computing several
cones resolves them once.
"""

from __future__ import annotations

from typing import FrozenSet, List, Sequence

from ..lang.check import ModuleCheck
from ..lang.deps import DepGraph, resolve_all

__all__ = [
    "spec_seeds",
    "property_cones",
    "union_property_cone",
    "observed_cone",
]


def spec_seeds(check: ModuleCheck) -> List[FrozenSet[str]]:
    """Per-SPEC sets of declared signals the property mentions.

    Atoms written against implicit word bits resolve to their parent
    word; undeclared atoms (RML001 elsewhere) are dropped.
    """
    return [resolve_all(check.table, atoms) for atoms in check.spec_atoms]


def property_cones(
    graph: DepGraph, seeds: Sequence[FrozenSet[str]]
) -> List[FrozenSet[str]]:
    """The cone of influence of each SPEC, in declaration order."""
    return [graph.closure(spec) for spec in seeds]


def union_property_cone(
    graph: DepGraph, seeds: Sequence[FrozenSet[str]]
) -> FrozenSet[str]:
    """Everything at least one property can see: the closure of every
    property's seeds together (a closure of a union is the union of the
    closures)."""
    return graph.closure(frozenset().union(*seeds))


def observed_cone(check: ModuleCheck) -> FrozenSet[str]:
    """Everything the ``OBSERVED`` list transitively depends on."""
    return check.graph.closure(resolve_all(check.table, check.module.observed))
