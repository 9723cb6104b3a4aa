"""User-facing BDD function wrapper with operator overloading.

:class:`Function` pairs a node id with its owning manager and provides the
Boolean algebra (`&`, `|`, `~`, `^`, :meth:`implies`, :meth:`iff`), set-style
helpers (:meth:`diff`, :meth:`subseteq`), existential quantification,
relational products, cofactors and renaming in a form that reads like the
paper's set equations, e.g.::

    covered = (t_b & depend).diff(dont_care)
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Sequence, Tuple

from ..errors import BDDError
from .manager import FALSE, TRUE, BDDManager


class Function:
    """A Boolean function (equivalently, a set of states) in a manager.

    Instances are immutable value objects; all operators return new
    instances.  Equality is structural: two functions are equal iff they are
    the same node in the same manager (canonical by ROBDD reduction).
    """

    __slots__ = ("manager", "node", "__weakref__")

    def __init__(self, manager: BDDManager, node: int):
        self.manager = manager
        self.node = node
        manager.register_external(self)
        # Wrapper creation is the engine's *safe point*: the freshly wrapped
        # result is now GC-rooted and no raw-node traversal is in flight, so
        # the resource manager may collect / evict here.
        manager.checkpoint()

    # -- constructors ---------------------------------------------------

    @classmethod
    def true(cls, manager: BDDManager) -> "Function":
        """The constant-true function (the full state set)."""
        return cls(manager, TRUE)

    @classmethod
    def false(cls, manager: BDDManager) -> "Function":
        """The constant-false function (the empty state set)."""
        return cls(manager, FALSE)

    @classmethod
    def var(cls, manager: BDDManager, name: str) -> "Function":
        """The positive literal of variable ``name``."""
        return cls(manager, manager.var(name))

    # -- predicates -----------------------------------------------------

    def is_true(self) -> bool:
        """Whether this is the constant TRUE function."""
        return self.node == TRUE

    def is_false(self) -> bool:
        """Whether this is the constant FALSE function (empty set)."""
        return self.node == FALSE

    def __bool__(self) -> bool:
        raise TypeError(
            "Function truthiness is ambiguous; use is_true()/is_false() or "
            "compare with =="
        )

    # -- algebra ----------------------------------------------------------

    def _coerce(self, other: "Function") -> int:
        if not isinstance(other, Function):
            raise TypeError(f"expected Function, got {type(other).__name__}")
        if other.manager is not self.manager:
            raise BDDError("cannot combine functions from different managers")
        return other.node

    def __and__(self, other: "Function") -> "Function":
        return Function(self.manager, self.manager.apply_and(self.node, self._coerce(other)))

    def __or__(self, other: "Function") -> "Function":
        return Function(self.manager, self.manager.apply_or(self.node, self._coerce(other)))

    def __xor__(self, other: "Function") -> "Function":
        return Function(self.manager, self.manager.apply_xor(self.node, self._coerce(other)))

    def __invert__(self) -> "Function":
        return Function(self.manager, self.manager.apply_not(self.node))

    def implies(self, other: "Function") -> "Function":
        """Logical implication ``self -> other``."""
        return Function(
            self.manager, self.manager.apply_implies(self.node, self._coerce(other))
        )

    def iff(self, other: "Function") -> "Function":
        """Logical equivalence ``self <-> other``."""
        return Function(
            self.manager, self.manager.apply_iff(self.node, self._coerce(other))
        )

    def diff(self, other: "Function") -> "Function":
        """Set difference ``self & ~other``."""
        return Function(
            self.manager, self.manager.apply_diff(self.node, self._coerce(other))
        )

    def subseteq(self, other: "Function") -> bool:
        """Whether ``self`` implies ``other`` (set inclusion)."""
        return self.manager.apply_diff(self.node, self._coerce(other)) == FALSE

    def intersects(self, other: "Function") -> bool:
        """Whether the two sets share at least one state."""
        return self.manager.apply_and(self.node, self._coerce(other)) != FALSE

    # -- quantification / cofactors / renaming -----------------------------

    def exist(self, variables: Sequence[int]) -> "Function":
        """Existentially quantify the given variable ids."""
        return Function(self.manager, self.manager.exists(self.node, variables))

    def and_exists(self, other: "Function", variables: Sequence[int]) -> "Function":
        """Relational product: ``exists variables . (self & other)``."""
        return Function(
            self.manager,
            self.manager.and_exists(self.node, self._coerce(other), variables),
        )

    def and_exists_chain(
        self, steps: Sequence[Tuple["Function", Sequence[int]]]
    ) -> "Function":
        """Scheduled multi-conjunct relational product.

        ``steps`` is a sequence of ``(conjunct, variables)`` pairs; the
        result is ``exists (all scheduled variables) . (self & AND of all
        conjuncts)`` provided the schedule is legal (no variable quantified
        before its last conjunct — see
        :meth:`repro.bdd.manager.BDDManager.and_exists_chain`).
        """
        raw = [(self._coerce(g), list(variables)) for g, variables in steps]
        return Function(
            self.manager, self.manager.and_exists_chain(self.node, raw)
        )

    def cofactor(self, assignment: Dict[int, bool]) -> "Function":
        """Cofactor with every variable id in ``assignment`` fixed to its value."""
        return Function(self.manager, self.manager.cofactor(self.node, assignment))

    def rename(self, mapping: Dict[int, int]) -> "Function":
        """Rename variables ``{old id -> new id}``; the mapping must keep the
        order of the support (see :meth:`BDDManager.rename`)."""
        return Function(self.manager, self.manager.rename(self.node, mapping))

    # -- inspection -------------------------------------------------------

    def satcount(self, variables: Optional[Sequence[int]] = None) -> int:
        """Number of satisfying assignments over ``variables``."""
        return self.manager.satcount(self.node, variables)

    def support(self) -> Sequence[int]:
        """Variable ids this function depends on."""
        return self.manager.support(self.node)

    def iter_cubes(self) -> Iterator[Dict[int, bool]]:
        """Iterate over the cubes (paths to TRUE) of this function."""
        return self.manager.iter_cubes(self.node)

    def iter_sat(self, variables: Sequence[int]) -> Iterator[Dict[int, bool]]:
        """Iterate over complete satisfying assignments over ``variables``."""
        return self.manager.iter_sat(self.node, variables)

    def pick_sat(self, variables: Sequence[int]) -> Optional[Dict[int, bool]]:
        """Return one satisfying assignment or ``None``."""
        return self.manager.pick_sat(self.node, variables)

    def evaluate(self, assignment: Dict[int, bool]) -> bool:
        """Evaluate under a complete assignment ``{var id: bool}``."""
        return self.manager.eval_node(self.node, assignment)

    def size(self) -> int:
        """Number of DAG nodes (a measure of symbolic complexity)."""
        return self.manager.size(self.node)

    # -- dunder ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Function)
            and other.manager is self.manager
            and other.node == self.node
        )

    def __hash__(self) -> int:
        return hash((id(self.manager), self.node))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.node == TRUE:
            return "<Function TRUE>"
        if self.node == FALSE:
            return "<Function FALSE>"
        return f"<Function node={self.node} size={self.size()}>"
