"""Static dependency graph over a module's declared signals.

Edges point from a signal to the signals its defining logic *reads*:
a latch depends on every atom of its next-state assignment (conditions
and values), a DEFINE on every atom of its body, and an input on
nothing.  Atoms written against implicit word bits are normalised to
their parent word, so the graph — and every cone-of-influence closure
computed from it — lives entirely at the declared-signal level.  The
graph also keeps each signal's atoms as written, so the validator's
unknown-name check and lint's rules walk each value once.

Latches break combinational timing (``next()`` reads *current* values),
so the only cycles that matter are DEFINE → DEFINE ones; those are real
combinational loops, and the validator (:mod:`repro.lang.check`) rejects
them.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from .ast import Case, Module, WordConst, WordOffset, WordRef, WordSum
from .symbols import KIND_DEFINE, SymbolTable

__all__ = ["DepGraph", "build_deps", "define_cycles", "resolve_all", "value_atoms"]


def value_atoms(value) -> Tuple[str, ...]:
    """Every signal name a next-state/DEFINE value reads, unresolved.

    Handles the full value grammar: plain expressions, ``case`` blocks
    (conditions and arm values), and the word RHS nodes.
    """
    names: List[str] = []
    if isinstance(value, Case):
        for arm in value.arms:
            names.extend(arm.condition.atoms())
            names.extend(value_atoms(arm.value))
    elif isinstance(value, WordConst):
        pass
    elif isinstance(value, (WordRef, WordOffset)):
        names.append(value.name)
    elif isinstance(value, WordSum):
        names.append(value.lhs)
        names.append(value.rhs)
    else:  # plain Expr
        names.extend(value.atoms())
    return tuple(names)


class DepGraph:
    """Signal-level dependency graph with closure and reverse queries."""

    def __init__(
        self,
        deps: Dict[str, FrozenSet[str]],
        reads: Dict[str, FrozenSet[str]],
    ):
        #: signal -> the *declared* signals its logic reads.
        self.deps = deps
        #: latch or DEFINE -> every name its logic mentions, as written
        #: (unresolved, undeclared names included).
        self.reads = reads

    def readers(self) -> Dict[str, Set[str]]:
        """Inverse edges: signal -> the signals whose logic reads it."""
        out: Dict[str, Set[str]] = {name: set() for name in self.deps}
        for reader, read in self.deps.items():
            for name in read:
                out.setdefault(name, set()).add(reader)
        return out

    def closure(self, seeds: Iterable[str]) -> FrozenSet[str]:
        """Transitive dependency closure (the cone of influence of
        ``seeds``): everything the seeds read, directly or through any
        chain of defines and latches."""
        seen: Set[str] = set()
        stack = [s for s in seeds if s in self.deps]
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            stack.extend(n for n in self.deps.get(name, ()) if n not in seen)
        return frozenset(seen)


def build_deps(module: Module, table: SymbolTable) -> DepGraph:
    """The dependency graph of ``module``.

    Unknown atoms (RML001, reported by the validator) are silently dropped
    here so every downstream analysis operates on a well-formed graph.
    """
    reads: Dict[str, FrozenSet[str]] = {}
    for assign in module.nexts:
        reads[assign.target] = frozenset(value_atoms(assign.value))
    for define in module.defines:
        reads[define.name] = frozenset(value_atoms(define.value))
    deps: Dict[str, FrozenSet[str]] = {
        name: frozenset() for name in table.symbols
    }
    for name, atoms in reads.items():
        deps[name] = resolve_all(table, atoms)
    return DepGraph(deps, reads)


def resolve_all(table: SymbolTable, atoms: Iterable[str]) -> FrozenSet[str]:
    """The declared signals ``atoms`` denote; undeclared atoms drop out."""
    out: Set[str] = set()
    for atom in atoms:
        name = table.resolve(atom)
        if name is not None:
            out.add(name)
    return frozenset(out)


def define_cycles(graph: DepGraph, table: SymbolTable) -> List[List[str]]:
    """Combinational cycles: SCCs of size > 1 (or self-loops) in the
    subgraph restricted to DEFINE signals, each as a sorted name list."""
    defines = {
        name
        for name, symbol in table.symbols.items()
        if symbol.kind == KIND_DEFINE
    }
    edges = {
        name: sorted(graph.deps.get(name, frozenset()) & defines)
        for name in sorted(defines)
    }

    # Tarjan's SCC, iteratively (the repo-wide no-deep-recursion rule
    # applies to analysis code too).
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    counter = [0]
    sccs: List[List[str]] = []

    for root in edges:
        if root in index:
            continue
        work: List[Tuple[str, int]] = [(root, 0)]
        while work:
            node, edge_i = work.pop()
            if edge_i == 0:
                index[node] = lowlink[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            for i in range(edge_i, len(edges[node])):
                succ = edges[node][i]
                if succ not in index:
                    work.append((node, i + 1))
                    work.append((succ, 0))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            if lowlink[node] == index[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1 or node in edges[node]:
                    sccs.append(sorted(component))
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    sccs.sort()
    return sccs
