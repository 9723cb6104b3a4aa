"""Graphviz DOT export for BDDs (debugging / documentation aid)."""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from .manager import FALSE, TRUE, BDDManager


def to_dot(
    manager: BDDManager,
    roots: Iterable[Tuple[str, int]],
    title: Optional[str] = None,
) -> str:
    """Render one or more rooted BDDs as a Graphviz ``digraph`` string.

    Parameters
    ----------
    manager:
        The owning manager (for levels and names).
    roots:
        ``(label, node)`` pairs; each labelled root gets an entry arrow.
    title:
        Optional graph label.

    Solid edges are high (then) children, dashed edges are low (else)
    children, matching the convention of Bryant's original paper.
    """
    lines = ["digraph bdd {"]
    if title:
        lines.append(f'  label="{title}";')
    lines.append("  node [shape=circle];")
    lines.append('  0 [shape=box, label="0"];')
    lines.append('  1 [shape=box, label="1"];')
    seen = {FALSE, TRUE}
    stack = []
    for label, node in roots:
        lines.append(f'  "root_{label}" [shape=plaintext, label="{label}"];')
        lines.append(f'  "root_{label}" -> {node};')
        stack.append(node)
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        name = manager.var_name(manager.level_of(node))
        low = manager.low_of(node)
        high = manager.high_of(node)
        lines.append(f'  {node} [label="{name}"];')
        lines.append(f"  {node} -> {low} [style=dashed];")
        lines.append(f"  {node} -> {high};")
        stack.append(low)
        stack.append(high)
    lines.append("}")
    return "\n".join(lines)
