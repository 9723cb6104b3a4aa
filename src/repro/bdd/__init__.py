"""Pure-Python ROBDD engine (the symbolic substrate for everything else).

Public surface:

* :class:`BDDManager` — node store and raw node-id operations.
* :class:`Function` — wrapper with Boolean operators, the type the rest of
  the library passes around.
* :class:`ResourcePolicy` — automatic GC / cache-eviction / auto-sift knobs.
* :func:`to_dot` — Graphviz export.
* :func:`sift`, :func:`set_order`, :func:`swap_adjacent` — dynamic variable
  reordering.
"""

from .dot import to_dot
from .function import Function
from .manager import FALSE, TRUE, BDDManager
from .policy import DEFAULT_POLICY, ResourcePolicy
from .reorder import set_order, sift, swap_adjacent

__all__ = [
    "BDDManager",
    "Function",
    "ResourcePolicy",
    "DEFAULT_POLICY",
    "FALSE",
    "TRUE",
    "to_dot",
    "sift",
    "set_order",
    "swap_adjacent",
]
