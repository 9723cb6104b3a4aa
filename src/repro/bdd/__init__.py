"""Pure-Python ROBDD engine (the symbolic substrate for everything else).

Public surface:

* :class:`BDDManager` — node store and raw node-id operations.
* :class:`Function` — wrapper with Boolean operators, the type the rest of
  the library passes around.
* :class:`ResourcePolicy` — automatic GC / cache-eviction knobs.
* :func:`to_dot` — Graphviz export.
"""

from .dot import to_dot
from .function import Function
from .manager import FALSE, TRUE, BDDManager
from .policy import DEFAULT_POLICY, ResourcePolicy

__all__ = [
    "BDDManager",
    "Function",
    "ResourcePolicy",
    "DEFAULT_POLICY",
    "FALSE",
    "TRUE",
    "to_dot",
]
