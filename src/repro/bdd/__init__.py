"""Pure-Python ROBDD engine (the symbolic substrate for everything else).

Public surface:

* :class:`BDDManager` — node store and raw node-id operations.
* :class:`Function` — wrapper with Boolean operators, the type the rest of
  the library passes around.
* :class:`ResourcePolicy` — automatic GC / cache-eviction knobs.

The manager holds the kernels the model checker and the coverage
recursion run, and only those (see :mod:`repro.bdd.manager`).
"""

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
]
