"""BDD node storage + kernels behind one interface.

The manager (:class:`repro.bdd.manager.BDDManager`) is written once against
:class:`~repro.bdd.backends.base.BDDBackend`; the engine's node store is the
:class:`~repro.bdd.backends.dict_backend.DictBackend`.  See
:mod:`repro.bdd.backends.base` for the contract.
"""

from __future__ import annotations

from .base import FALSE, TERMINAL_LEVEL, TRUE, BDDBackend
from .dict_backend import DictBackend

__all__ = [
    "BDDBackend",
    "DictBackend",
    "FALSE",
    "TRUE",
    "TERMINAL_LEVEL",
]
