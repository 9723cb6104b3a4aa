"""FSM substrate: symbolic Kripke structure, partitioned relations, explicit models.

The ``.rml`` elaborator compiles every model through
:func:`repro.fsm.builder.build_fsm`; :meth:`ExplicitGraph.to_fsm` builds one
from an explicit state graph.
"""

from .explicit import ExplicitGraph, ExplicitModel, enumerate_model
from .fsm import FSM, NEXT_SUFFIX
from .partition import (
    TRANS_MODES,
    TRANS_MONO,
    TRANS_PARTITIONED,
    Schedule,
    ScheduleStep,
    TransitionPartition,
    early_quantification_schedule,
)

__all__ = [
    "FSM",
    "NEXT_SUFFIX",
    "ExplicitGraph",
    "ExplicitModel",
    "enumerate_model",
    "TRANS_MODES",
    "TRANS_MONO",
    "TRANS_PARTITIONED",
    "Schedule",
    "ScheduleStep",
    "TransitionPartition",
    "early_quantification_schedule",
]
