"""The node store stays out of Python's cyclic garbage collector.

Every unique-table and op-cache key is a packed int and every value a node
id, so CPython never tracks those dicts and its collector never traverses
them.  One tuple key (or any other container) stored in a table makes that
dict GC-tracked again, and a deep run then spends a large share of its time
in collections that walk hundreds of thousands of entries.  Checked in both
transition modes after a full analysis, a forced collection, and traces
rendered after it.
"""

import gc

import pytest

from repro.analysis import Analysis
from repro.engine import TRANS_MODES, EngineConfig


def _tables(manager):
    """Every unique-table and op-cache dict of ``manager``."""
    tables = []
    for name, value in vars(manager).items():
        if name == "_unique" or name.endswith(("_cache", "_caches")):
            tables.extend(value if isinstance(value, list) else [value])
    return tables


def _assert_untracked(manager, when):
    tables = _tables(manager)
    # Every node but the two terminals and every cache entry is in one of them.
    entries = manager.node_count() - 2 + manager.cache_entry_count()
    assert sum(map(len, tables)) == entries
    tracked = [i for i, table in enumerate(tables) if gc.is_tracked(table)]
    assert not tracked, f"{len(tracked)} of {len(tables)} tables GC-tracked {when}"


@pytest.mark.parametrize("trans", TRANS_MODES)
def test_tables_are_not_gc_tracked(trans):
    analysis = Analysis.builtin("pipeline", stage="initial", config=EngineConfig(trans=trans))
    analysis.result()
    manager = analysis.fsm.manager
    _assert_untracked(manager, "after result()")

    assert manager.collect_garbage() > 0
    _assert_untracked(manager, "after a freeing collection")

    analysis.uncovered_traces(3)
    # The collection dropped the caches; the traces refilled them.
    assert manager.cache_entry_count() > 0
    _assert_untracked(manager, "after traces")
