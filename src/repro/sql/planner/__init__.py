"""Cost-based federated query planner (Section 4.5).

Pipeline: ``repro.sql.parser`` AST -> :mod:`logical` IR ->
:mod:`rules` optimizer (pushdown + join reordering against the typed
connector contract) -> :mod:`physical` stage DAG -> :mod:`scheduler`
(multi-worker execution with content-hashed, version-keyed stage
artifacts).  The property suite checks the whole pipeline against
``tests/reference/query.py``, a model that shares no code with it.

Import note: ``repro.sql.presto`` imports this package's modules at
import time, so planner modules never import ``repro.sql.presto`` at
module level — connector types are imported lazily inside functions.
This ``__init__`` stays empty of re-exports for the same reason; import
the submodules directly.
"""
