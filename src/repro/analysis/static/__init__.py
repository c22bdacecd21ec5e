"""Static analysis of compiled view/DML programs.

The runtime sanitizers (:mod:`repro.analysis.sanitizers`) judge a
schedule *after* it ran; this package judges the program *before* any
transaction exists. Four analyses over the typed objects the SQL
compiler produces:

* :mod:`prover <repro.analysis.static.prover>` — a small commutativity
  prover over aggregate expressions. COUNT and linear-in-the-row SUMs
  are proved escrow-eligible (their deltas commute and invert); MIN/MAX
  are *disproved* by a checked counterexample. The compiler consults it
  instead of pattern-matching function names.
* :mod:`footprint <repro.analysis.static.footprint>` — the worst-case
  lock footprint of each statement shape, including view-maintenance
  fan-out, read from the lock entries of the write plan the runtime
  runs (one row's order).
* :mod:`lockgraph <repro.analysis.static.lockgraph>` — footprints
  composed across all registered views into a static lock-order graph;
  a cycle flags a deadlock-prone view combination before any
  transaction runs.
* :mod:`shard <repro.analysis.static.shard>` — co-partitioning of a
  view against a :class:`~repro.dist.partitioner.RangePartitioner`, so
  ``ShardedDatabase`` rejects or warns at DDL time with a precise
  explanation.

Surfaces: ``CHECK VIEW <name>`` / ``EXPLAIN <stmt>`` in the dialect,
:func:`check_view` / :func:`explain` against a live engine,
``python -m repro.analysis.check`` and ``make analyze``. Diagnostics
carry stable ``SA...`` codes catalogued in ``docs/ANALYSIS.md``.
"""

from repro.analysis.static.analyzer import (
    ExplainReport,
    StaticAnalyzer,
    ViewCheckReport,
    check_view,
    explain,
)
from repro.analysis.static.diagnostics import (
    CATALOG,
    Diagnostic,
    trace_static_check,
)
from repro.analysis.static.footprint import Footprint, LockStep
from repro.analysis.static.lockgraph import LockOrderGraph
from repro.analysis.static.prover import (
    LinearForm,
    NonLinearError,
    Proof,
    linearize,
    prove_count,
    prove_extreme,
    prove_sum,
)
from repro.analysis.static.shard import check_copartition

__all__ = [
    "CATALOG",
    "Diagnostic",
    "ExplainReport",
    "Footprint",
    "LinearForm",
    "LockOrderGraph",
    "LockStep",
    "NonLinearError",
    "Proof",
    "StaticAnalyzer",
    "ViewCheckReport",
    "check_copartition",
    "check_view",
    "explain",
    "linearize",
    "prove_count",
    "prove_extreme",
    "prove_sum",
    "trace_static_check",
]
