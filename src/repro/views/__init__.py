"""Indexed views: definitions, maintenance, deltas, deferred mode."""

from repro.views.actions import Action, run_actions
from repro.views.aggregate import ESCROW, XLOCK, AggregateMaintainer
from repro.views.deferred import DeferredMaintainer
from repro.views.definition import (
    AggregateView,
    JoinAggregateView,
    JoinView,
    ProjectionView,
    SecondaryIndex,
    ViewDefinition,
    expected_index_contents,
)
from repro.views.join_aggregate import JoinAggregateMaintainer
from repro.views.delta import NetDelta, TxnViewDeltas
from repro.views.join import JoinMaintainer
from repro.views.maintenance import MaintenanceEngine
from repro.views.projection import ProjectionMaintainer

__all__ = [
    "ESCROW",
    "XLOCK",
    "Action",
    "AggregateMaintainer",
    "AggregateView",
    "DeferredMaintainer",
    "JoinAggregateMaintainer",
    "JoinAggregateView",
    "JoinMaintainer",
    "JoinView",
    "MaintenanceEngine",
    "NetDelta",
    "ProjectionMaintainer",
    "ProjectionView",
    "SecondaryIndex",
    "TxnViewDeltas",
    "ViewDefinition",
    "expected_index_contents",
    "run_actions",
]
