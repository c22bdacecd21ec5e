"""Indexed views: definitions, and the write plans that maintain them."""

from repro.views.definition import (
    AggregateView,
    JoinAggregateView,
    JoinView,
    ProjectionView,
    SecondaryIndex,
    ViewDefinition,
    expected_index_contents,
)
from repro.views.maintenance import MaintenanceEngine, WritePlan

__all__ = [
    "AggregateView",
    "JoinAggregateView",
    "JoinView",
    "MaintenanceEngine",
    "ProjectionView",
    "SecondaryIndex",
    "ViewDefinition",
    "WritePlan",
    "expected_index_contents",
]
