"""Shared primitives used by every subsystem.

This package holds the small vocabulary of the engine: error types, the
row/key model, a deterministic simulated clock, and random-distribution
helpers for workload generation. Nothing here depends on any other
``repro`` package.
"""

from repro.common.clock import LogicalClock
from repro.common.errors import (
    CatalogError,
    DeadlockError,
    EscrowViolationError,
    FaultInjected,
    IntegrityError,
    BindError,
    LockTimeoutError,
    NonLinearError,
    ParseError,
    PartitionUnavailableError,
    ReproError,
    SerializationError,
    SimulatedCrash,
    SqlError,
    StorageError,
    TransactionAborted,
    TransactionStateError,
    UnsupportedSqlError,
    UnsupportedValueError,
    WalCorruptionError,
    WalError,
    WouldWait,
)
from repro.common.keys import KeyBound, KeyRange, composite_key
from repro.common.rng import DeterministicRng, ZipfGenerator
from repro.common.rows import Row

__all__ = [
    "BindError",
    "CatalogError",
    "DeadlockError",
    "DeterministicRng",
    "EscrowViolationError",
    "FaultInjected",
    "IntegrityError",
    "KeyBound",
    "KeyRange",
    "LockTimeoutError",
    "LogicalClock",
    "NonLinearError",
    "ParseError",
    "PartitionUnavailableError",
    "ReproError",
    "Row",
    "SerializationError",
    "SimulatedCrash",
    "SqlError",
    "StorageError",
    "TransactionAborted",
    "TransactionStateError",
    "UnsupportedSqlError",
    "UnsupportedValueError",
    "WalCorruptionError",
    "WalError",
    "WouldWait",
    "ZipfGenerator",
    "composite_key",
]
