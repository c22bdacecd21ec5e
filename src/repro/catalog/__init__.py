"""Schema objects: tables, the catalog registry."""

from repro.catalog.schema import Catalog, RowLayout, TableSchema

__all__ = ["Catalog", "RowLayout", "TableSchema"]
