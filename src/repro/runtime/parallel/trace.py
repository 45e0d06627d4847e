"""Kept only for ``benchmarks/ruler/servedrive.py``, which imports these two
names from here; the trace schema and its encoding live in
:mod:`repro.runtime.tracing`.  A row is its own canonical tuple, so
``firing_tuple`` is ``tuple``."""

from ..tracing import CANONICAL_FIELDS

__all__ = ["CANONICAL_FIELDS", "firing_tuple"]

firing_tuple = tuple
