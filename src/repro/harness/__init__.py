"""Benchmark harness helpers: result tables and experiment records.

The benchmarks in ``benchmarks/`` and two examples print their rows through
these helpers in one uniform table layout.  The paper's own tables and
figures are checked, not printed: ``tests/test_paper_claims.py`` holds one
test per claim.
"""

from .report import ExperimentRecord, format_table, print_experiment

__all__ = ["ExperimentRecord", "format_table", "print_experiment"]
