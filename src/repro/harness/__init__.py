"""Report helpers: plain-text result tables.

Two examples (``parallel_mapping_study.py``, ``video_on_demand.py``) print
their rows through :func:`format_table`.  The paper's own tables and figures
are checked, not printed: ``tests/test_paper_claims.py`` holds one test per
claim, and wall-clock timings are the ruler's (``benchmarks/ruler/``).
"""

from .report import format_table

__all__ = ["format_table"]
