"""Parallel ASN.1 encoding/decoding (the paper's negative result).

Footnote 3 of the paper: *"One might expect performance gains for parallel
encoding/decoding.  In [12], we show that by parallelization in this area, we
do not obtain better performance."*  The reason is that per-PDU encoding work
is small compared to the cost of distributing work items to workers and
collecting the results.

This module provides two ways to reproduce that finding:

* :class:`ThreadedBatchCodec` — a real ``ThreadPoolExecutor``-based
  batch encoder.  Its output is byte-identical to the sequential path's, and
  under the interpreter lock its threads cannot encode in parallel, so it
  gains nothing, matching the paper.
* :func:`model_parallel_encoding_time` — an analytic cost model with explicit
  per-item dispatch overhead, used to show *why* the speedup is absent: once
  the per-item coordination cost is of the same order as the per-item encoding
  cost, added workers stop helping.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, List, Sequence, Tuple

from .ber import decode, encode
from .types import Asn1Type


class SequentialBatchCodec:
    """Encode/decode a batch of values one after the other (the baseline)."""

    name = "sequential"

    def encode_batch(self, schema: Asn1Type, values: Sequence[Any]) -> List[bytes]:
        return [encode(schema, value) for value in values]

    def decode_batch(self, schema: Asn1Type, blobs: Sequence[bytes]) -> List[Any]:
        return [decode(schema, blob) for blob in blobs]


class ThreadedBatchCodec:
    """Encode/decode a batch using a pool of worker threads.

    The interface matches :class:`SequentialBatchCodec` so benchmarks can swap
    the two.  Chunking is by contiguous slices (one chunk per worker), which
    is the most favourable arrangement for the parallel side — and it still
    does not win, which is the point of the experiment.
    """

    def __init__(self, workers: int = 2):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.name = f"threaded-{workers}"

    def _chunks(self, items: Sequence[Any]) -> List[Sequence[Any]]:
        if not items:
            return []
        size = max(1, (len(items) + self.workers - 1) // self.workers)
        return [items[i : i + size] for i in range(0, len(items), size)]

    def encode_batch(self, schema: Asn1Type, values: Sequence[Any]) -> List[bytes]:
        chunks = self._chunks(values)
        if len(chunks) <= 1:
            return [encode(schema, value) for value in values]
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            results = pool.map(
                lambda chunk: [encode(schema, value) for value in chunk], chunks
            )
            return [blob for chunk_result in results for blob in chunk_result]

    def decode_batch(self, schema: Asn1Type, blobs: Sequence[bytes]) -> List[Any]:
        chunks = self._chunks(blobs)
        if len(chunks) <= 1:
            return [decode(schema, blob) for blob in blobs]
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            results = pool.map(
                lambda chunk: [decode(schema, blob) for blob in chunk], chunks
            )
            return [value for chunk_result in results for value in chunk_result]


@dataclass(frozen=True)
class ParallelEncodingModel:
    """Analytic model of parallel PDU encoding on a shared-memory machine.

    ``per_item_cost`` is the work to encode one PDU; ``dispatch_cost`` is the
    per-item cost of handing the item to a worker and collecting the result
    (queue locking, cache migration); ``chunk_setup_cost`` is a fixed cost per
    worker per batch.
    """

    per_item_cost: float = 1.0
    dispatch_cost: float = 1.0
    chunk_setup_cost: float = 2.0

    def sequential_time(self, items: int) -> float:
        return self.per_item_cost * items

    def parallel_time(self, items: int, workers: int) -> float:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if workers == 1 or items == 0:
            return self.sequential_time(items)
        per_worker_items = -(-items // workers)  # ceil division
        compute = per_worker_items * self.per_item_cost
        coordination = items * self.dispatch_cost / workers + self.chunk_setup_cost
        # The serial part: results are collected by the single caller thread.
        collection = items * self.dispatch_cost
        return compute + coordination + collection

    def speedup(self, items: int, workers: int) -> float:
        parallel = self.parallel_time(items, workers)
        if parallel <= 0:
            return float("inf")
        return self.sequential_time(items) / parallel


def model_parallel_encoding_time(
    items: int, workers: int, model: ParallelEncodingModel | None = None
) -> Tuple[float, float, float]:
    """Return (sequential time, parallel time, speedup) under the cost model."""
    model = model or ParallelEncodingModel()
    sequential = model.sequential_time(items)
    parallel = model.parallel_time(items, workers)
    speedup = sequential / parallel if parallel > 0 else float("inf")
    return sequential, parallel, speedup
