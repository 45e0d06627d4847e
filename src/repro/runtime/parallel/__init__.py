"""``repro.runtime.parallel`` — the real multiprocess execution backend.

The in-process executor (:mod:`repro.runtime.executor`) *models* the paper's
decentralised runtime; this package *runs* it: each execution unit of the
mapping becomes an OS worker process executing its own scheduler shard, and
interactions cross unit boundaries over batched, order-preserving,
round-tagged transport links.

Pieces:

* :mod:`.backend` — :class:`MultiprocessBackend` (registered with
  :func:`repro.runtime.executor.backend_by_name` under ``"multiprocess"``)
  and the coordinator loop,
* :mod:`.worker` — the per-unit worker process (rebuilds the specification
  from a picklable :class:`~repro.runtime.executor.SpecSource`, selects,
  fires, routes),
* :mod:`.fold` — the slot fold: selection summaries in, round plan out; the
  one way a round is planned on the mesh, by the coordinator and by a
  relaxed worker alike,
* :mod:`.channels` — the batch protocol's types and pure functions (round
  tags, batch encoding, link-set normalisation, ``(plan_index, seq)`` merge
  order); it touches no queue and no socket,
* :mod:`.transport` — the pluggable wire layer: :class:`MpQueueTransport`
  (default, one multiprocessing queue per link) and :class:`TcpTransport`
  (length-prefixed socket streams with an address-based peer table) behind
  one :class:`Transport` interface, and the one receive loop that enforces
  the round tags,
* :mod:`.trace` — a shim keeping ``CANONICAL_FIELDS`` and ``firing_tuple``
  importable for ``benchmarks/ruler/servedrive.py``.

The canonical trace encoding under which both backends' firing traces must
be identical lives in :mod:`repro.runtime.tracing`; ``canonical_trace_bytes``
and ``trace_diff`` are re-exported here for the ruler.

Smoke-check from the command line (used by CI)::

    python -m repro.runtime.parallel examples/specs/mcam_core.estelle
    python -m repro.runtime.parallel --transport tcp examples/specs/mcam_core.estelle
"""

from ..tracing import canonical_trace_bytes, trace_diff
from .backend import MultiprocessBackend, ParallelExecutionError
from .channels import (
    Batch,
    ChannelProtocolError,
    ChannelTimeout,
    RoutedMessage,
    merge_batches,
)
from .transport import (
    MpQueueTransport,
    TcpTransport,
    Transport,
    TransportEndpoint,
    transport_by_name,
    transport_names,
)
from .worker import UnitDescriptor, WorkerConfig, WorkerRuntime, worker_main

__all__ = [
    "Batch",
    "ChannelProtocolError",
    "ChannelTimeout",
    "MpQueueTransport",
    "MultiprocessBackend",
    "ParallelExecutionError",
    "RoutedMessage",
    "TcpTransport",
    "Transport",
    "TransportEndpoint",
    "UnitDescriptor",
    "WorkerConfig",
    "WorkerRuntime",
    "canonical_trace_bytes",
    "merge_batches",
    "trace_diff",
    "transport_by_name",
    "transport_names",
    "worker_main",
]
