"""``repro.obs`` — the unified metrics/event/profiling layer.

One subsystem replaces the repo's fragmented telemetry (the executor's
:class:`~repro.sim.metrics.ExecutionMetrics`, four ad-hoc ``stats()``
dicts in ``repro.serve``, the planner's private counters): every layer
records into a :class:`MetricsRegistry`, narrates through an
:class:`EventBus`, and anything holding a registry can be rendered as
Prometheus text exposition (:func:`render_prometheus`) — which is what
``GET /metrics`` on the serve HTTP front returns.

The two invariants that make this safe to leave permanently wired in:

* **Zero perturbation** — observability reads wall time only, never the
  :class:`~repro.runtime.clock.SimulatedClock`, never module state;
  canonical traces are byte-identical with observability enabled,
  disabled, or with a JSONL sink attached
  (``tests/test_obs_equivalence.py``).
* **Near-no-op when disabled** — the default :data:`NULL_OBS` bundle is a
  :class:`NullRegistry` plus a sink-less bus; instrumented hot paths pay
  attribute loads and empty calls only (the ruler's
  ``obs.traced_overhead_ratio`` measures what a live registry costs).

Usage::

    from repro.obs import Observability

    obs = Observability()                   # real registry + bus
    executor = SpecificationExecutor(spec, cluster, obs=obs)
    executor.run()
    print(render_prometheus(obs.registry))  # Prometheus text format

    obs.events.attach(JsonlSink("events.jsonl"))   # structured narration
"""

from __future__ import annotations

from typing import Optional

from .events import (
    CallbackSink,
    Event,
    EventBus,
    JsonlSink,
    MAX_SINK_FAILURES,
    RingBufferSink,
)
from .prom import CONTENT_TYPE, render_prometheus
from .registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    Timer,
    default_registry,
    set_default_registry,
)

__all__ = [
    "Observability",
    "NULL_OBS",
    "MetricsRegistry",
    "NullRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "DEFAULT_BUCKETS",
    "default_registry",
    "set_default_registry",
    "EventBus",
    "Event",
    "RingBufferSink",
    "JsonlSink",
    "CallbackSink",
    "MAX_SINK_FAILURES",
    "render_prometheus",
    "CONTENT_TYPE",
]


class Observability:
    """One registry + one event bus: the handle instrumented code takes.

    Layers accept ``obs: Optional[Observability]`` and default to
    :data:`NULL_OBS`, so observability is opt-in per executor/engine and
    free when not opted into.  ``enabled`` mirrors the registry's flag —
    the cheap branch for optional extra bookkeeping.
    """

    __slots__ = ("registry", "events")

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        events: Optional[EventBus] = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.events = events if events is not None else EventBus()

    @property
    def enabled(self) -> bool:
        return self.registry.enabled

    @classmethod
    def disabled(cls) -> "Observability":
        return cls(NullRegistry(), EventBus())

    def render(self) -> str:
        """The registry as Prometheus text exposition."""
        return render_prometheus(self.registry)

    def stats(self) -> dict:
        """The ``obs`` block ``repro.serve`` reports under ``/stats``."""
        return {
            "enabled": self.enabled,
            "metrics": len(self.registry),
            **self.events.stats(),
        }


#: The process-wide do-nothing bundle: every un-instrumented executor and
#: planner shares this one object (no per-instance allocation).
NULL_OBS = Observability(NullRegistry(), EventBus())
