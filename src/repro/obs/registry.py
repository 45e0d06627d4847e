"""Thread-safe metrics: counters, gauges and fixed-bucket histograms.

The paper's whole evaluation is an observability exercise — scheduler
share, sync losses, per-processor utilisation — and the repo's runtime is
now a long-running multi-session service; this module is the single
vocabulary every layer records into.  Design constraints, in order:

1. **Zero perturbation.**  Instrumentation may read wall time but never
   the :class:`~repro.runtime.clock.SimulatedClock` and never module
   state: attaching or detaching observability must leave every canonical
   trace byte-identical (gated by ``tests/test_obs_equivalence.py``).
2. **Near-no-op when disabled.**  The process-wide default is a
   :class:`NullRegistry`, whose instruments are shared do-nothing
   singletons — an instrumented hot path pays one attribute load and one
   empty method call per record point, nothing else (measured by the
   ruler's ``obs.traced_overhead_ratio``).
3. **Thread safety.**  ``repro.serve`` increments from its ``step_all``
   thread pool; every mutation takes the instrument's lock, every read
   sees a consistent snapshot.

Instruments are *get-or-create*: asking a registry twice for the same name
returns the same object, so N sessions instrumenting the same code path
naturally aggregate into one series.  Labelled families follow the
Prometheus model — ``family.labels(reason="budget")`` returns (creating on
first use) the child series for that label combination.

Callback gauges (``registry.gauge(name, help, callback=fn)``) read their
value at scrape time instead of being pushed — the idiom for "live" views
over state that already exists (planner reuse ratio, active session
count), costing the hot path nothing at all.
"""

from __future__ import annotations

import bisect
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "Timer",
    "DEFAULT_BUCKETS",
    "default_registry",
    "set_default_registry",
]

#: Default histogram buckets (seconds): tuned for the latencies this repo
#: actually measures — sub-millisecond planner rounds up to multi-second
#: bulk steps.  The +Inf bucket is implicit and always present.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
)

LabelValues = Tuple[str, ...]


class Timer:
    """Context manager: record the block's wall-clock seconds on exit.

    ``target`` is anything with ``observe(seconds)`` — a histogram child or
    a plain callable's duck-typed stand-in.  Timers read
    :func:`time.perf_counter` only; simulated time is out of bounds for
    observability by contract.
    """

    __slots__ = ("target", "_started")

    def __init__(self, target: "HistogramChild") -> None:
        self.target = target
        self._started = 0.0

    def __enter__(self) -> "Timer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.target.observe(time.perf_counter() - self._started)


class _NullTimer:
    """Shared do-nothing timer for null instruments."""

    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        pass


_NULL_TIMER = _NullTimer()


class _Instrument:
    """Common child-series machinery: one (metric, label values) pair."""

    __slots__ = ("_lock",)

    def __init__(self) -> None:
        self._lock = threading.Lock()


class CounterChild(_Instrument):
    """A monotonically increasing count (pushed, or read at scrape time)."""

    __slots__ = ("_value", "callback")

    def __init__(self, callback: Optional[Callable[[], float]] = None) -> None:
        super().__init__()
        self._value = 0.0
        self.callback = callback

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        if self.callback is not None:
            return float(self.callback())
        with self._lock:
            return self._value


class GaugeChild(_Instrument):
    """A value that can go up and down (or be computed at scrape time)."""

    __slots__ = ("_value", "callback")

    def __init__(self, callback: Optional[Callable[[], float]] = None) -> None:
        super().__init__()
        self._value = 0.0
        self.callback = callback

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        if self.callback is not None:
            return float(self.callback())
        with self._lock:
            return self._value


class HistogramChild(_Instrument):
    """Fixed-bucket histogram: cumulative bucket counts, sum and count.

    ``observe(v)`` lands ``v`` in the first bucket whose upper bound is
    >= v (``le`` semantics: a value exactly on a boundary belongs to that
    boundary's bucket); values above every bound land in +Inf only.
    """

    __slots__ = ("bounds", "_bucket_counts", "_sum", "_count")

    def __init__(self, bounds: Sequence[float]) -> None:
        super().__init__()
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self._bucket_counts = [0] * (len(self.bounds) + 1)  # last is +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._bucket_counts[index] += 1
            self._sum += value
            self._count += 1

    def time(self) -> Timer:
        return Timer(self)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def snapshot(self) -> Dict[str, Any]:
        """Cumulative ``{le: count}`` pairs plus sum/count, one consistent view."""
        with self._lock:
            counts = list(self._bucket_counts)
            total, running = self._sum, 0
        cumulative: List[Tuple[float, int]] = []
        for bound, count in zip(self.bounds, counts):
            running += count
            cumulative.append((bound, running))
        return {
            "buckets": cumulative,
            "inf": running + counts[-1],
            "sum": total,
            "count": running + counts[-1],
        }


class MetricFamily:
    """One named metric plus its labelled children.

    ``labelnames`` fixes the label schema at creation; ``labels(**kv)``
    returns the child for that combination, creating it on first use.  An
    unlabelled family is its own single child (``family.inc(...)`` etc.
    proxy to it), which keeps call sites uniform.
    """

    def __init__(
        self,
        name: str,
        help_text: str,
        kind: str,
        labelnames: Tuple[str, ...],
        child_factory: Callable[[], _Instrument],
    ) -> None:
        self.name = name
        self.help = help_text
        self.kind = kind
        self.labelnames = labelnames
        self._child_factory = child_factory
        self._children: Dict[LabelValues, _Instrument] = {}
        self._lock = threading.Lock()
        if not labelnames:
            self._children[()] = child_factory()

    def labels(self, **labelvalues: str) -> Any:
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}"
            )
        key = tuple(str(labelvalues[name]) for name in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._child_factory()
                self._children[key] = child
            return child

    def children(self) -> List[Tuple[LabelValues, _Instrument]]:
        with self._lock:
            return list(self._children.items())

    # -- unlabelled proxying ---------------------------------------------------

    def _sole(self) -> Any:
        try:
            return self._children[()]
        except KeyError:
            raise ValueError(
                f"metric {self.name!r} is labelled {self.labelnames}; "
                "call .labels(...) first"
            ) from None

    def inc(self, amount: float = 1.0) -> None:
        self._sole().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._sole().dec(amount)

    def set(self, value: float) -> None:
        self._sole().set(value)

    def observe(self, value: float) -> None:
        self._sole().observe(value)

    def time(self) -> Timer:
        return self._sole().time()

    @property
    def value(self) -> float:
        return self._sole().value

    @property
    def count(self) -> int:
        return self._sole().count

    @property
    def sum(self) -> float:
        return self._sole().sum

    def snapshot(self) -> Dict[str, Any]:
        return self._sole().snapshot()


# Public aliases so annotations read as the instrument kind, not the plumbing.
Counter = MetricFamily
Gauge = MetricFamily
Histogram = MetricFamily


class MetricsRegistry:
    """A namespace of metric families; the unit of scraping.

    ``enabled`` is True so instrumented code can fork cheaply::

        if executor.obs.enabled:
            ...optional extra bookkeeping...

    Get-or-create is type-checked: re-registering a name with a different
    kind or label schema raises, mismatched re-use being a bug worth
    failing loudly on.
    """

    enabled = True

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}
        self._lock = threading.Lock()

    def _family(
        self,
        name: str,
        help_text: str,
        kind: str,
        labelnames: Tuple[str, ...],
        child_factory: Callable[[], _Instrument],
    ) -> MetricFamily:
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind or family.labelnames != labelnames:
                    raise ValueError(
                        f"metric {name!r} already registered as {family.kind} "
                        f"with labels {family.labelnames}; cannot re-register "
                        f"as {kind} with labels {labelnames}"
                    )
                return family
            family = MetricFamily(name, help_text, kind, labelnames, child_factory)
            self._families[name] = family
            return family

    def counter(
        self,
        name: str,
        help_text: str = "",
        labelnames: Iterable[str] = (),
        callback: Optional[Callable[[], float]] = None,
    ) -> Counter:
        names = tuple(labelnames)
        if callback is not None and names:
            raise ValueError("callback counters cannot be labelled")
        family = self._family(
            name, help_text, "counter", names, lambda: CounterChild()
        )
        if callback is not None:
            family._sole().callback = callback
        return family

    def gauge(
        self,
        name: str,
        help_text: str = "",
        labelnames: Iterable[str] = (),
        callback: Optional[Callable[[], float]] = None,
    ) -> Gauge:
        names = tuple(labelnames)
        if callback is not None and names:
            raise ValueError("callback gauges cannot be labelled")
        family = self._family(
            name, help_text, "gauge", names, lambda: GaugeChild()
        )
        if callback is not None:
            # Re-registering with a fresh callback rebinds it (a new engine
            # replacing a dead one must not scrape the dead one's state).
            family._sole().callback = callback
        return family

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labelnames: Iterable[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        bounds = tuple(sorted(set(float(b) for b in buckets)))
        if not bounds:
            raise ValueError("a histogram needs at least one finite bucket bound")
        return self._family(
            name,
            help_text,
            "histogram",
            tuple(labelnames),
            lambda: HistogramChild(bounds),
        )

    # -- introspection ---------------------------------------------------------

    def families(self) -> List[MetricFamily]:
        with self._lock:
            return sorted(self._families.values(), key=lambda f: f.name)

    def get(self, name: str) -> Optional[MetricFamily]:
        with self._lock:
            return self._families.get(name)

    def __len__(self) -> int:
        with self._lock:
            return len(self._families)


class _NullInstrument:
    """One shared object that absorbs every instrument call.

    Serves as counter, gauge, histogram *and* family: ``labels`` returns
    itself, mutations do nothing, reads return zero.  Instrumented code
    therefore never branches on enabled/disabled — it just calls.
    """

    __slots__ = ()

    def labels(self, **labelvalues: str) -> "_NullInstrument":
        return self

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def time(self) -> _NullTimer:
        return _NULL_TIMER

    @property
    def value(self) -> float:
        return 0.0

    @property
    def count(self) -> int:
        return 0

    @property
    def sum(self) -> float:
        return 0.0

    def snapshot(self) -> Dict[str, Any]:
        return {"buckets": [], "inf": 0, "sum": 0.0, "count": 0}

    def children(self) -> List[Tuple[LabelValues, "_NullInstrument"]]:
        return []


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry(MetricsRegistry):
    """The disabled registry: every instrument is the shared no-op.

    Instrumentation against a ``NullRegistry`` compiles down to attribute
    loads and empty method calls — no locks, no allocation, no state —
    which is what lets the executor keep its obs hooks installed
    unconditionally.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def counter(
        self,
        name: str,
        help_text: str = "",
        labelnames: Iterable[str] = (),
        callback: Optional[Callable[[], float]] = None,
    ):
        return _NULL_INSTRUMENT

    def gauge(
        self,
        name: str,
        help_text: str = "",
        labelnames: Iterable[str] = (),
        callback: Optional[Callable[[], float]] = None,
    ):
        return _NULL_INSTRUMENT

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labelnames: Iterable[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        return _NULL_INSTRUMENT

    def families(self) -> List[MetricFamily]:
        return []


#: The process-default registry.  Disabled (a ``NullRegistry``) until
#: something opts in: library code records into ``default_registry()``
#: unless handed an explicit one, and pays nothing until a service
#: (``repro.serve``) or a test installs a real registry.
_DEFAULT_REGISTRY: MetricsRegistry = NullRegistry()
_DEFAULT_LOCK = threading.Lock()


def default_registry() -> MetricsRegistry:
    return _DEFAULT_REGISTRY


def set_default_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as the process default; returns the previous one."""
    global _DEFAULT_REGISTRY
    with _DEFAULT_LOCK:
        previous = _DEFAULT_REGISTRY
        _DEFAULT_REGISTRY = registry
        return previous
