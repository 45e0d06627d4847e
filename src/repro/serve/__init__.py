"""``repro.serve`` — a multi-session protocol service.

The paper's engine executes one Estelle specification at a time; its real
target — multi-party multimedia call control (MCAM) — is many concurrent
sessions, one protocol instance per user/call.  This package turns the
single-run executor into a long-running service:

* :mod:`repro.serve.registry` — the compile-once registry: every
  ``.estelle`` source is parsed and lowered exactly once (keyed by source
  hash); all sessions of the same source share the lowered module classes,
  the code generator's per-class dispatch selectors and the fused planner's
  compiled code objects.  Session spawn is O(instance state), not
  O(compile).
* :mod:`repro.serve.engine` — the session engine: hosts N independent
  specification instances (create / inject / step / stream-firings / close
  lifecycle), each with its own executor, simulated clock and dirty
  tracker, multiplexed over a thread worker pool.  No module-level globals:
  every piece of state lives on the engine or its sessions.
* :mod:`repro.serve.api` — ingress: a dict-in/dict-out in-process API plus
  a minimal HTTP/JSON front on :mod:`http.server`, with graceful
  degradation: an in-flight admission gate (429 + ``Retry-After``), a
  request-body cap (413) and per-step wall-clock budgets (503).
* Durability: with a ``state_dir`` the engine checkpoints sessions
  (atomically, one pickle per session) and restores them on the next
  start with byte-identical trace suffixes — see ``docs/RESILIENCE.md``.
* ``python -m repro.serve`` — the CLI: serve over HTTP, or run the
  ``--smoke`` self-check CI uses (N interleaved sessions, byte-identical
  traces, clean shutdown).

Sessions are deterministic and isolated: stepping N sessions interleaved
produces, per session, the byte-identical canonical trace
(:mod:`repro.runtime.parallel.trace`) that the same session run
sequentially — or the plain in-process backend — produces.  That property
joins the repo's equivalence matrix and is gated by
``tests/test_serve_isolation.py`` (a fuzz corpus and 1000 live sessions of
one compiled entry) and the ``serve-smoke`` CI job.
"""

from .engine import (
    ServeError,
    Session,
    SessionEngine,
    SessionUnknown,
    StepTimeout,
)
from .registry import CompiledSpec, SpecRegistry

__all__ = [
    "CompiledSpec",
    "ServeError",
    "Session",
    "SessionEngine",
    "SessionUnknown",
    "SpecRegistry",
    "StepTimeout",
]
