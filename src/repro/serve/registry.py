"""The compile-once specification registry.

A service hosting thousands of sessions of the same protocol must not pay
the Estelle front-end (tokenize, parse, lower — dynamic class creation with
AST-closing transitions) once per session.  The registry parses and lowers
each distinct source exactly once and hands out :class:`CompiledSpec`
entries whose :meth:`~CompiledSpec.instantiate` builds fresh, mutually
independent specification trees from the shared
:class:`~repro.estelle.frontend.SpecificationTemplate`.

Sharing cascades through every per-class compiled artefact:

* the lowered module classes themselves (one set per source, not per
  session),
* the code generator's specialized selectors —
  :attr:`CompiledSpec.planner_dispatch` is one strategy instance whose
  per-class cache is shared by every session of the entry,
* the fused planner's generated functions
  (:data:`repro.runtime.planner._PLAN_CODE_CACHE` keys by tree shape, so
  every instance of a source — and every call a session places — binds to
  the same program).

Keys are SHA-256 hashes of the *source text* (files are read and keyed by
content, so the same protocol reached through a path and through inline
text still shares one entry).  ``factory`` sources cannot share a lowering
— the factory is an opaque callable — so each instantiation rebuilds, and
``compile_count`` honestly counts every rebuild.

Thread safety: ``get`` may be called concurrently (one lock around the
entry map); ``instantiate`` only reads the template and builds fresh
objects, so sessions may spawn in parallel.
"""

from __future__ import annotations

import hashlib
import threading
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from ..estelle.frontend import SpecificationTemplate, compile_template
from ..estelle.specification import Specification
from ..runtime.executor import SpecSource
from ..runtime.planner import PlannerDispatch


def _load(source: SpecSource) -> Tuple[str, Optional[Tuple[str, str]]]:
    """A source's registry key and, for an Estelle source, the ``(text,
    filename)`` the key was computed from (``None`` for a factory).

    The one place a spec file is read: an entry's key and its template must
    come from the same text, or a file rewritten between two reads would be
    filed under one text and compiled from another.
    """
    if source.kind == "estelle-file":
        estelle = (Path(source.payload).read_text(), source.payload)
    elif source.kind == "estelle-text":
        filename = dict(source.kwargs).get("filename", "<estelle>")
        estelle = (source.payload, filename)
    else:
        estelle = None
    if estelle is not None:
        material = f"estelle\x00{estelle[0]}"
    else:
        material = f"{source.kind}\x00{source.payload}\x00{source.kwargs!r}"
    return hashlib.sha256(material.encode("utf-8")).hexdigest(), estelle


def source_key(source: SpecSource) -> str:
    """Stable content hash identifying a spec source.

    ``estelle-file`` sources are keyed by *file content*, so a path and the
    equivalent inline text resolve to the same registry entry.
    """
    return _load(source)[0]


class CompiledSpec:
    """One registry entry: a compiled source plus its shared artefacts."""

    def __init__(
        self, key: str, source: SpecSource, estelle: Optional[Tuple[str, str]]
    ):
        self.key = key
        self.source = source
        #: how many times the front-end actually ran for this entry.  The
        #: service's contract — asserted by the load benchmark and the
        #: ``serve-smoke`` CI job — is that this stays 1 for Estelle sources
        #: no matter how many sessions spawn.
        self.compile_count = 0
        #: how many fresh specification instances this entry produced.
        self.instantiations = 0
        self._template: Optional[SpecificationTemplate] = None
        #: the strategy every session of this entry plans through.  It holds
        #: only per-module-class caches (compiled selectors) plus cost
        #: constants — no per-run state — so selector compilation happens
        #: once per entry.
        self.planner_dispatch = PlannerDispatch()
        self._lock = threading.Lock()
        if estelle is not None:
            self.compile_count += 1
            self._template = compile_template(*estelle)

    @property
    def name(self) -> str:
        if self._template is not None:
            return self._template.name
        return self.source.payload

    @property
    def shares_compilation(self) -> bool:
        """Whether instances share one lowering (False for factory sources)."""
        return self._template is not None

    def instantiate(self) -> Specification:
        """A fresh, independent specification instance of this source."""
        with self._lock:
            self.instantiations += 1
        if self._template is not None:
            return self._template.instantiate()
        # Factory recipes are opaque: rebuild (and recount) every time.
        self.compile_count += 1
        return self.source.build()

    def stats(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.source.kind,
            "compile_count": self.compile_count,
            "instantiations": self.instantiations,
            "shares_compilation": self.shares_compilation,
        }


class SpecRegistry:
    """Source-hash keyed map of :class:`CompiledSpec` entries."""

    def __init__(self) -> None:
        self._entries: Dict[str, CompiledSpec] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, source: SpecSource) -> CompiledSpec:
        """The entry for ``source``, compiling it on first sight only."""
        key, estelle = _load(source)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self.hits += 1
                return entry
            entry = CompiledSpec(key, source, estelle)
            self._entries[key] = entry
            self.misses += 1
            return entry

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> Dict[str, Any]:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "specs": [entry.stats() for entry in self._entries.values()],
        }
