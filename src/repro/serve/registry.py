"""The per-engine specification registry.

A service hosting thousands of sessions of the same protocol must not pay
the Estelle front-end once per session.  The registry files each distinct
source under one :class:`CompiledSpec` entry whose
:meth:`~CompiledSpec.instantiate` builds fresh, mutually independent
specification trees from one shared template.  It compiles nothing itself:
how an Estelle source is read, keyed and compiled is decided in
:class:`~repro.runtime.executor.SpecSource`, and an entry's template comes
from the process-wide cache behind :meth:`SpecSource.build`.  Sharing then
cascades through every per-class artefact: the lowered module classes, the
selectors stored on them (:func:`repro.runtime.codegen.compile_module_class`)
and the fused planner's programs (:data:`repro.runtime.planner._PLAN_CODE_CACHE`
keys by tree shape).

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

import threading
from typing import Any, Dict, Optional, Tuple

from ..estelle.specification import Specification
from ..runtime.executor import SpecSource, estelle_template


def source_key(source: SpecSource) -> str:
    """Stable content hash identifying a spec source.

    ``estelle-file`` sources are keyed by *file content*, so a path and the
    equivalent inline text resolve to the same registry entry.
    """
    return source.load()[0]


class CompiledSpec:
    """One registry entry: a source plus its shared compiled template."""

    def __init__(
        self, key: str, source: SpecSource, estelle: Optional[Tuple[str, str]]
    ):
        self.key = key
        self.source = source
        #: how many templates this entry obtained: 1 for an Estelle source no
        #: matter how many sessions spawn (the contract the load benchmark
        #: and the ``serve-smoke`` CI job assert), +1 per rebuild for a
        #: factory.
        self.compile_count = int(estelle is not None)
        #: how many fresh specification instances this entry produced.
        self.instantiations = 0
        self._template = estelle_template(*estelle) if estelle is not None else None
        self._lock = threading.Lock()

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
        key, estelle = source.load()
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
