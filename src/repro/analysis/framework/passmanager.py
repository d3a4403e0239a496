"""Analysis pass manager: registered passes, cached results, invalidation.

The manager mirrors LLVM's new-PM ``AnalysisManager``: passes are lazy
(``get`` runs a pass only on a cache miss), results are cached per
kernel, and a pass that queries another pass during its ``run`` records
a dependency edge so invalidating an analysis cascades to everything
built on top of it.

Kernels are keyed by object identity (``LoopKernel`` holds dicts and is
not hashable); each cache entry pins the kernel object so its id cannot
be recycled while the entry is alive, and entries are LRU-bounded.
Threads may share a manager (the advisor's workers do): each thread
keeps its own stack of running passes, and the LRU is locked.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional, Union

from ...ir.kernel import LoopKernel
from .diagnostics import Diagnostics


class AnalysisPass:
    """Base class: a named, cacheable analysis over one kernel.

    Subclasses set ``name`` and implement ``run``.  A pass may request
    other passes' results through the manager (``am.get(Other,
    kernel)``); the manager records the edge for invalidation.
    """

    #: Unique pass name; doubles as the ``-Rpass=<name>`` tag.
    name: str = "?"

    def run(self, kernel: LoopKernel, am: "AnalysisManager"):
        raise NotImplementedError


#: Global registry: pass name -> singleton instance.
PASS_REGISTRY: dict[str, AnalysisPass] = {}


def register_pass(cls: type[AnalysisPass]) -> type[AnalysisPass]:
    """Class decorator adding a singleton of ``cls`` to the registry."""
    if cls.name in PASS_REGISTRY and type(PASS_REGISTRY[cls.name]) is not cls:
        raise ValueError(f"duplicate analysis pass name {cls.name!r}")
    PASS_REGISTRY[cls.name] = cls()
    return cls


def _resolve(pass_ref: Union[str, AnalysisPass, type[AnalysisPass]]) -> AnalysisPass:
    if isinstance(pass_ref, str):
        try:
            return PASS_REGISTRY[pass_ref]
        except KeyError:
            raise KeyError(
                f"unknown analysis pass {pass_ref!r}; known: {sorted(PASS_REGISTRY)}"
            ) from None
    if isinstance(pass_ref, AnalysisPass):
        return pass_ref
    if isinstance(pass_ref, type) and issubclass(pass_ref, AnalysisPass):
        return PASS_REGISTRY.get(pass_ref.name) or pass_ref()
    raise TypeError(f"not an analysis pass: {pass_ref!r}")


@dataclass
class ManagerStats:
    hits: int = 0
    misses: int = 0
    invalidations: int = 0

    def __str__(self) -> str:
        return (
            f"analysis cache: {self.hits} hits, {self.misses} misses, "
            f"{self.invalidations} invalidations"
        )


@dataclass
class _KernelEntry:
    kernel: LoopKernel  # pins id(kernel) while the entry lives
    results: dict[str, object] = field(default_factory=dict)
    #: inner pass name -> names of passes whose run() queried it.
    dependents: dict[str, set[str]] = field(default_factory=dict)


class AnalysisManager:
    """Caches pass results per kernel with dependency-aware invalidation."""

    def __init__(
        self,
        diagnostics: Optional[Diagnostics] = None,
        max_kernels: int = 1024,
    ):
        self.diagnostics = diagnostics if diagnostics is not None else Diagnostics()
        self.max_kernels = max_kernels
        self.stats = ManagerStats()
        self._entries: "OrderedDict[int, _KernelEntry]" = OrderedDict()
        self._lock = threading.Lock()
        #: per thread, the stack of pass names running (for dependency edges).
        self._local = threading.local()

    # -- core API -----------------------------------------------------------

    def get(self, pass_ref, kernel: LoopKernel):
        """The result of ``pass_ref`` on ``kernel``, running it if needed."""
        pas = _resolve(pass_ref)
        entry = self._entry(kernel)
        running = self._local.__dict__.setdefault("running", [])
        if running:
            entry.dependents.setdefault(pas.name, set()).add(running[-1])
        if pas.name in entry.results:
            self.stats.hits += 1
            return entry.results[pas.name]
        self.stats.misses += 1
        running.append(pas.name)
        try:
            result = pas.run(kernel, self)
        finally:
            running.pop()
        entry.results[pas.name] = result
        return result

    def cached(self, pass_ref, kernel: LoopKernel):
        """The cached result, or None without running anything."""
        pas = _resolve(pass_ref)
        entry = self._entries.get(id(kernel))
        return entry.results.get(pas.name) if entry is not None else None

    def run_pipeline(self, kernel: LoopKernel, passes) -> dict[str, object]:
        """Run ``passes`` in order (dependencies auto-satisfied first)."""
        return {(_resolve(p)).name: self.get(p, kernel) for p in passes}

    # -- invalidation --------------------------------------------------------

    def invalidate(
        self,
        kernel: Optional[LoopKernel] = None,
        pass_ref=None,
    ) -> int:
        """Drop cached results; returns the number of results dropped.

        ``kernel=None`` clears everything; ``pass_ref=None`` clears all
        passes of the kernel.  Invalidating one pass cascades to every
        pass that (transitively) consumed its result.
        """
        if kernel is None:
            dropped = sum(len(e.results) for e in self._entries.values())
            self._entries.clear()
            self.stats.invalidations += dropped
            return dropped
        entry = self._entries.get(id(kernel))
        if entry is None:
            return 0
        if pass_ref is None:
            dropped = len(entry.results)
            del self._entries[id(kernel)]
            self.stats.invalidations += dropped
            return dropped
        doomed: set[str] = set()
        frontier = [_resolve(pass_ref).name]
        while frontier:
            name = frontier.pop()
            if name in doomed:
                continue
            doomed.add(name)
            frontier.extend(entry.dependents.get(name, ()))
        dropped = 0
        for name in doomed:
            if name in entry.results:
                del entry.results[name]
                dropped += 1
        self.stats.invalidations += dropped
        return dropped

    # -- internals -----------------------------------------------------------

    def _entry(self, kernel: LoopKernel) -> _KernelEntry:
        key = id(kernel)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                entry = _KernelEntry(kernel)
                self._entries[key] = entry
                while len(self._entries) > self.max_kernels:
                    self._entries.popitem(last=False)
            else:
                self._entries.move_to_end(key)
        return entry


_DEFAULT: Optional[AnalysisManager] = None


def default_manager() -> AnalysisManager:
    """The process-wide manager shared by legality, the pipeline, and CLI."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = AnalysisManager()
    return _DEFAULT


def reset_default_manager() -> None:
    """Drop the process-wide manager (tests and long-lived services)."""
    global _DEFAULT
    _DEFAULT = None
