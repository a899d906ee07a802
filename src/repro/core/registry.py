"""A named registry of motif factories.

The paper envisions "libraries implementing motifs [as] archives of
expertise that can be consulted, modified, and extended".  The registry is
the consultation surface: motifs register under a name, and callers build
configured instances with keyword parameters.
"""

from __future__ import annotations

from typing import Callable

from repro.core.motif import Motif
from repro.errors import MotifError

__all__ = ["MotifRegistry", "default_registry", "get_motif", "register_motif"]


class MotifRegistry:
    """Name → motif-factory mapping."""

    def __init__(self) -> None:
        self._factories: dict[str, Callable[..., Motif]] = {}

    def register(self, name: str, factory: Callable[..., Motif]) -> None:
        if name in self._factories:
            raise MotifError(f"motif {name!r} already registered")
        self._factories[name] = factory

    def create(self, name: str, **params) -> Motif:
        factory = self._factories.get(name)
        if factory is None:
            known = ", ".join(sorted(self._factories)) or "(none)"
            raise MotifError(f"unknown motif {name!r}; known motifs: {known}")
        return factory(**params)

    def names(self) -> list[str]:
        return sorted(self._factories)

    def __contains__(self, name: str) -> bool:
        return name in self._factories


_default = MotifRegistry()


def default_registry() -> MotifRegistry:
    """The process-wide registry, pre-populated with the paper's motifs and
    the future-work extensions on first use."""
    if not _default.names():
        _populate(_default)
    return _default


def register_motif(name: str, factory: Callable[..., Motif]) -> None:
    default_registry().register(name, factory)


def get_motif(name: str, **params) -> Motif:
    return default_registry().create(name, **params)


def _populate(registry: MotifRegistry) -> None:
    from repro.motifs.random_map import rand_motif, random_motif
    from repro.motifs.server import server_motif
    from repro.motifs.termination import short_circuit_motif
    from repro.motifs.tree_reduce1 import (
        sequential_tree_motif,
        static_tree_motif,
        tree1_motif,
        tree_reduce_1,
    )
    from repro.motifs.reliable import reliable_motif
    from repro.motifs.supervisor import supervise_motif
    from repro.motifs.tree_reduce2 import tree_reduce_2, tree_reduce_motif

    registry.register("server", server_motif)
    registry.register("supervise", supervise_motif)
    registry.register("rand", rand_motif)
    registry.register("random", random_motif)
    registry.register("reliable", reliable_motif)
    registry.register("termination", short_circuit_motif)
    registry.register("tree1", tree1_motif)
    registry.register("tree-reduce-1", tree_reduce_1)
    registry.register("tree-reduce", tree_reduce_motif)
    registry.register("tree-reduce-2", tree_reduce_2)
    registry.register("static-tree", static_tree_motif)
    registry.register("sequential-tree", sequential_tree_motif)
    # Extension motifs (paper §4 future work) register lazily to avoid
    # import cycles; they are added by repro.motifs.__init__.
    try:
        from repro.motifs import extensions

        extensions.register_all(registry)
    except ImportError:
        pass
