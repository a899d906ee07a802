"""The paper's core contribution: motifs as (transformation, library) pairs
with composition, plus the high-level run API."""

from repro.core.api import (
    Reliable,
    RunResult,
    Supervise,
    TREE_STRATEGIES,
    as_application,
    reduce_tree,
    reliable_reduce_tree,
    run_applied,
)
from repro.core.motif import AppliedMotif, ComposedMotif, Motif, library_from_source
from repro.core.pragmas import RANDOM, TASK, annotate, is_pragma_goal, pragma_name
from repro.core.registry import MotifRegistry, default_registry, get_motif, register_motif

__all__ = [
    "Motif",
    "ComposedMotif",
    "AppliedMotif",
    "library_from_source",
    "RunResult",
    "reduce_tree",
    "reliable_reduce_tree",
    "Reliable",
    "Supervise",
    "run_applied",
    "as_application",
    "TREE_STRATEGIES",
    "RANDOM",
    "TASK",
    "annotate",
    "is_pragma_goal",
    "pragma_name",
    "MotifRegistry",
    "default_registry",
    "get_motif",
    "register_motif",
]
