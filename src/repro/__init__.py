"""repro — a reproduction of Foster & Stevens, *Parallel Programming with
Algorithmic Motifs* (ICPP 1990).

Layers (see DESIGN.md):

* :mod:`repro.strand`  — a Strand-dialect concurrent logic language
  (single-assignment variables, guarded committed-choice rules);
* :mod:`repro.machine` — a deterministic virtual multicomputer;
* :mod:`repro.transform` — source-to-source transformation engine;
* :mod:`repro.core`    — the motif abstraction ``M = (T, L)`` and runners;
* :mod:`repro.motifs`  — the motif library (Server, Random, Tree-Reduce…);
* :mod:`repro.apps`    — applications (arithmetic, sequence alignment, …).
"""

from repro.core import (
    AppliedMotif,
    ComposedMotif,
    Motif,
    Reliable,
    RunResult,
    Supervise,
    default_registry,
    get_motif,
    reduce_tree,
    reliable_reduce_tree,
)
from repro.machine import Machine
from repro.strand import Program, parse_program, run_query

__version__ = "0.1.0"

__all__ = [
    "Motif",
    "ComposedMotif",
    "AppliedMotif",
    "RunResult",
    "reduce_tree",
    "reliable_reduce_tree",
    "Reliable",
    "Supervise",
    "get_motif",
    "default_registry",
    "Machine",
    "Program",
    "parse_program",
    "run_query",
    "__version__",
]
