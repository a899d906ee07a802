"""Motif library: the paper's motifs (Server, Rand/Random, Tree-Reduce-1/2,
termination, scheduler) and the §4 future-work extensions."""

from repro.motifs.bnb import bnb_motif, bnb_stack
from repro.motifs.bounded import bounded_motif
from repro.motifs.collective import allreduce_goals, central_reduce_goals, collective_motif
from repro.motifs.graph import graph_motif, sssp_goals
from repro.motifs.monitor import monitor_motif
from repro.motifs.random_map import RandTransformation, rand_motif, random_motif
from repro.motifs.reliable import (
    Reliable,
    ReliableTransformation,
    rel_state,
    reliable_motif,
)
from repro.motifs.server import (
    MERGE_LIBRARY,
    PORT_LIBRARY,
    server_motif,
    server_transformation,
)
from repro.motifs.supervisor import (
    Supervise,
    SuperviseTransformation,
    supervise_motif,
)
from repro.motifs.termination import ShortCircuit, short_circuit_motif
from repro.motifs.tree_reduce1 import (
    sequential_tree_motif,
    static_tree_motif,
    tree1_motif,
    tree_reduce_1,
)
from repro.motifs.tree_reduce2 import tree_reduce_2, tree_reduce_motif

__all__ = [
    "bnb_motif",
    "bnb_stack",
    "bounded_motif",
    "collective_motif",
    "allreduce_goals",
    "central_reduce_goals",
    "graph_motif",
    "monitor_motif",
    "sssp_goals",
    "server_motif",
    "server_transformation",
    "PORT_LIBRARY",
    "MERGE_LIBRARY",
    "rand_motif",
    "random_motif",
    "RandTransformation",
    "Reliable",
    "reliable_motif",
    "rel_state",
    "ReliableTransformation",
    "short_circuit_motif",
    "ShortCircuit",
    "Supervise",
    "supervise_motif",
    "SuperviseTransformation",
    "tree1_motif",
    "tree_reduce_1",
    "static_tree_motif",
    "sequential_tree_motif",
    "tree_reduce_motif",
    "tree_reduce_2",
]
