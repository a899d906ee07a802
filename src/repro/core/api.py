"""High-level API: apply motif stacks and run them on a virtual machine.

This is the layer a downstream user touches first::

    from repro import reduce_tree
    from repro.apps.arithmetic import paper_example_tree, eval_arith_node

    result = reduce_tree(paper_example_tree(), eval_arith_node,
                         processors=4, strategy="tr1")
    assert result.value == 24

``reduce_tree`` accepts the node evaluator either as Strand source text
(rules for ``eval/4``) or as a Python callable ``fn(op, lv, rv) -> value``
registered as the foreign procedure ``eval/4`` — the paper's multilingual
model.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Iterable

from repro.core.motif import AppliedMotif, Motif, library_from_source
from repro.errors import ReproError
from repro.machine.metrics import MachineMetrics
from repro.machine.simulator import Machine
from repro.motifs.reliable import Reliable
from repro.motifs.supervisor import Supervise
from repro.motifs.tree_reduce1 import (
    sequential_tree_motif,
    static_tree_motif,
    tree_reduce_1,
    tree_reduce_1_entry,
)
from repro.motifs.tree_reduce2 import tree_reduce_2
from repro.apps import trees
from repro.strand.engine import StrandEngine
from repro.strand.foreign import ForeignRegistry, to_python
from repro.strand.program import Program
from repro.strand.terms import Struct, Term, Var, deref

__all__ = [
    "RunResult",
    "run_applied",
    "reduce_tree",
    "reliable_reduce_tree",
    "Reliable",
    "Supervise",
    "TREE_STRATEGIES",
    "as_application",
]

#: Tree-reduction strategies offered by :func:`reduce_tree`.
TREE_STRATEGIES = ("tr1", "tr2", "static", "sequential")


@dataclass
class RunResult:
    """Outcome of a motif-stack run."""

    value: Any
    metrics: MachineMetrics
    bindings: dict[str, Term]
    engine: StrandEngine
    applied: AppliedMotif


# Motif stacks are stateless (their application memo lives on the inputs),
# so one instance per parameterization lets repeated ``reduce_tree`` calls
# share parsed libraries, applied programs, and (transitively) compiled
# programs.
#
# The caches are *bounded*, so a long-lived process (a notebook sweeping
# parameters, a benchmark harness) does not accumulate stacks without
# limit.  The bounds are sized generously above any realistic number of
# concurrent parameterizations — eviction only re-pays one stack
# construction.
_STACK_CACHE_SIZE = 32  # distinct (strategy, server_library, …) parameterizations
_APPLICATION_CACHE_SIZE = 256  # distinct application names


@lru_cache(maxsize=_STACK_CACHE_SIZE)
def _stack(strategy: str, server_library: str, termination: bool,
           reliable: Reliable | None, supervise: Supervise | None) -> Motif:
    """The motif stack of one :func:`reduce_tree` parameterization."""
    if strategy == "tr1":
        return tree_reduce_1(server_library, termination,
                             reliable=reliable, supervise=supervise)
    if strategy == "tr2":
        return tree_reduce_2(server_library=server_library)
    if strategy == "static":
        return static_tree_motif()
    return sequential_tree_motif()


@lru_cache(maxsize=_APPLICATION_CACHE_SIZE)
def _empty_application(name: str) -> Program:
    """A shared, never-mutated empty application program.  One object per
    name keeps motif-application caches keyed on a stable identity across
    ``reduce_tree`` calls with Python-callable evaluators."""
    return Program(name=name)


def as_application(evaluator: str | Callable | Program, name: str = "application",
                   cost: float | Callable[..., float] = 1.0
                   ) -> tuple[Program, Callable[[ForeignRegistry], None] | None]:
    """Normalize a user-supplied node evaluator into ``(program, foreign_setup)``.

    * Strand source / :class:`Program` → the application program itself
      (source text is parsed once per process; transformations never
      mutate their input, so the program object is shared);
    * Python callable → a shared empty application plus a hook registering
      it as the foreign procedure ``eval/4`` with the given cost model.
    """
    if isinstance(evaluator, Program):
        return evaluator, None
    if isinstance(evaluator, str):
        return library_from_source(evaluator, name=name), None
    if callable(evaluator):
        fn = evaluator

        def setup(registry: ForeignRegistry) -> None:
            registry.register("eval", 4, fn, cost=cost)

        return _empty_application(name), setup
    raise ReproError(f"cannot use {evaluator!r} as a node evaluator")


def run_applied(
    applied: AppliedMotif,
    goals: Iterable[Term] | Term,
    machine: Machine | None = None,
    *,
    watched: Iterable[tuple[str, int]] = (),
    foreign: ForeignRegistry | None = None,
    max_reductions: int = 5_000_000,
    **engine_options: Any,
) -> tuple[StrandEngine, MachineMetrics]:
    """Run already-constructed goal terms against an applied motif stack."""
    engine = StrandEngine(
        applied.program,
        machine=machine,
        foreign=applied.make_foreign(foreign),
        watched=watched,
        library=applied.library_indicators,
        services=applied.services,
        builtins=applied.builtins,
        max_reductions=max_reductions,
        **engine_options,
    )
    if isinstance(goals, (Struct,)):
        goals = [goals]
    for goal in goals:
        engine.spawn(goal, proc=1, ready=0.0)
    metrics = engine.run()
    return engine, metrics


def reduce_tree(
    tree: trees.Tree,
    evaluator: str | Callable | Program,
    *,
    processors: int = 4,
    strategy: str = "tr1",
    machine: Machine | None = None,
    seed: int = 0,
    topology: str | None = None,
    backend: str = "sequential",
    workers: int | None = None,
    epoch_window: float | None = None,
    server_library: str = "ports",
    termination: bool = True,
    reliable: Reliable | None = None,
    supervise: Supervise | None = None,
    eval_cost: float | Callable[..., float] = 1.0,
    max_reductions: int = 5_000_000,
    **engine_options: Any,
) -> RunResult:
    """Reduce a binary tree with a chosen motif strategy.

    Parameters mirror the paper's design space: ``strategy`` is one of

    * ``"tr1"``        — Tree-Reduce-1 (Server ∘ Rand ∘ Tree1, §3.4)
    * ``"tr2"``        — Tree-Reduce-2 (Server ∘ TreeReduce, §3.5)
    * ``"static"``     — static partition (§3.1)
    * ``"sequential"`` — single-processor fold (baseline)

    ``tr1`` takes two fault-tolerance layers (see
    :func:`~repro.motifs.tree_reduce1.tree_reduce_1`), each at its fixed
    place in the stack and without the termination stage:

    * ``reliable=Reliable(...)`` — acked, retransmitted, deduplicated
      delivery just under Server.  Run on a :class:`Machine` with a lossy
      :class:`~repro.machine.faults.FaultPlan`; ``metrics`` then carry the
      reliability counters, and destinations the protocol gave up on are
      listed in ``rel_state(result.engine).unreachable``
      (:func:`repro.motifs.reliable.rel_state`).
    * ``supervise=Supervise(...)`` — subtree attempts raced against
      timeouts, retried, and degraded to a fallback, just over ``Tree1′``;
      the entry message is ``sup_run(Tree, Value)``.
    * both — the run uses ``abandon_stragglers=True``: attempts superseded
      by a Supervise retry may be permanently stranded by message loss,
      and are abandoned at quiescence rather than reported as a deadlock.

    ``backend="parallel"`` shards the virtual processors across ``workers``
    OS processes (see :mod:`repro.machine.parallel`); evaluators must then
    be Strand source or a :class:`Program` — Python callables cannot be
    shipped to worker processes — and neither layer is supported there
    (their timers are refused).  ``backend``/``workers``/``epoch_window``
    are ignored when an explicit ``machine`` is passed (configure it there
    instead).
    """
    if strategy not in TREE_STRATEGIES:
        raise ReproError(f"unknown strategy {strategy!r}; choose from {TREE_STRATEGIES}")
    if (reliable is not None or supervise is not None) and strategy != "tr1":
        raise ReproError(
            f"the Reliable and Supervise layers compose with strategy 'tr1' "
            f"only, not {strategy!r}"
        )
    if machine is None:
        machine = Machine(
            1 if strategy == "sequential" else processors,
            topology=topology,
            seed=seed,
            backend=backend,
            workers=workers if backend == "parallel" else None,
            epoch_window=epoch_window,
        )
    application, setup = as_application(evaluator, cost=eval_cost)

    # Single-leaf trees have no evaluations; answer directly but uniformly.
    if isinstance(tree, trees.Leaf):
        applied = AppliedMotif(program=application)
        engine = StrandEngine(application, machine=machine)
        return RunResult(tree.value, machine.metrics(), {}, engine, applied)

    value_var = Var("Value")
    applied = _stack(strategy, server_library, termination,
                     reliable, supervise).apply(application)
    if strategy == "tr1":
        inner = tree_reduce_1_entry(trees.tree_term(tree), value_var, termination,
                                    reliable=reliable, supervise=supervise)
        goal: Term = Struct("create", (machine.size, inner))
        if reliable is not None and supervise is not None:
            engine_options.setdefault("abandon_stragglers", True)
    elif strategy == "tr2":
        import random as _random

        # Labelling must be a function of the *machine's* seed, not the
        # ``seed`` parameter (which is ignored when a machine is passed in),
        # or two runs on the same machine could label differently.
        _entries, table = trees.label_table(
            tree, machine.size, _random.Random(machine.seed + 0x5EED)
        )
        goal = Struct("create", (machine.size, Struct("init", (table, value_var))))
    elif strategy == "static":
        goal = Struct("sreduce", (trees.tree_term(tree), value_var, 1, machine.size))
    else:  # sequential
        goal = Struct("reduce_seq", (trees.tree_term(tree), value_var))

    if setup is not None:
        applied.foreign_setup.append(setup)
        applied.user_names.add("eval")

    engine, metrics = run_applied(
        applied, goal, machine, watched=[("eval", 4)],
        max_reductions=max_reductions, **engine_options,
    )
    value = deref(value_var)
    if type(value) is Var:
        hint = ""
        if reliable is not None:
            hint = (" (destination permanently unreachable? check "
                    "rel_state(engine).unreachable)")
        elif supervise is not None:
            hint = " (was the supervision channel itself severed?)"
        raise ReproError(
            f"tree reduction under {strategy!r} finished without binding "
            f"the result{hint}"
        )
    return RunResult(to_python(value), metrics, {"Value": value_var}, engine, applied)


def reliable_reduce_tree(tree: trees.Tree, evaluator: str | Callable | Program,
                         **options: Any) -> RunResult:
    """``reduce_tree(tree, evaluator, reliable=Reliable(), **options)``."""
    return reduce_tree(tree, evaluator, reliable=Reliable(), **options)
