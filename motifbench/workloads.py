"""The benchmark's workloads: seeded job lists, set-up, one job, its check.

Every workload is a closed loop of one client: the next job starts when the
previous one has returned.  Job lists are generated from the workload seed
alone (never from a time budget), so the same seed gives the same jobs, the
same counts and the same failure share on any host.  Each answer is checked
against a reference computed here, in plain Python, without the engine.

Only the standard library is imported at module level; the runtime is
imported inside the functions that use it.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIEVE_PATH = os.path.join(ROOT, "examples", "strand", "sieve.str")

PROCESSORS = 4
DROP_RATE = 0.1
PARALLEL_WORKERS = 2

# Each virtual processor runs an independent W-step arithmetic loop; all
# reductions are shard-local, so the parallel backend can overlap them.
CRUNCH_SOURCE = """
go(N, W, Out) :- spread(N, W, Out).
spread(0, _W, Out) :- Out := [].
spread(N, W, Out) :- N > 0 |
    Out := [V | Rest],
    crunch(W, 0, V) @ N,
    N1 := N - 1,
    spread(N1, W, Rest).
crunch(0, Acc, V) :- V := Acc.
crunch(W, Acc, V) :- W > 0 |
    Acc1 := Acc + W,
    W1 := W - 1,
    crunch(W1, Acc1, V).
"""

OPS = ("add", "mul", "sub", "mx")


@dataclass
class Job:
    """One job: its inputs and the answer the reference computed."""

    index: int
    params: dict
    expected: object = None
    tree: tuple | None = field(default=None, repr=False)


# -- plain-Python references --------------------------------------------------

def primes_upto(n: int) -> list[int]:
    flags = [True] * (n + 1)
    out = []
    for p in range(2, n + 1):
        if flags[p]:
            out.append(p)
            for q in range(p * p, n + 1, p):
                flags[q] = False
    return out


def apply_op(op: str, left: int, right: int) -> int:
    if op == "add":
        return left + right
    if op == "mul":
        return left * right
    if op == "sub":
        return left - right
    if op == "mx":
        return max(left, right)
    raise ValueError(f"unknown operator {op!r}")


def eval_node(op, left, right):
    """The application's node evaluator, registered as foreign ``eval/4``."""
    return apply_op(getattr(op, "name", op), left, right)


def stratified(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """``count`` integers covering ``[lo, hi]`` evenly, each drawn within its
    own stratum, in seeded order: every seed gets a different list with the
    same size distribution, so seed-to-seed spread reflects the system, not
    the draw."""
    width = (hi - lo + 1) / count
    values = [lo + int((i + rng.random()) * width) for i in range(count)]
    rng.shuffle(values)
    return values


def random_tree(rng: random.Random, leaves: int) -> tuple:
    """A random binary tree as nested ``(op, left, right)`` / ``int`` tuples."""
    if leaves == 1:
        return rng.randint(0, 9)
    split = rng.randint(1, leaves - 1)
    op = rng.choice(OPS)
    return (op, random_tree(rng, split), random_tree(rng, leaves - split))


def reduce_reference(tree) -> int:
    stack, values = [(tree, False)], []
    while stack:
        node, expanded = stack.pop()
        if isinstance(node, int):
            values.append(node)
        elif expanded:
            right = values.pop()
            left = values.pop()
            values.append(apply_op(node[0], left, right))
        else:
            stack.extend(((node, True), (node[2], False), (node[1], False)))
    return values[0]


def to_repro_tree(tree):
    from repro.apps.trees import Leaf, Node

    if isinstance(tree, int):
        return Leaf(tree)
    return Node(tree[0], to_repro_tree(tree[1]), to_repro_tree(tree[2]))


def cold_source(tag: str, chain: list[int]) -> str:
    """A never-seen application: Figure 2's ``eval/4`` routed through a chain
    of job-specific helpers.  The last helper calls ``nodes/1``, so the
    Server transformation threads ``DT`` through every helper; the constant
    each helper adds is subtracted again at the end, so the answer is the
    plain arithmetic value."""
    lines = [f"eval({op}, L, R, V) :- {tag}_h1({op}, L, R, V)." for op in OPS]
    for k, const in enumerate(chain, start=1):
        lines.append(
            f"{tag}_h{k}(Op, L, R, V) :- L1 := L + {const}, "
            f"{tag}_h{k + 1}(Op, L1, R, V)."
        )
    total = sum(chain)
    last = len(chain) + 1
    lines.append(f"{tag}_h{last}(Op, L, R, V) :- nodes(N), {tag}_fin(Op, L, R, N, V).")
    lines += [
        f"{tag}_fin(add, L, R, N, V) :- N > 0 | V := L - {total} + R.",
        f"{tag}_fin(mul, L, R, N, V) :- N > 0 | V := (L - {total}) * R.",
        f"{tag}_fin(sub, L, R, N, V) :- N > 0 | V := L - {total} - R.",
        f"{tag}_fin(mx, L, R, N, V) :- L - {total} >= R | V := L - {total}.",
        f"{tag}_fin(mx, L, R, N, V) :- L - {total} < R | V := R.",
    ]
    return "\n".join(lines) + "\n"


# -- workloads ------------------------------------------------------------------

class Workload:
    """A named workload.

    ``jobs(seed)`` builds the fixed job list; ``setup()`` does the one-time
    parse/motif/compile work and returns the state jobs share;
    ``machine_of(job)`` builds the job's virtual machine; ``run(state, job,
    machine)`` returns ``(value, metrics)``.  A typed ``ReproError`` escapes
    ``run`` and is recorded by the caller as an undelivered result.
    """

    name = ""
    why = ""
    size = 0  # jobs in the fixed list
    faults = False  # True where typed errors are an expected outcome
    processes = 1  # OS processes a job runs in

    def jobs(self, seed: int) -> list[Job]:
        raise NotImplementedError

    def setup(self):
        raise NotImplementedError

    def machine_of(self, job: Job):
        raise NotImplementedError

    def run(self, state, job: Job, machine):
        raise NotImplementedError


def engine_run(program, goal_name: str, args: tuple, machine):
    """Spawn one goal whose last argument is the output and run it."""
    from repro.strand.engine import StrandEngine
    from repro.strand.foreign import to_python
    from repro.strand.terms import Struct, Var, deref

    out = Var("Out")
    engine = StrandEngine(program, machine=machine)
    engine.spawn(Struct(goal_name, (*args, out)), proc=1, ready=0.0)
    metrics = engine.run()
    return to_python(deref(out)), metrics


class Sieve(Workload):
    name = "sieve"
    why = "engine hot path only: user rules, scheduler, spawn, bind; no motifs, no messages"
    size = 100

    def jobs(self, seed):
        rng = random.Random(seed)
        return [Job(i, {"n": n}, primes_upto(n))
                for i, n in enumerate(stratified(rng, 100, 300, self.size))]

    def setup(self):
        from repro.strand import compile_program, parse_program

        with open(SIEVE_PATH) as handle:
            program = parse_program(handle.read(), name="sieve")
        compile_program(program)
        return program

    def machine_of(self, job):
        from repro.machine import Machine

        return Machine(1)

    def run(self, program, job, machine):
        return engine_run(program, "primes", (job.params["n"],), machine)


class ColdStack(Workload):
    name = "cold-stack"
    why = "a new application every job: parse, each motif transformation and compile do the work"
    size = 80

    def jobs(self, seed):
        rng = random.Random(seed)
        leaves = stratified(rng, 6, 12, self.size)
        chains = stratified(rng, 4, 12, self.size)
        strategies = ["tr1", "tr2"] * (self.size // 2)
        rng.shuffle(strategies)
        out = []
        for i in range(self.size):
            tree = random_tree(rng, leaves[i])
            chain = [rng.randint(1, 9) for _ in range(chains[i])]
            params = {
                "strategy": strategies[i],
                "machine_seed": rng.randrange(1 << 30),
                "source": cold_source(f"s{seed}j{i}", chain),
            }
            out.append(Job(i, params, reduce_reference(tree), tree))
        return out

    def setup(self):
        # Parses the motif libraries and builds both stacks, as a user's
        # first call of each strategy would.
        from repro.core.api import reduce_tree
        from repro.strand import parse_program

        warm = parse_program(cold_source("warm", [1]), name="warm")
        tree = to_repro_tree(("add", 1, 2))
        for strategy in ("tr1", "tr2"):
            reduce_tree(tree, warm, processors=PROCESSORS, strategy=strategy)
        return None

    def machine_of(self, job):
        from repro.machine import Machine

        return Machine(PROCESSORS, seed=job.params["machine_seed"])

    def run(self, _state, job, machine):
        from repro.core.api import reduce_tree
        from repro.strand import parse_program

        # A fresh Program object each time: every cache keyed on the
        # application misses, even when the job list is run again.
        program = parse_program(job.params["source"], name=f"app{job.index}")
        result = reduce_tree(to_repro_tree(job.tree), program,
                             strategy=job.params["strategy"], machine=machine)
        return result.value, result.metrics


class LossyTree(Workload):
    name = "lossy-tree"
    why = "ports, timers, retransmits, foreign eval and injected message loss under Reliable"
    size = 900
    faults = True

    def jobs(self, seed):
        rng = random.Random(seed)
        out = []
        for i, leaves in enumerate(stratified(rng, 12, 24, self.size)):
            tree = random_tree(rng, leaves)
            params = {"machine_seed": rng.randrange(1 << 30)}
            out.append(Job(i, params, reduce_reference(tree), tree))
        return out

    def setup(self):
        from repro.core.api import reliable_reduce_tree

        reliable_reduce_tree(to_repro_tree(("add", 1, 2)), eval_node,
                             processors=PROCESSORS)
        return None

    def machine_of(self, job):
        from repro.machine import FaultPlan, Machine

        return Machine(PROCESSORS, seed=job.params["machine_seed"],
                       faults=FaultPlan(drop_rate=DROP_RATE))

    def run(self, _state, job, machine):
        from repro.core.api import reliable_reduce_tree

        result = reliable_reduce_tree(to_repro_tree(job.tree), eval_node,
                                      machine=machine, max_reductions=2_000_000)
        return result.value, result.metrics


class ParallelCrunch(Workload):
    name = "parallel-crunch"
    why = "independent loops per virtual processor on the parallel backend with 2 workers"
    size = 40
    processes = 1 + PARALLEL_WORKERS

    def jobs(self, seed):
        rng = random.Random(seed)
        return [Job(i, {"work": w}, [w * (w + 1) // 2] * PROCESSORS)
                for i, w in enumerate(stratified(rng, 800, 2000, self.size))]

    def setup(self):
        from repro.strand import compile_program, parse_program

        program = parse_program(CRUNCH_SOURCE, name="crunch")
        compile_program(program)
        return program

    def machine_of(self, job, backend="parallel"):
        from repro.machine import Machine

        workers = PARALLEL_WORKERS if backend == "parallel" else None
        return Machine(PROCESSORS, backend=backend, workers=workers)

    def run(self, program, job, machine):
        return engine_run(program, "go", (PROCESSORS, job.params["work"]), machine)


WORKLOADS = {w.name: w for w in (Sieve(), ColdStack(), LossyTree(), ParallelCrunch())}
