#!/usr/bin/env python
"""Supervised tree reduction surviving injected processor crashes.

The Supervise motif (``Server ∘ Rand ∘ Supervise ∘ Tree1′``) turns the
five-line tree reduction into a fault-tolerant one: each right-branch
subtree runs as a *supervised attempt* — a fresh copy raced against a
timeout — retried with exponential backoff when its processor crashes,
and degraded to a fallback value when retries run out.

This script reduces the same 32-leaf arithmetic tree three times on a
4-processor virtual machine with the same seed:

1. fault-free,
2. with processor 3 crashing at virtual time 25 (recovered: same answer),
3. with half the machine crashing and a single retry (degraded: the run
   still terminates and reports how much of the answer it lost).

Fault injection is deterministic — the crash schedule and every
drop/delay draw come from the machine's seeded RNG — so every line this
prints is exactly reproducible.

Run:  python examples/supervised_reduce.py
"""

from repro import Supervise, reduce_tree
from repro.analysis import Table
from repro.apps.arithmetic import arithmetic_tree, eval_arith_node
from repro.machine import FaultPlan, Machine

PROCESSORS = 4
SEED = 11


def main() -> None:
    tree = arithmetic_tree(32, seed=3)

    table = Table(
        "Supervised Tree-Reduce under injected crashes (P=4, seed=11)",
        ["scenario", "value", "virtual time", "crashes", "retries",
         "degraded"],
    )

    scenarios = [
        ("fault-free", None, {}),
        ("crash p3 @ t=25", FaultPlan(crash={3: 25.0}), {}),
        ("crash p2+p3 @ t=25, 1 retry",
         FaultPlan(crash={2: 25.0, 3: 25.0}),
         {"retries": 1, "timeout": 400.0}),
    ]
    baseline = None
    for label, faults, overrides in scenarios:
        machine = Machine(PROCESSORS, seed=SEED, faults=faults)
        result = reduce_tree(
            tree, eval_arith_node, machine=machine,
            supervise=Supervise(**overrides),
        )
        m = result.metrics
        table.add(label, result.value, m.makespan, m.crashes,
                  m.sup_retries, m.sup_degraded)
        if baseline is None:
            baseline = result.value
        elif not overrides:
            assert result.value == baseline, "supervision recovered the answer"
    table.note(
        "retries recover the exact answer; exhausted retries degrade to the "
        "fallback instead of hanging"
    )
    table.show()


if __name__ == "__main__":
    main()
