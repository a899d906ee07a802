"""Behaviour guard for the Tree-Reduce-1 fault-tolerance layers.

Every combination of the Reliable and Supervise layers on ``tr1`` is run
on fixed trees, seeds and fault plans, and the outcome (the value, or the
name of the typed error) plus ``MachineMetrics.summary()`` is compared
with ``tr1_layers_golden.json``.  The golden file pins the observable
behaviour of each stack: a refactor of how stacks are built or how motif
builtins are found must leave every line of it unchanged.

Regenerate (only when a behaviour change is intended) with::

    PYTHONPATH=src python tests/core/test_tr1_layers_guard.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.apps.arithmetic import arithmetic_tree, eval_arith_node, paper_example_tree
from repro.core.api import Reliable, Supervise, reduce_tree
from repro.errors import ReproError
from repro.machine import FaultPlan, Machine

GOLDEN = Path(__file__).with_name("tr1_layers_golden.json")

TREES = {
    "paper": paper_example_tree,
    "random16": lambda: arithmetic_tree(16, seed=7),
}
VARIANTS = ("bare", "supervise", "reliable", "reliable+supervise")
SEEDS = range(5)
PLANS = {
    "none": lambda: None,
    "drop0.2": lambda: FaultPlan(drop_rate=0.2),
    "crash0.3": lambda: FaultPlan(crash_rate=0.3),
}


def _run(variant: str, tree, machine: Machine):
    return reduce_tree(
        tree, eval_arith_node, machine=machine,
        reliable=Reliable() if "reliable" in variant else None,
        supervise=Supervise() if "supervise" in variant else None,
    )


def outcome(tree_name: str, variant: str, seed: int, plan: str) -> dict:
    machine = Machine(4, seed=seed, faults=PLANS[plan]())
    try:
        result = _run(variant, TREES[tree_name](), machine)
    except ReproError as exc:
        return {"error": type(exc).__name__,
                "summary": machine.metrics().summary()}
    return {"value": result.value, "summary": result.metrics.summary()}


def case_ids() -> list[str]:
    return [f"{t}/{v}/{s}/{p}"
            for t in TREES for v in VARIANTS for s in SEEDS for p in PLANS]


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(case_ids())


@pytest.mark.parametrize("case", case_ids())
def test_layer_behaviour_unchanged(golden, case):
    tree_name, variant, seed, plan = case.split("/")
    assert outcome(tree_name, variant, int(seed), plan) == golden[case]


if __name__ == "__main__":
    record = {}
    for case in case_ids():
        tree_name, variant, seed, plan = case.split("/")
        record[case] = outcome(tree_name, variant, int(seed), plan)
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(record)} cases to {GOLDEN}")
