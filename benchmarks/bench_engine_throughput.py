"""Engine throughput — infrastructure benchmark (not a paper experiment).

Tracks the runtime's reductions-per-second on four canonical shapes —
the Figure-1 rendezvous (suspension-heavy), the Eratosthenes sieve
(process-chain-heavy), a multi-processor tree reduction (scheduler- and
message-heavy), and a 64-way multi-rule dispatch loop (rule-selection-heavy,
run both with first-argument indexing and with the linear-scan ablation) —
so engine regressions show up in CI.

The record, ``benchmarks/BENCH_engine_throughput.json``, holds one entry
per label: reductions/s for all four shapes (dispatch both indexed and
linear), with the host's ``cpu_count``, the Python version and the git sha
of the runtime measured.  The pytest run writes the ``current`` entry and
keeps the others; to record a baseline on the same host, run this file as a
script against another checkout's sources::

    PYTHONPATH=<other checkout>/src python benchmarks/bench_engine_throughput.py --label before
"""

import argparse
import json
import os
import platform
import subprocess
import time
from pathlib import Path

import repro
from repro.analysis import Table
from repro.apps.arithmetic import arithmetic_tree, eval_arith_node
from repro.core.api import reduce_tree
from repro.machine import Machine
from repro.strand import parse_program, run_query

JSON_PATH = Path(__file__).parent / "BENCH_engine_throughput.json"

FIGURE1 = parse_program("""
go(N) :- producer(N, Xs, sync), consumer(Xs).
producer(N, Xs, _Sync) :- N > 0 |
    Xs := [X | Xs1], N1 := N - 1, producer(N1, Xs1, X).
producer(0, Xs, _) :- Xs := [].
consumer([X | Xs]) :- X := sync, consumer(Xs).
consumer([]).
""", name="figure1")

SIEVE = parse_program(
    (Path(__file__).parent.parent / "examples" / "strand" / "sieve.str").read_text(),
    name="sieve",
)


def run_figure1():
    return run_query(FIGURE1, "go(1500)", machine=Machine(1)).metrics


def run_sieve():
    return run_query(SIEVE, "primes(400, _Ps)", machine=Machine(1)).metrics


def run_tree():
    tree = arithmetic_tree(128, seed=1)
    return reduce_tree(tree, eval_arith_node, processors=8, strategy="tr1",
                       seed=1).metrics


# 64-way dispatch: every reduction of loop/2 must select among 64 rules
# whose first arguments are distinct integer keys — the workload where
# first-argument indexing pays and a linear rule scan is O(rules).
_DISPATCH_K = 64
DISPATCH = parse_program(
    "\n".join(
        f"loop({i}, N) :- N > 0 | N1 := N - 1, K := N1 mod {_DISPATCH_K}, "
        f"loop(K, N1)."
        for i in range(_DISPATCH_K)
    )
    + "\nloop(_, 0)."
    + f"\ngo(N) :- K := N mod {_DISPATCH_K}, loop(K, N).",
    name="dispatch",
)


def run_dispatch(indexing: bool):
    return run_query(DISPATCH, "go(10000)", machine=Machine(1),
                     indexing=indexing).metrics


def _timed(runner, *args):
    t0 = time.perf_counter()
    metrics = runner(*args)
    dt = time.perf_counter() - t0
    return metrics, dt


def test_engine_throughput(emit, benchmark):
    table = Table(
        "engine throughput (wall clock, informational)",
        ["workload", "reductions", "seconds", "reductions/s"],
    )
    for name, runner in (("figure1 rendezvous", run_figure1),
                         ("sieve of Eratosthenes", run_sieve),
                         ("tree-reduce-1 P=8", run_tree)):
        metrics, dt = _timed(runner)
        table.add(name, metrics.reductions, dt, metrics.reductions / dt)
        # Guard against catastrophic interpreter regressions.
        assert metrics.reductions / dt > 5_000
    emit(table)

    benchmark(run_sieve)


def _git_sha() -> str | None:
    """The commit of the checkout the measured ``repro`` was imported from
    (``-dirty`` when its working tree has uncommitted changes)."""
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=7"],
                             cwd=Path(repro.__file__).parent, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def measure(repeats: int = 3) -> dict:
    """Best-of-``repeats`` reductions/s for every shape, plus host metadata."""
    # Warm up the compile caches so no measured run pays compilation.
    run_dispatch(True)
    run_dispatch(False)
    shapes = {
        "figure1": run_figure1,
        "sieve": run_sieve,
        "tree_reduce_p8": run_tree,
        "dispatch_indexed": lambda: run_dispatch(True),
        "dispatch_linear": lambda: run_dispatch(False),
    }
    reductions, rates = {}, {}
    for name, runner in shapes.items():
        runner()
        best = 0.0
        for _ in range(repeats):
            metrics, dt = _timed(runner)
            best = max(best, metrics.reductions / dt)
        reductions[name] = metrics.reductions
        rates[name] = round(best, 1)
    return {
        "host": {"cpu_count": os.cpu_count(), "python": platform.python_version(),
                 "git_sha": _git_sha()},
        "reductions": reductions,
        "reductions_per_sec": rates,
        "dispatch_speedup": round(rates["dispatch_indexed"] / rates["dispatch_linear"], 3),
    }


def record(label: str, entry: dict) -> None:
    """Store ``entry`` under ``label`` in the JSON record, keeping the rest."""
    try:
        data = json.loads(JSON_PATH.read_text())
    except (OSError, ValueError):
        data = {}
    runs = data.get("runs", {})
    runs[label] = entry
    JSON_PATH.write_text(json.dumps({"benchmark": "engine_throughput", "runs": runs},
                                    indent=2) + "\n")


def test_dispatch_indexing_speedup(emit):
    """First-argument indexing vs. the linear-scan ablation on the 64-way
    dispatch loop, and every shape's rate, recorded in the JSON."""
    entry = measure()
    rates, reductions = entry["reductions_per_sec"], entry["reductions"]
    table = Table(
        f"multi-rule dispatch (K={_DISPATCH_K}, indexed vs linear)",
        ["rule selection", "reductions", "seconds", "reductions/s"],
    )
    for label in ("indexed", "linear"):
        key = f"dispatch_{label}"
        table.add(label, reductions[key], reductions[key] / rates[key], rates[key])
    speedup = entry["dispatch_speedup"]
    table.add("speedup", "", "", f"{speedup:.2f}x")
    emit(table)

    # Identical semantics: the ablation changes time, never the reductions.
    assert reductions["dispatch_indexed"] == reductions["dispatch_linear"]
    record("current", entry)

    # The acceptance bar for this optimisation is 1.5x over the seed's
    # linear interpreter; measured headroom is well above this conservative
    # in-tree guard (which only compares against the compiled linear scan).
    assert speedup > 1.2, f"indexing speedup collapsed: {speedup:.2f}x"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Record engine throughput.")
    parser.add_argument("--label", default="current")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    entry = measure(args.repeats)
    record(args.label, entry)
    print(json.dumps(entry, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
