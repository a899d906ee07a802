"""Self-test of the benchmark: its inputs and counts are functions of the seed.

    python3 motifbench/selftest.py

For every workload it checks that

* one seed gives the same job list twice, and another seed changes it;
* two fresh interpreters running the first jobs of one seed's list report
  identical outcomes, ``ok_frac`` and per-job counts;
* the layer tracer leaves no entry point wrapped, and a traced pass and the
  untraced pass after it reproduce the untraced counts;
* ``run.py`` prints exactly the metrics ``BENCHMARK.json`` declares, with
  their units, in both modes.

Prints one line per check and exits 1 if any fails.
"""

import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
PREFIX = {"parallel-crunch": 2, "lossy-tree": 40}  # jobs per check; default below
DEFAULT_PREFIX = 8
SEED = 7


def signature(name: str, seed: int) -> dict:
    """Outcomes and counts of the first jobs of ``seed``'s list, run once
    untraced, once traced, once untraced again."""
    from harness import Reference, run_pass
    from layers import LayerTracer, find_wrapped
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    jobs = workload.jobs(seed)[:PREFIX.get(name, DEFAULT_PREFIX)]
    state = workload.setup()
    ref = Reference()
    untraced = run_pass(workload, state, jobs, ref)
    tracer = LayerTracer().install()
    try:
        traced = run_pass(workload, state, jobs, ref)
    finally:
        tracer.restore()
    after = run_pass(workload, state, jobs, ref)
    return {
        "outcomes": untraced.outcomes,
        "ok_frac": untraced.outcomes.count("ok") / len(jobs),
        "counts": [list(c) for c in untraced.counts],
        "traced_matches": traced.signature() == untraced.signature(),
        "after_matches": after.signature() == untraced.signature(),
        "still_wrapped": find_wrapped(),
    }


def fresh_signature(name: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--signature", name, str(seed)],
        capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"signature run failed for {name}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def printed_metrics(trace: int) -> dict:
    """Metric name -> unit from one short ``run.py`` run of ``lossy-tree``."""
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "lossy-tree",
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"run.py --trace {trace} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: m["unit"] for name, m in result["metrics"].items()}


def main() -> int:
    from workloads import WORKLOADS

    failures = 0

    def check(ok: bool, what: str) -> None:
        nonlocal failures
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {what}")

    for name, workload in WORKLOADS.items():
        same = workload.jobs(SEED) == workload.jobs(SEED)
        check(same, f"{name}: one seed gives one job list")
        check(workload.jobs(SEED) != workload.jobs(SEED + 1),
              f"{name}: another seed changes the job list")
        first, second = fresh_signature(name, SEED), fresh_signature(name, SEED)
        check(first["outcomes"] == second["outcomes"]
              and first["ok_frac"] == second["ok_frac"]
              and first["counts"] == second["counts"],
              f"{name}: two runs of one seed agree on outcomes, ok_frac and counts "
              f"(ok_frac {first['ok_frac']:.3f})")
        check(first["traced_matches"] and first["after_matches"],
              f"{name}: traced and later untraced passes reproduce the counts")
        check(not first["still_wrapped"], f"{name}: every wrapped entry point restored")
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in declared[key]}
        check(printed_metrics(trace) == want,
              f"--trace {trace} prints exactly the {key} metrics of BENCHMARK.json")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.path[:0] = [SRC, BENCH]
    if len(sys.argv) == 4 and sys.argv[1] == "--signature":
        print(json.dumps(signature(sys.argv[2], int(sys.argv[3]))))
        sys.exit(0)
    sys.exit(main())
