"""Repository benchmark entry point.

    python3 motifbench/run.py --workload sieve --seed 1 --seconds 20 --trace 0

Prints human-readable lines, then one JSON detail line (raw wall times,
host metadata, verdict), then, as the last line, the result object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` a separate traced run's per-layer
metrics.  See ``motifbench/README.md``.

The parallel backend starts its workers with the ``spawn`` method, which
re-imports this file as ``__mp_main__`` in every worker: keep the module
top level to the standard library and the work under the ``__main__``
guard.
"""

import argparse
import json
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")


def reap_children() -> None:
    """Stop and wait for every process the run started.

    The parallel backend's worker pools join their workers, but starting a
    ``spawn`` worker also launches multiprocessing's resource tracker, which
    is meant to outlive its parent and is never waited for.  Stop it here
    (closing its pipe ends it) and reap it, so nothing is left running or
    unreaped when the benchmark exits."""
    import multiprocessing

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is None:
        return
    # ``_stop`` is private; where it is missing, close the tracker's pipe
    # and wait for its process by hand.
    state = tracker._resource_tracker
    if hasattr(state, "_stop"):
        state._stop()
    elif getattr(state, "_fd", None) is not None:
        os.close(state._fd)
        state._fd = None
        if state._pid is not None:
            os.waitpid(state._pid, 0)
            state._pid = None
    # Anything else this process started and did not wait for.
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            break


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"benchmark: no runtime sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, BENCH]
    from harness import measure, measure_traced
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            metrics, detail, verdict = measure_traced(workload, args.seed)
        else:
            metrics, detail, verdict = measure(workload, args.seed, args.seconds)
    finally:
        reap_children()
    for name, metric in metrics.items():
        print(f"{workload.name:16s} {name:32s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(detail))
    print(json.dumps({
        "correct": verdict["correct"],
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
