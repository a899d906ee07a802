"""Measurement core: set-up probes, timed passes over a fixed job list,
drift compensation, the determinism guard, and the traced run.

What a job's time is
--------------------
The benchmark runs on shared virtual machines.  Two things move wall-clock
times there by tens of percent within minutes, and both are removed:

* **Stolen time.**  The hypervisor deschedules a virtual CPU; wall time
  runs on while the job makes no progress (``steal`` in ``/proc/stat``;
  20-50 % of a busy CPU at times on the 2-core host this was written on).
  The three single-process workloads are pure computation, so their job
  time is the process CPU time of the job, which excludes stolen time and
  equals wall time on an unshared host.  ``parallel-crunch`` runs in
  several processes, so its job time is wall time multiplied by the share
  of the machine's CPU time during the job that was not stolen.
* **Host speed.**  Contention for shared caches and cores changes how fast
  the CPU runs.  Right before every job (and inside every set-up probe) the
  harness times a fixed pure-Python reference loop in CPU time, and scales
  the job time by ``(REF_NOMINAL_S / ref) ** REF_EXPONENT``, where ``ref``
  is the median of the last five reference timings.  Regressing log(job
  CPU time) on log(reference CPU time) over 15-25 back-to-back passes of
  one job list in one process gave slopes of 1.0 (``sieve``) and 0.83
  (``cold-stack``).  ``parallel-crunch``, whose jobs also start worker
  processes and wait on pipes, follows the loop less closely.  Over ten
  runs per workload, exponents of 0.5 to 1.0 applied to the same
  recorded runs gave the smallest worst-case run-to-run spread at 0.65
  (``parallel-crunch`` alone is best near 0.5, the single-process
  workloads near 0.75).

Raw wall times are printed beside every compensated figure.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from workloads import ROOT, Job, Workload

#: What the reference loop takes on the host the benchmark was written on
#: (2-core x86-64 container, CPython 3.11).  Only the ratio matters.
REF_NOMINAL_S = 0.0012
REF_EXPONENT = 0.65
REF_ITERS = 3000
REF_WINDOW = 5  # reference timings in the rolling median
SETUP_PROBES = 9
TAIL_LADDER = (0.99, 0.95, 0.9, 0.75, 0.5)
MIN_BEYOND_TAIL = 10


class _Cell:
    __slots__ = ("value", "next")

    def __init__(self, value, nxt):
        self.value = value
        self.next = nxt


def reference_loop() -> float:
    """CPU seconds one run of a fixed object-allocating, dict- and
    call-heavy loop takes — the kinds of work the engine's interpreter does."""
    start = time.process_time()
    head = None
    table: dict[int, _Cell] = {}
    for i in range(REF_ITERS):
        head = _Cell(i, head if i & 63 else None)
        table[i & 127] = head
    return time.process_time() - start


class Reference:
    """Rolling median of recent reference-loop timings."""

    def __init__(self) -> None:
        self.recent: list[float] = []
        self.all: list[float] = []

    def sample(self) -> float:
        ref = reference_loop()
        self.all.append(ref)
        self.recent.append(ref)
        if len(self.recent) > REF_WINDOW:
            self.recent.pop(0)
        return statistics.median(self.recent)


def compensation(ref: float) -> float:
    """Factor turning a raw time into a drift-compensated one."""
    return (REF_NOMINAL_S / ref) ** REF_EXPONENT


# -- set-up --------------------------------------------------------------------

PROBE_CODE = """
import sys, time, json
sys.path[:0] = [{src!r}, {bench!r}]
from workloads import WORKLOADS
WORKLOADS[{name!r}].setup()
ready, cpu = time.perf_counter(), time.process_time()
from harness import reference_loop
refs = [reference_loop() for _ in range(5)]
refs.sort()
print(json.dumps({{"ready": ready, "cpu": cpu, "ref": refs[2]}}))
"""


def setup_probe(workload: Workload) -> tuple[float, float, float]:
    """One fresh interpreter until the workload's programs are parsed,
    motif-applied and compiled: its CPU seconds, its wall seconds, and its
    reference timing.  ``perf_counter`` is the system-wide monotonic clock
    on Linux, so the child's ready stamp is comparable with the parent's
    start."""
    code = PROBE_CODE.format(src=os.path.join(ROOT, "src"),
                             bench=os.path.dirname(os.path.abspath(__file__)),
                             name=workload.name)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    reply = json.loads(proc.stdout.strip().splitlines()[-1])
    return reply["cpu"], reply["ready"] - start, reply["ref"]


def measure_setup(workload: Workload) -> dict:
    raw, comp = [], []
    for _ in range(SETUP_PROBES):
        cpu, wall, ref = setup_probe(workload)
        raw.append(wall)
        comp.append(cpu * compensation(ref))
    return {"setup_s": statistics.median(comp), "raw_setup_s": statistics.median(raw),
            "probes": SETUP_PROBES}


# -- jobs and passes --------------------------------------------------------------

COUNT_FIELDS = ("reductions", "sends", "messages_dropped", "rel_retransmits",
                "rel_acks", "rel_unreachable")


def run_job(workload: Workload, state, job: Job) -> tuple[str, tuple]:
    """One job.  Returns ``(outcome, counts)``: outcome is ``"ok"``,
    ``"wrong"`` (an answer that differs from the reference), or the name of
    the typed error it raised."""
    from repro.errors import ReproError

    machine = workload.machine_of(job)
    try:
        value, metrics = workload.run(state, job, machine)
        outcome = "ok" if value == job.expected else "wrong"
    except ReproError as exc:
        outcome = type(exc).__name__
        metrics = machine.metrics()
    return outcome, tuple(getattr(metrics, f) for f in COUNT_FIELDS)


class Pass:
    """One pass over the fixed job list."""

    def __init__(self) -> None:
        self.outcomes: list[str] = []
        self.counts: list[tuple] = []
        self.raw: list[float] = []
        self.comp: list[float] = []
        self.wall = 0.0

    def signature(self) -> tuple:
        return tuple(self.outcomes), tuple(self.counts)


def machine_cpu_ticks() -> tuple[int, int]:
    """(busy, stolen) CPU ticks of the whole machine so far, from
    ``/proc/stat``; ``(0, 0)`` where it does not exist."""
    try:
        with open("/proc/stat") as handle:
            fields = [int(x) for x in handle.readline().split()[1:9]]
    except OSError:
        return 0, 0
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    return user + nice + system + irq + softirq, steal


def run_pass(workload: Workload, state, jobs: list[Job], ref: Reference) -> Pass:
    gc.collect()
    result = Pass()
    wall_clock, cpu_clock = time.perf_counter, time.process_time
    started = wall_clock()
    for job in jobs:
        scale = compensation(ref.sample())
        if workload.processes > 1:
            busy0, stolen0 = machine_cpu_ticks()
        start, cpu_start = wall_clock(), cpu_clock()
        outcome, counts = run_job(workload, state, job)
        raw, cpu = wall_clock() - start, cpu_clock() - cpu_start
        if workload.processes > 1:
            busy1, stolen1 = machine_cpu_ticks()
            busy, stolen = busy1 - busy0, stolen1 - stolen0
            job_time = raw * (1 - stolen / (busy + stolen)) if busy + stolen else raw
        else:
            job_time = cpu
        result.outcomes.append(outcome)
        result.counts.append(counts)
        result.raw.append(raw)
        result.comp.append(job_time * scale)
    result.wall = wall_clock() - started
    return result


def tail_quantile(samples: int) -> float:
    """The highest ladder quantile with at least ten samples beyond it."""
    for q in TAIL_LADDER:
        if round(samples * (1 - q)) >= MIN_BEYOND_TAIL:
            return q
    return 0.5


def quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def judge(workload: Workload, passes: list[Pass]) -> dict:
    """Failure accounting and the determinism guard.

    A wrong answer is always a failure.  A typed error is a failure on a
    fault-free workload; under injected faults it is the documented loud
    outcome and only lowers ``ok_frac``.  Every pass reruns identical
    seeded inputs, so every pass must reproduce the first one's per-job
    outcomes and counts exactly."""
    first = passes[0].signature()
    deterministic = all(p.signature() == first for p in passes[1:])
    outcomes = [o for p in passes for o in p.outcomes]
    wrong = outcomes.count("wrong")
    errors = sum(1 for o in outcomes if o not in ("ok", "wrong"))
    failed = wrong + (0 if workload.faults else errors)
    return {
        "attempted": len(outcomes),
        "failed": failed,
        "ok": outcomes.count("ok"),
        "errors": errors,
        "wrong": wrong,
        "deterministic": deterministic,
        "correct": deterministic and failed == 0,
    }


def source_digest() -> str:
    """Hash of every file under ``src/``: identifies the code measured
    where no git metadata exists."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fname in sorted(filenames):
            if fname.endswith(".pyc"):
                continue
            path = os.path.join(dirpath, fname)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_sha() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def host_metadata(ref: Reference) -> dict:
    return {
        "git_sha": git_sha(),
        "src_digest": source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "ref_nominal_s": REF_NOMINAL_S,
        "ref_exponent": REF_EXPONENT,
        "ref_median_s": statistics.median(ref.all) if ref.all else None,
    }


# -- the two kinds of run ---------------------------------------------------------

def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(workload: Workload, seed: int, seconds: float) -> tuple[dict, dict, dict]:
    """Untraced run: end-to-end metrics and detail."""
    setup = measure_setup(workload)
    jobs = workload.jobs(seed)
    state = workload.setup()
    ref = Reference()
    passes: list[Pass] = []
    rss = None
    started = time.perf_counter()
    while True:
        passes.append(run_pass(workload, state, jobs, ref))
        if rss is None:
            rss = peak_rss_mb()
        elapsed = time.perf_counter() - started
        if elapsed + passes[-1].wall / 2 >= seconds:
            break
    verdict = judge(workload, passes)
    comp = [t for p in passes for t in p.comp]
    raw = [t for p in passes for t in p.raw]
    tail_q = tail_quantile(len(jobs))
    reductions = sum(c[0] for p in passes for c in p.counts)
    metrics = {
        "setup_s": _metric(setup["setup_s"], "s"),
        "job_s.p50": _metric(statistics.median(comp), "s"),
        "job_s.tail": _metric(quantile(comp, tail_q), "s"),
        "reductions_per_s": _metric(reductions / sum(comp), "1/s"),
        "peak_rss_mb": _metric(rss, "MB"),
        "ok_frac": _metric(verdict["ok"] / verdict["attempted"], "ratio"),
    }
    detail = {
        "workload": workload.name,
        "seed": seed,
        "jobs_per_pass": len(jobs),
        "passes": len(passes),
        "tail_quantile": tail_q,
        "tail_samples": len(comp),
        "raw": {
            "setup_s": setup["raw_setup_s"],
            "job_s.p50": statistics.median(raw),
            "job_s.tail": quantile(raw, tail_q),
            "reductions_per_s": reductions / sum(raw),
            "wall_s": time.perf_counter() - started,
        },
        "setup_probes": setup["probes"],
        "reductions_per_pass": sum(c[0] for c in passes[0].counts),
        "verdict": verdict,
        "host": host_metadata(ref),
    }
    return metrics, detail, verdict


def measure_traced(workload: Workload, seed: int) -> tuple[dict, dict, dict]:
    """Traced run: per-layer metrics.  Order: set-up (traced), one untraced
    pass, one traced pass, restore every entry point, one more untraced
    pass.  All three passes must agree on every per-job count."""
    from layers import LayerTracer, find_wrapped
    from repro.core.motif import MOTIF_STATS
    from repro.strand.compile import COMPILE_STATS

    jobs = workload.jobs(seed)
    ref = Reference()
    tracer = LayerTracer()
    stats = {"motif": dict.fromkeys(MOTIF_STATS, 0), "compile": dict.fromkeys(COMPILE_STATS, 0)}

    def traced_phase(fn):
        """Run ``fn`` with every entry point wrapped; add the motif and
        compile cache counters it moved to ``stats``."""
        motif0, compile0 = dict(MOTIF_STATS), dict(COMPILE_STATS)
        tracer.install()
        try:
            return fn()
        finally:
            tracer.restore()
            for key in MOTIF_STATS:
                stats["motif"][key] += MOTIF_STATS[key] - motif0[key]
            for key in COMPILE_STATS:
                stats["compile"][key] += COMPILE_STATS[key] - compile0[key]

    state = traced_phase(workload.setup)
    before = run_pass(workload, state, jobs, ref)
    traced = traced_phase(lambda: run_pass(workload, state, jobs, ref))
    after = run_pass(workload, state, jobs, ref)
    motif, compiled = stats["motif"], stats["compile"]
    passes = [before, traced, after]
    verdict = judge(workload, passes)

    metrics = layer_metrics(tracer.spans, motif, compiled, traced)
    # Ratios of summed job times, which are corrected for stolen time and
    # host drift; the detail line keeps the raw pass wall times.
    metrics["trace.overhead"] = _metric(sum(traced.comp) / sum(before.comp), "ratio")
    metrics["trace.after_ratio"] = _metric(sum(after.comp) / sum(before.comp), "ratio")
    parallel = {}
    if workload.name == "parallel-crunch":
        parallel = parallel_probe(workload, state, jobs, before, tracer.spans)
    for key in PARALLEL_KEYS:
        metrics[key] = _metric(parallel.get(key, 0.0), PARALLEL_KEYS[key])
    detail = {
        "workload": workload.name,
        "seed": seed,
        "jobs_per_pass": len(jobs),
        "untraced_wall_s": before.wall,
        "traced_wall_s": traced.wall,
        "untraced_after_wall_s": after.wall,
        "still_wrapped": find_wrapped(),
        "motif_stats": motif,
        "compile_stats": compiled,
        "verdict": verdict,
        "host": host_metadata(ref),
    }
    verdict["correct"] = verdict["correct"] and not detail["still_wrapped"]
    return metrics, detail, verdict


MOTIF_STAGES = ("tree1", "termination", "rand", "server", "reliable", "tree-reduce")

PARALLEL_KEYS = {
    "parallel.startup_s": "s",
    "parallel.run_s": "s",
    "parallel.wire.self_s": "s",
    "parallel.seq_job_s": "s",
    "parallel.speedup": "ratio",
}


def layer_metrics(spans, motif: dict, compiled: dict, traced: Pass) -> dict:
    s, calls, raised = spans.self_s, spans.calls, spans.raised
    m = {
        "parse.self_s": _metric(s["parse"], "s"),
        "parse.calls": _metric(calls["parse"], "count"),
        "motif.apply.self_s": _metric(
            sum(v for k, v in s.items() if k.startswith("motif.")), "s"),
    }
    other = sum(v for k, v in s.items() if k.startswith("motif.apply.")
                and k[len("motif.apply."):] not in MOTIF_STAGES)
    for stage in MOTIF_STAGES:
        m[f"motif.apply.{stage}.self_s"] = _metric(s[f"motif.apply.{stage}"], "s")
    m["motif.apply.other.self_s"] = _metric(other, "s")
    m["motif.apply.hit_ratio"] = _metric(
        motif["apply_hits"] / motif["apply_calls"] if motif["apply_calls"] else 0.0, "ratio")
    lib_total = motif["library_hits"] + motif["library_parses"]
    m["motif.library.hit_ratio"] = _metric(
        motif["library_hits"] / lib_total if lib_total else 0.0, "ratio")
    m["compile.self_s"] = _metric(s["compile"], "s")
    m["compile.programs"] = _metric(compiled["programs"], "count")
    m["compile.rules"] = _metric(compiled["rules"], "count")
    compile_total = compiled["programs"] + compiled["hits"]
    m["compile.hit_ratio"] = _metric(
        compiled["hits"] / compile_total if compile_total else 0.0, "ratio")

    user = calls["reducer.user"] - raised["reducer.user"]
    builtin = calls["builtins"] - raised["builtins"]
    foreign = calls["foreign"] - raised["foreign"]
    committed = user + builtin + foreign
    m.update({
        "scheduler.self_s": _metric(s["scheduler"], "s"),
        "reducer.dispatch.self_s": _metric(s["reducer.dispatch"], "s"),
        "reducer.user.self_s": _metric(s["reducer.user"], "s"),
        "reducer.user.reductions": _metric(user, "count"),
        "reducer.suspensions": _metric(
            sum(raised[k] for k in ("reducer.user", "builtins", "foreign")), "count"),
        "builtins.self_s": _metric(s["builtins"], "s"),
        "builtins.calls": _metric(calls["builtins"], "count"),
        "reducer.builtin_share": _metric(builtin / committed if committed else 0.0, "ratio"),
        "foreign.self_s": _metric(s["foreign"], "s"),
        "foreign.calls": _metric(calls["foreign"], "count"),
        "engine.spawn.self_s": _metric(s["engine.spawn"], "s"),
        "engine.spawns": _metric(calls["engine.spawn"], "count"),
        "engine.bind.self_s": _metric(s["engine.bind"], "s"),
        "engine.port_send.self_s": _metric(s["engine.port_send"], "s"),
    })
    named = {f: sum(c[i] for c in traced.counts) for i, f in enumerate(COUNT_FIELDS)}
    m.update({
        "machine.reductions": _metric(named["reductions"], "count"),
        "machine.messages": _metric(named["sends"], "count"),
        "faults.messages_dropped": _metric(named["messages_dropped"], "count"),
        "reliable.retransmits": _metric(named["rel_retransmits"], "count"),
        "reliable.acks": _metric(named["rel_acks"], "count"),
        "reliable.unreachable": _metric(named["rel_unreachable"], "count"),
    })
    return m


def parallel_probe(workload: Workload, program, jobs: list[Job], untraced: Pass,
                   spans) -> dict:
    """Parent-side view of the parallel backend: pool start-up on a trivial
    query, the traced pass's time in ``run_parallel`` and the wire codec,
    and the first jobs again on the sequential backend."""
    from repro.strand import parse_program
    from workloads import engine_run

    trivial = parse_program("go(X) :- X := 1.\n", name="trivial")
    startup = []
    for _ in range(3):
        machine = workload.machine_of(jobs[0])
        start = time.perf_counter()
        engine_run(trivial, "go", (), machine)
        startup.append(time.perf_counter() - start)
    sample = jobs[:5]
    seq = []
    for job in sample:
        machine = workload.machine_of(job, backend="sequential")
        start = time.perf_counter()
        value, _ = workload.run(program, job, machine)
        seq.append(time.perf_counter() - start)
        if value != job.expected:
            raise RuntimeError("sequential twin disagrees with the reference")
    seq_job = statistics.median(seq)
    return {
        "parallel.startup_s": statistics.median(startup),
        "parallel.run_s": spans.self_s["parallel.run"] + spans.self_s["parallel.wire"],
        "parallel.wire.self_s": spans.self_s["parallel.wire"],
        "parallel.seq_job_s": seq_job,
        "parallel.speedup": seq_job / statistics.median(untraced.raw[:len(sample)]),
    }
