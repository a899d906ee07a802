"""Parallel backend: equivalence with the sequential backend, determinism,
and the pinned NotImplementedError surface.

Equivalence here means *result values*: for confluent programs (answers
independent of message-arrival races) the parallel backend must compute
exactly what the sequential backend computes for the same seed and program.
Virtual-time metrics and trace interleavings are allowed to differ — the
shards advance their clocks independently between epoch barriers.
"""

import os
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.errors import (
    DeadlockError,
    DoubleAssignmentError,
    MachineError,
    StrandError,
    WorkerError,
)
from repro.machine import Machine, parallel
from repro.machine.faults import FaultPlan
from repro.machine.parallel import EPOCH_REDUCTIONS, shard_of
from repro.machine.profile import MotifProfile
from repro.strand import parse_program, run_query
from repro.strand.foreign import ForeignRegistry

SPREAD = """
go(N, Out) :- spread(N, Out).
spread(0, Out) :- Out := [].
spread(N, Out) :- N > 0 |
    Out := [V | Rest],
    work(N, V) @ N,
    N1 := N - 1,
    spread(N1, Rest).
work(N, V) :- V := N * N.
"""

FAN = """
go(N, Out) :- open_port(P, S), collect(S, Out), fan(N, P).
fan(0, _P).
fan(N, P) :- N > 0 |
    send_port(P, v(N)) @ N,
    N1 := N - 1,
    fan(N1, P).
collect([v(X) | Rest], Out) :- Out := [X | Out1], collect(Rest, Out1).
collect([], Out) :- Out := [].
"""

SERVICES = (("collect", 2),)


def run_spread(machine, n=12):
    return run_query(parse_program(SPREAD), f"go({n}, Out)", machine=machine)


def run_fan(machine, n=9):
    return run_query(parse_program(FAN), f"go({n}, Out)", machine=machine,
                     services=SERVICES)


class TestEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_dataflow_matches_sequential(self, workers):
        seq = run_spread(Machine(4, seed=7))
        par = run_spread(Machine(4, seed=7, backend="parallel",
                                 workers=workers))
        assert par.value("Out") == seq.value("Out")
        assert par.metrics.reductions == seq.metrics.reductions

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_seed_sweep(self, seed):
        seq = run_spread(Machine(5, seed=seed), n=15)
        par = run_spread(Machine(5, seed=seed, backend="parallel", workers=2),
                         n=15)
        assert par.value("Out") == seq.value("Out")

    def test_ports_match_sequential(self):
        # Cross-shard port sends land in deterministic but shard-dependent
        # splice order, so compare as multisets.
        seq = run_fan(Machine(3, seed=1))
        par = run_fan(Machine(3, seed=1, backend="parallel", workers=3))
        assert sorted(par.value("Out")) == sorted(seq.value("Out"))

    def test_epoch_window_mode(self):
        seq = run_fan(Machine(3, seed=1))
        par = run_fan(Machine(3, seed=1, backend="parallel", workers=2,
                              epoch_window=2.0))
        assert sorted(par.value("Out")) == sorted(seq.value("Out"))

    def test_reduce_tree_parallel_backend(self):
        from repro.apps.trees import balanced_tree, sequential_reduce
        from repro.core.api import reduce_tree

        tree = balanced_tree(4, lambda rng: "add",
                             lambda rng: rng.randint(1, 9))
        expected = sequential_reduce(tree, lambda op, lv, rv: lv + rv)
        evaluator = "eval(add, L, R, V) :- V := L + R."
        seq = reduce_tree(tree, evaluator, processors=4, seed=2)
        par = reduce_tree(tree, evaluator, processors=4, seed=2,
                          backend="parallel", workers=2)
        assert seq.value == expected
        assert par.value == expected


class TestDeterminism:
    def test_repeated_runs_identical(self):
        results = [
            run_fan(Machine(3, seed=5, backend="parallel", workers=3))
            for _ in range(2)
        ]
        assert results[0].value("Out") == results[1].value("Out")
        assert (results[0].metrics.reductions
                == results[1].metrics.reductions)
        assert results[0].metrics.sends == results[1].metrics.sends

    def test_trace_merge_is_ordered(self):
        machine = Machine(3, seed=1, backend="parallel", workers=2,
                          trace=True)
        run_fan(machine, n=6)
        eids = [ev.eid for ev in machine.trace.events]
        assert eids == sorted(eids)
        assert len(set(eids)) == len(eids)
        times = [ev.time for ev in machine.trace.events]
        assert times == sorted(times)


class TestErrors:
    def test_deadlock_reported_across_shards(self):
        src = "go(Out) :- wait(X, Out).\nwait(done, Out) :- Out := yes."
        with pytest.raises(DeadlockError, match="1 suspended"):
            run_query(parse_program(src), "go(Out)",
                      machine=Machine(2, seed=0, backend="parallel",
                                      workers=2))

    def test_cross_shard_double_assignment(self):
        src = """
        go(X) :- a(X) @ 1, b(X) @ 2.
        a(X) :- X := 1.
        b(X) :- X := 2.
        """
        with pytest.raises(DoubleAssignmentError):
            run_query(parse_program(src), "go(X)",
                      machine=Machine(2, seed=0, backend="parallel",
                                      workers=2))


class TestUnsupportedLayers:
    def test_faults_raise_not_implemented(self):
        with pytest.raises(
            NotImplementedError,
            match="fault injection is not supported on the parallel backend",
        ):
            Machine(4, backend="parallel", workers=2,
                    faults=FaultPlan(crash_rate=0.5))

    def test_profile_raises_not_implemented(self):
        with pytest.raises(
            NotImplementedError,
            match="per-motif profiling is not supported on the parallel "
                  "backend",
        ):
            run_query(parse_program(SPREAD), "go(4, Out)",
                      machine=Machine(2, backend="parallel", workers=2),
                      profile=MotifProfile())

    @pytest.mark.parametrize("layer", ["supervise", "reliable"])
    def test_timer_layers_raise_not_implemented(self, layer):
        # Workers run ahead of cross-shard deliveries between barriers, so
        # a virtual timer fires before the result it guards arrives: run
        # anyway, the Supervise stack answers 0 instead of 24 here.
        from repro.apps.arithmetic import EVAL_SOURCE, paper_example_tree
        from repro.core.api import Reliable, Supervise, reduce_tree

        layers = ({"supervise": Supervise()} if layer == "supervise"
                  else {"reliable": Reliable()})
        with pytest.raises(
            NotImplementedError,
            match=r"virtual timers \(after/2\) are not supported on the "
                  r"parallel backend",
        ):
            reduce_tree(paper_example_tree(), EVAL_SOURCE,
                        machine=Machine(4, seed=2, backend="parallel",
                                        workers=2),
                        **layers)

    def test_python_foreign_raises_not_implemented(self):
        # Python-callable evaluators register closures in the foreign
        # registry; closures cannot be shipped to worker processes.
        from repro.apps.trees import balanced_tree
        from repro.core.api import reduce_tree

        tree = balanced_tree(2, lambda rng: "add", lambda rng: 1)
        with pytest.raises(NotImplementedError, match="not picklable"):
            reduce_tree(tree, lambda op, lv, rv: lv + rv,
                        processors=4, backend="parallel", workers=2)


class TestConfiguration:
    def test_unknown_backend_rejected(self):
        with pytest.raises(MachineError, match="unknown backend"):
            Machine(2, backend="threads")

    def test_workers_require_parallel_backend(self):
        with pytest.raises(MachineError, match="workers="):
            Machine(2, workers=2)

    def test_workers_capped_at_processors(self):
        machine = Machine(3, backend="parallel", workers=8)
        assert machine.workers == 3

    def test_epoch_window_must_be_positive(self):
        with pytest.raises(MachineError, match="epoch_window"):
            Machine(2, backend="parallel", epoch_window=-1.0)

    def test_shard_mapping_round_robin(self):
        owners = [shard_of(p, 3) for p in range(1, 8)]
        assert owners == [0, 1, 2, 0, 1, 2, 0]

    def test_sequential_machine_has_no_workers(self):
        assert Machine(4).workers is None


class TestCli:
    def test_run_backend_parallel(self, tmp_path, capsys):
        from repro.cli import main

        source = tmp_path / "spread.str"
        source.write_text(SPREAD)
        code = main(["run", str(source), "go(6, Out)", "-P", "3",
                     "--backend", "parallel", "--workers", "2", "--quiet"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Out = [36, 25, 16, 9, 4, 1]" == out.strip().splitlines()[-1]


def fresh_pool():
    """Drop the cached worker pool so the next run starts a new one."""
    parallel._shutdown_idle_pool()


def idle_pids():
    return [proc.pid for proc in parallel._idle_pool.procs]


def outcome(result):
    return (result.value("Out"), result.metrics.reductions,
            result.metrics.sends)


class TestPoolReuse:
    def test_reused_pool_matches_fresh_pool(self):
        def spread():
            return run_spread(Machine(4, seed=7, backend="parallel",
                                      workers=2))

        def fan():
            return run_fan(Machine(3, seed=5, backend="parallel", workers=2))

        fresh = []
        for run in (spread, fan):
            fresh_pool()
            fresh.append(outcome(run()))
        fresh_pool()
        reused = [outcome(run()) for run in (spread, fan, spread)]
        assert reused == [fresh[0], fresh[1], fresh[0]]

    def test_traced_run_after_untraced_run(self):
        def traced():
            machine = Machine(3, seed=1, backend="parallel", workers=2,
                              trace=True)
            run_fan(machine, n=6)
            return list(machine.trace.events)

        fresh_pool()
        expected = traced()
        fresh_pool()
        run_fan(Machine(3, seed=1, backend="parallel", workers=2), n=6)
        assert traced() == expected

    def test_consecutive_runs_share_workers(self):
        run_spread(Machine(4, seed=7, backend="parallel", workers=2))
        first = idle_pids()
        run_spread(Machine(4, seed=7, backend="parallel", workers=2))
        assert idle_pids() == first

    def test_worker_count_change_replaces_pool(self):
        run_spread(Machine(4, seed=7, backend="parallel", workers=2))
        assert len(idle_pids()) == 2
        run_spread(Machine(4, seed=7, backend="parallel", workers=3))
        assert len(idle_pids()) == 3

    def test_exiting_process_leaves_no_workers(self, tmp_path):
        script = tmp_path / "one_query.py"
        script.write_text(textwrap.dedent("""
            from repro.machine import Machine, parallel
            from repro.strand import parse_program, run_query

            if __name__ == "__main__":
                program = parse_program("go(X, Y) :- X := 1, y(Y) @ 2.\\n"
                                        "y(Y) :- Y := 2.\\n")
                result = run_query(program, "go(X, Y)",
                                   machine=Machine(2, backend="parallel",
                                                   workers=2))
                assert (result.value("X"), result.value("Y")) == (1, 2)
                print(*(proc.pid for proc in parallel._idle_pool.procs))
        """))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run([sys.executable, str(script)], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        pids = [int(pid) for pid in done.stdout.split()]
        assert len(pids) == 2
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


def die_in_worker(_x):
    os._exit(7)


class TestWorkerFailure:
    def test_killed_idle_worker(self):
        fresh_pool()
        run_spread(Machine(4, seed=7, backend="parallel", workers=2))
        victim = idle_pids()[1]
        os.kill(victim, signal.SIGKILL)
        try:
            value = run_spread(Machine(4, seed=7, backend="parallel",
                                       workers=2)).value("Out")
        except WorkerError as exc:
            assert "worker 1" in str(exc)
        else:
            assert value == run_spread(Machine(4, seed=7)).value("Out")
        # Either way the next run is served by a healthy pool.
        result = run_spread(Machine(4, seed=7, backend="parallel", workers=2))
        assert result.value("Out") == run_spread(Machine(4, seed=7)).value("Out")
        assert victim not in idle_pids()

    def test_worker_death_mid_run_is_typed(self):
        foreign = ForeignRegistry()
        foreign.register("die", 2, die_in_worker)
        program = parse_program("go(Y) :- die(1, Y) @ 2.")
        with pytest.raises(WorkerError, match="worker 1") as info:
            run_query(program, "go(Y)", foreign=foreign,
                      machine=Machine(2, backend="parallel", workers=2))
        assert info.value.shard == 1
        assert parallel._idle_pool is None  # the broken pool was dropped
        result = run_spread(Machine(4, seed=7, backend="parallel", workers=2))
        assert result.value("Out") == run_spread(Machine(4, seed=7)).value("Out")


RUNAWAY = """
go :- loop(0) @ 1, loop(0) @ 2.
loop(N) :- N1 := N + 1, loop(N1).
"""


COUNTDOWNS = """
go :- loop(3000) @ 1, loop(3000) @ 2.
loop(0).
loop(N) :- N > 0 | N1 := N - 1, loop(N1).
"""


class TestGlobalReductionLimit:
    LIMIT = 20_000

    def test_sequential_message(self):
        with pytest.raises(StrandError, match=f"reduction budget of "
                           f"{self.LIMIT} exhausted"):
            run_query(parse_program(RUNAWAY), "go", machine=Machine(2),
                      max_reductions=self.LIMIT)

    def test_runaway_split_across_workers(self, monkeypatch):
        counts = []
        command = parallel._WorkerPool.command

        def recording(pool, targets, cmd, payloads):
            replies = command(pool, targets, cmd, payloads)
            if cmd == "epoch":
                counts.append({w: reply[2]
                               for w, reply in zip(targets, replies)})
            return replies

        monkeypatch.setattr(parallel._WorkerPool, "command", recording)
        with pytest.raises(StrandError) as info:
            run_query(parse_program(RUNAWAY), "go",
                      machine=Machine(2, backend="parallel", workers=2),
                      max_reductions=self.LIMIT)
        assert str(info.value) == (f"reduction budget of {self.LIMIT} "
                                   "exhausted (possible runaway recursion)")
        latest: dict = {}
        for reply in counts:
            latest.update(reply)
        assert set(latest) == {0, 1}  # both workers ran the loop
        total = sum(latest.values())
        assert self.LIMIT < total <= self.LIMIT + EPOCH_REDUCTIONS

    def test_limit_is_not_per_worker(self):
        # Each shard's loop fits under the limit; the two together do not.
        program = parse_program(COUNTDOWNS)
        for options in ({}, {"backend": "parallel", "workers": 2}):
            with pytest.raises(StrandError, match="reduction budget"):
                run_query(program, "go", machine=Machine(2, **options),
                          max_reductions=9_000)
            result = run_query(program, "go", machine=Machine(2, **options),
                               max_reductions=20_000)
            assert result.metrics.reductions > 9_000
