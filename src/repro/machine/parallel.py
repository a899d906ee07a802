"""Parallel execution backend: shard the virtual processors across OS
worker processes.

The sequential backend simulates all ``P`` virtual processors in one Python
process; this module executes the same simulation on real hardware
parallelism.  Processor ``p`` is owned by worker ``(p - 1) % workers``; each
worker process hosts a full :class:`~repro.strand.engine.StrandEngine` (its
own scheduler, reducer, and compiled program) but only ever runs processes
placed on its owned processors.

Synchronization is a BSP-style epoch protocol driven by the parent process:

1. every worker drains its local event heap — to local quiescence, or with
   ``Machine(epoch_window=...)`` up to a conservative global time horizon —
   but for at most :data:`EPOCH_REDUCTIONS` reduction attempts, buffering
   every cross-shard effect in an *outbox*;
2. at the barrier the parent routes outboxes to inboxes: remote spawns to
   the destination's owner, port messages to the port's owner, variable
   bindings broadcast to every other shard (and applied to the parent's own
   replicas, which is how query variables receive their answers);
3. each worker applies its inbox in a deterministic order — sorted by
   ``(virtual send time, source shard, per-shard message sequence)`` — and
   the next epoch begins.  A worker that stopped on its reduction budget
   still has runnable work and takes part in the next epoch.

The reduction budget is what lets shards overlap.  Without it, the shard
holding the query runs its whole share of a fan-out before any other shard
receives a single spawn, so the shards take turns instead of running side
by side.  The budget counts reductions, not wall time, so where epochs end
— and with it every result and counter — stays deterministic.

Workers live in a pool that outlasts a run.  The pool starts lazily on the
first parallel run (never at import); one idle pool is cached in this
module, and a run takes it out of the cache for its duration, so a nested
or concurrent run starts its own.  The pool goes back to the cache when the
run ends with every command answered — including runs that end in a Strand
error such as a deadlock — and is discarded if a worker died or a command
was interrupted half way; a cached pool whose worker count differs from the
one requested is replaced.  The ``init`` command rebuilds all per-worker
state (program, machine, RNG stream, variable names), so nothing carries
over between runs.  The idle pool is shut down at interpreter exit.

Cross-shard data travels as a flat, iterative *wire encoding* (see
:func:`freeze`/:func:`thaw`) so 100k-element lists neither recurse the
interpreter nor the pickler.  Variables that cross a shard boundary get a
global id ``(shard, counter)`` and exist as replicas on every shard that has
seen them; binding any replica broadcasts the value, and the engine's
suppression flag keeps an applied binding from echoing back out.  Ports are
replicated as send-only stubs: a stub send is shipped to the owning shard,
which splices it into the real stream with the original sender and send
time, so delivery latency and wake accounting match the sequential backend.

Guarantees and limits
---------------------
* Same seed, same program: the parallel backend computes the same *result
  values* as the sequential backend for confluent programs (anything whose
  answer does not depend on message-arrival races).  Virtual-time metrics
  and trace interleavings are not byte-identical: ``rand_num`` draws come
  from per-worker RNG streams, and each worker advances its shard's clocks
  independently between barriers.  With ``epoch_window`` at most the
  minimum cross-processor latency, cross-shard delivery is additionally
  causally ordered (no shard runs past a time before all messages for it
  have arrived), which extends the equivalence to time-racy programs.
* Repeated parallel runs with the same seed and worker count are
  deterministic.
* Fault injection (``Machine(faults=...)``) and per-motif profiling
  (``profile=``) raise :class:`NotImplementedError` on this backend.
* ``max_reductions`` is global: workers report their reduction attempts at
  every barrier, the parent shrinks the next epoch's budgets as the sum
  nears the limit, and raises the sequential engine's error once the sum
  passes it.
* A worker that dies or stops answering raises
  :class:`~repro.errors.WorkerError` naming its shard; its pool is
  discarded and the next run starts a fresh one.
* Merged output (``write/1``) is grouped by shard, not interleaved by
  virtual time; cross-shard trace events carry no causal link across the
  epoch barrier.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
import threading
import traceback

from repro import errors as _errors
from repro.errors import DeadlockError, StrandError, WorkerError
from repro.machine.metrics import MachineMetrics
from repro.machine.processor import VirtualProcessor
from repro.strand.scheduler import reduction_limit_error

__all__ = ["run_parallel", "shard_of", "freeze", "thaw", "WireContext",
           "EPOCH_REDUCTIONS"]

#: Shard id the coordinating parent uses in global variable ids.
PARENT_SHARD = -1

#: Reduction attempts a worker may make in one epoch before it returns to
#: the barrier.  Median job time of the repository benchmark's
#: ``parallel-crunch`` workload (2 workers, 2-vCPU x86-64 host, two seeds):
#: 250 → 0.134 s, 500 → 0.122 s, 1000 → 0.124 s, 2000 → 0.138 s,
#: 4000 → 0.154 s, no budget → 0.197 s.
EPOCH_REDUCTIONS = 500


def shard_of(proc: int, workers: int) -> int:
    """Owner worker of 1-based virtual processor ``proc``."""
    return (proc - 1) % workers


# --------------------------------------------------------------------------
# Wire format: flat, iterative term encoding
# --------------------------------------------------------------------------

class WireContext:
    """Per-process tables mapping local terms to global wire ids.

    ``vid_to_var`` / ``var_vids`` track variables that crossed a shard
    boundary (vid = ``(origin shard, counter)``); ``gid_ports`` /
    ``port_gids`` do the same for ports.  Both directions are kept so every
    registered object stays referenced — ``id()`` keys would otherwise be
    reused after garbage collection.
    """

    def __init__(self, shard_id: int):
        self.id = shard_id
        self.counter = 0
        self.vid_to_var: dict[tuple, object] = {}
        self.var_vids: dict[int, tuple] = {}
        self.gid_ports: dict[tuple, object] = {}
        self.port_gids: dict[int, tuple] = {}

    def vid_for(self, var) -> tuple:
        vid = self.var_vids.get(id(var))
        if vid is None:
            self.counter += 1
            vid = (self.id, self.counter)
            self.var_vids[id(var)] = vid
            self.vid_to_var[vid] = var
        return vid

    def replica(self, vid: tuple, name: str):
        from repro.strand.terms import Var

        var = self.vid_to_var.get(vid)
        if var is None:
            var = Var(name)
            self.vid_to_var[vid] = var
            self.var_vids[id(var)] = vid
        return var

    def port_gid(self, port) -> tuple:
        gid = self.port_gids.get(id(port))
        if gid is None:
            self.counter += 1
            gid = (self.id, self.counter)
            self.port_gids[id(port)] = gid
            self.gid_ports[gid] = port
        return gid

    def port_replica(self, gid: tuple, owner: int, label: str):
        from repro.strand.streams import PortRef
        from repro.strand.terms import Var

        port = self.gid_ports.get(gid)
        if port is None:
            port = PortRef(Var("StubTail"), owner, label=label)
            self.gid_ports[gid] = port
            self.port_gids[id(port)] = gid
        return port


def freeze(term, ctx: WireContext) -> list:
    """Encode a term as a flat post-order op list (picklable at any depth).

    Unbound variables are encoded by global id (registering them in ``ctx``
    if new); bound variables are dereferenced through, so a value never
    crosses the wire as a variable.  Ports become global-id references.
    """
    from repro.strand.streams import PortRef
    from repro.strand.terms import Atom, Cons, Struct, Tup, Var, deref

    ops: list = []
    work: list = [term]
    while work:
        item = work.pop()
        if type(item) is tuple:
            # Rebuild markers double as wire ops: they surface after their
            # node's children, yielding the post-order the decoder expects.
            ops.append(item)
            continue
        t = deref(item)
        tt = type(t)
        if tt is Var:
            ops.append(("v", ctx.vid_for(t), t.name))
        elif tt is Atom:
            ops.append(("a", t.name))
        elif tt is Cons:
            work.append(("cons",))
            work.append(t.tail)
            work.append(t.head)
        elif tt is Struct:
            work.append(("s", t.functor, len(t.args)))
            work.extend(reversed(t.args))
        elif tt is Tup:
            work.append(("u", len(t.args)))
            work.extend(reversed(t.args))
        elif tt is PortRef:
            ops.append(("p", ctx.port_gid(t), t.owner, t.label))
        else:
            ops.append(("k", t))
    return ops


def thaw(ops: list, ctx: WireContext):
    """Decode a :func:`freeze` op list into a term, resolving global ids
    against (and extending) ``ctx``."""
    from repro.strand.terms import Atom, Cons, Struct, Tup

    stack: list = []
    for op in ops:
        kind = op[0]
        if kind == "k":
            stack.append(op[1])
        elif kind == "a":
            stack.append(Atom(op[1]))
        elif kind == "v":
            stack.append(ctx.replica(op[1], op[2]))
        elif kind == "cons":
            tail = stack.pop()
            head = stack.pop()
            stack.append(Cons(head, tail))
        elif kind == "s":
            n = op[2]
            base = len(stack) - n
            args = stack[base:]
            del stack[base:]
            stack.append(Struct(op[1], args))
        elif kind == "u":
            base = len(stack) - op[1]
            args = stack[base:]
            del stack[base:]
            stack.append(Tup(args))
        else:  # "p"
            stack.append(ctx.port_replica(op[1], op[2], op[3]))
    return stack[0]


# --------------------------------------------------------------------------
# Shard context: the engine-side hook target inside a worker
# --------------------------------------------------------------------------

class _ShardContext(WireContext):
    """What ``engine.shard`` points at inside a worker process.

    The engine consults it on every cross-processor effect; effects whose
    destination is not owned here are frozen into the outbox instead of
    being applied, and committed by the owning shard at the next barrier.
    """

    def __init__(self, shard_id: int, workers: int, engine):
        super().__init__(shard_id)
        self.workers = workers
        self.engine = engine
        self.outbox: list = []
        self.msg_seq = 0
        # True while a remote *bind* message is being applied, so the
        # engine's bind hook does not echo it back out.
        self.suppress = False

    def owns(self, proc: int) -> bool:
        return (proc - 1) % self.workers == self.id

    def _push(self, kind: str, time: float, payload: tuple) -> None:
        self.msg_seq += 1
        self.outbox.append((time, self.id, self.msg_seq, kind, payload))

    def remote_spawn(self, goal, src: int, dst: int, now: float, lib: bool):
        from repro.strand.engine import _msg_tag

        machine = self.engine.machine
        vp = machine.procs[src - 1]
        vp.sends += 1
        vp.hops += machine.hops(src, dst)
        if machine.trace.enabled:
            machine.trace.record(now, src, "send", f"spawn:{_msg_tag(goal)}->{dst}")
        ready = now + machine.latency(src, dst)
        self._push("spawn", now, (dst, ready, bool(lib), freeze(goal, self)))
        return None

    def queue_bind(self, vid: tuple, value, proc: int, now: float) -> None:
        self._push("bind", now, (vid, proc, freeze(value, self)))

    def remote_port_send(self, gid: tuple, msg, src: int, owner: int,
                         now: float) -> None:
        from repro.strand.engine import _msg_tag

        machine = self.engine.machine
        vp = machine.procs[src - 1]
        vp.sends += 1
        vp.hops += machine.hops(src, owner)
        if machine.trace.enabled:
            machine.trace.record(now, src, "send", f"port:{_msg_tag(msg)}->{owner}")
        self._push("psend", now, (gid, src, freeze(msg, self)))

    def remote_port_close(self, gid: tuple, src: int, now: float) -> None:
        self._push("pclose", now, (gid, src))


def _apply_message(shard: _ShardContext, msg: tuple) -> None:
    """Commit one routed message on its destination shard."""
    from repro.strand.builtins import BUILTINS
    from repro.strand.terms import Struct, deref

    time, _src_shard, _seq, kind, payload = msg
    engine = shard.engine
    if kind == "spawn":
        dst, ready, lib, ops = payload
        goal = thaw(ops, shard)
        goal_d = deref(goal)
        indicator_lib = None
        if type(goal_d) is Struct and goal_d.indicator in BUILTINS:
            indicator_lib = lib
        engine.spawn(goal, dst, ready=ready, lib=indicator_lib)
    elif kind == "bind":
        vid, proc, ops = payload
        target = shard.replica(vid, "_Remote")
        value = thaw(ops, shard)
        shard.suppress = True
        try:
            engine.bind(target, value, proc, time)
        finally:
            shard.suppress = False
    elif kind == "psend":
        gid, src, ops = payload
        port = shard.gid_ports[gid]
        if port.closed:
            raise StrandError(f"send on closed port {port!r}")
        engine._port_append(port, thaw(ops, shard), src, time)
    else:  # "pclose"
        gid, src = payload
        engine.port_close(port=shard.gid_ports[gid], src=src, now=time)


_MSG_ORDER = lambda m: (m[0], m[1], m[2])  # noqa: E731 - (time, shard, seq)


# --------------------------------------------------------------------------
# Worker process
# --------------------------------------------------------------------------

class _WorkerState:
    """All per-worker mutable state, keyed off the init command."""

    def __init__(self):
        self.engine = None
        self.shard: _ShardContext | None = None

    # -- commands -------------------------------------------------------
    def init(self, payload) -> None:
        from repro.machine.simulator import Machine
        from repro.strand.engine import StrandEngine
        from repro.strand.terms import Var

        (shard_id, workers, program, foreign, options, processors, topology,
         seed, startup, per_hop, trace_cfg) = payload
        Var.reset_names()
        enabled, limit, ring = trace_cfg
        machine = Machine(
            processors,
            topology=topology,
            # Distinct per-worker RNG stream, fixed by (seed, shard).
            seed=seed * 1_000_003 + shard_id + 1,
            startup_latency=startup,
            per_hop_latency=per_hop,
            trace=enabled,
        )
        if enabled:
            from repro.machine.trace import Trace

            machine.trace = Trace(enabled=True, limit=limit, ring=ring)
        self.engine = StrandEngine(
            program,
            machine=machine,
            foreign=foreign,
            watched=options["watched"],
            library=options["library"],
            services=options["services"],
            max_reductions=options["max_reductions"],
            auto_close_ports=False,  # the parent coordinates quiescence
            reduction_cost=options["reduction_cost"],
            indexing=options["indexing"],
            abandon_stragglers=options["abandon_stragglers"],
        )
        self.shard = _ShardContext(shard_id, workers, self.engine)
        self.engine.shard = self.shard
        machine.trace.cause = 0

    def epoch(self, payload) -> tuple:
        inbox, horizon, budget = payload
        engine = self.engine
        engine.machine.trace.cause = 0
        inbox.sort(key=_MSG_ORDER)
        for msg in inbox:
            _apply_message(self.shard, msg)
        return self._barrier(
            engine.scheduler.drain(engine.reducer.execute, horizon, budget)
        )

    def _barrier(self, next_time) -> tuple:
        """Epoch reply: the outbox, the next pending time (``None`` when
        locally quiescent) and the reduction attempts made so far."""
        scheduler = self.engine.scheduler
        outbox = self.shard.outbox
        self.shard.outbox = []
        return (outbox, next_time,
                scheduler.max_reductions - scheduler.reduction_budget)

    def quiesce_info(self, _payload) -> tuple:
        engine = self.engine
        suspended = engine.scheduler.suspended
        all_services = all(
            p.goal.indicator in engine.services for p in suspended.values()
        )
        open_ports = any(not port.closed for port in engine.ports)
        max_clock = max(
            (vp.clock for vp in engine.machine.procs
             if self.shard.owns(vp.number)),
            default=0.0,
        )
        return (len(suspended), all_services, open_ports, max_clock)

    def close_ports(self, payload) -> tuple:
        now, budget = payload
        engine = self.engine
        engine.machine.trace.cause = 0
        engine.close_all_ports(now)
        return self._barrier(
            engine.scheduler.drain(engine.reducer.execute, None, budget)
        )

    def abandon(self, payload) -> int:
        # Mirror of the sequential engine's straggler abandonment.
        now = payload
        engine = self.engine
        scheduler = engine.scheduler
        stats = engine.machine.fault_stats
        count = 0
        for key, process in sorted(
            scheduler.suspended.items(),
            key=lambda item: (item[1].proc, item[1].seq),
        ):
            del scheduler.suspended[key]
            process.state = 2  # DONE
            scheduler.live -= 1
            stats.processes_abandoned += 1
            engine.machine.trace.record(
                now, process.proc, "fault", f"straggler:{process.goal.functor}"
            )
            count += 1
        return count

    def stuck(self, _payload) -> list:
        from repro.strand.terms import Var, deref

        out = []
        for process in self.engine.scheduler.suspended.values():
            waiting = [
                v.name for v in (process.blocked_on or ())
                if type(deref(v)) is Var
            ]
            out.append((process.proc, process.seq, process.describe(), waiting))
        return out

    def finish(self, _payload) -> tuple:
        engine = self.engine
        machine = engine.machine
        # The worker idles in the pool until the next init; let the run's
        # engine go now rather than then.
        self.engine = self.shard = None
        return (
            machine.procs,
            machine.library_cost,
            machine.user_cost,
            machine.fault_stats.processes_abandoned,
            list(machine.trace.events),
            machine.trace.dropped,
            engine.output,
        )


def _worker_main(conn) -> None:
    """Entry point of one worker process (spawn-safe: module level, state
    rebuilt from the init command).  Serves commands until ``stop`` or
    until the parent's end of the pipe closes."""
    state = _WorkerState()
    handlers = {
        "init": state.init,
        "epoch": state.epoch,
        "quiesce_info": state.quiesce_info,
        "close_ports": state.close_ports,
        "abandon": state.abandon,
        "stuck": state.stuck,
        "finish": state.finish,
    }
    try:
        while True:
            blob = conn.recv_bytes()
            try:
                # Unpickled here, inside the handler, so a payload that
                # fails to load (say, an unimportable foreign procedure)
                # is answered with an error instead of killing the worker.
                cmd, payload = pickle.loads(blob)
                if cmd == "stop":
                    return
                conn.send(("ok", handlers[cmd](payload)))
            except Exception as exc:  # marshal errors back to the parent
                conn.send((
                    "error",
                    (type(exc).__name__, str(exc), traceback.format_exc()),
                ))
    except (EOFError, OSError, KeyboardInterrupt):
        return
    finally:
        conn.close()


# --------------------------------------------------------------------------
# Parent coordinator
# --------------------------------------------------------------------------

class _WorkerPool:
    """``workers`` spawned worker processes, each behind one pipe."""

    def __init__(self, workers: int):
        ctx = multiprocessing.get_context("spawn")
        self.size = workers
        self.owner = os.getpid()
        # False while a command has been sent but not every reply read;
        # such a pool cannot serve another run.
        self.in_sync = True
        self.conns = []
        self.procs = []
        try:
            for _ in range(workers):
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(target=_worker_main, args=(child_conn,),
                                   daemon=True)
                proc.start()
                child_conn.close()
                self.conns.append(parent_conn)
                self.procs.append(proc)
        except BaseException:
            self.shutdown(graceful=False)
            raise

    def alive(self) -> bool:
        return all(proc.is_alive() for proc in self.procs)

    def _died(self, w: int, cmd: str) -> WorkerError:
        proc = self.procs[w]
        proc.join(timeout=1)
        return WorkerError(
            f"parallel worker {w} (pid {proc.pid}) died during {cmd!r} "
            f"(exit code {proc.exitcode})",
            shard=w,
        )

    def command(self, targets, cmd: str, payloads) -> list:
        """Issue ``cmd`` to each target worker concurrently; collect replies
        in shard order.  Raises the (mapped) worker exception on error, and
        :class:`WorkerError` if a worker's pipe breaks."""
        targets = list(targets)
        # Pickle every payload before sending any, so one that cannot be
        # pickled leaves the pool with no command outstanding.
        blobs = [pickle.dumps((cmd, payloads[w]), pickle.HIGHEST_PROTOCOL)
                 for w in targets]
        self.in_sync = False
        for w, blob in zip(targets, blobs):
            try:
                self.conns[w].send_bytes(blob)
            except OSError as exc:
                raise self._died(w, cmd) from exc
        results = {}
        failure = None
        for w in targets:
            try:
                status, value = self.conns[w].recv()
            except (EOFError, OSError) as exc:
                raise self._died(w, cmd) from exc
            if status == "error":
                if failure is None:
                    failure = (w, value)
            else:
                results[w] = value
        self.in_sync = True
        if failure is not None:
            w, (name, message, _tb) = failure
            cls = getattr(_errors, name, None)
            if cls is None or not (isinstance(cls, type)
                                   and issubclass(cls, BaseException)):
                cls = StrandError
            raise cls(f"[worker {w}] {message}")
        return [results[w] for w in targets]

    def shutdown(self, graceful: bool = True) -> None:
        """Stop the workers: ask them to exit (``graceful``) and wait, then
        terminate any still running.  Never raises."""
        if graceful:
            for conn in self.conns:
                try:
                    conn.send(("stop", None))
                except OSError:
                    pass
            for proc in self.procs:
                proc.join(timeout=5)
        for proc in self.procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)
        for conn in self.conns:
            conn.close()


_pool_lock = threading.Lock()
_idle_pool: _WorkerPool | None = None


def _acquire_pool(workers: int) -> tuple[_WorkerPool, bool]:
    """Take the idle pool out of the cache, or start a new one; also says
    whether the pool was reused."""
    global _idle_pool
    with _pool_lock:
        pool, _idle_pool = _idle_pool, None
    if pool is not None and pool.owner != os.getpid():
        pool = None  # inherited through fork: its workers are not ours
    if pool is not None and (pool.size != workers or not pool.alive()):
        pool.shutdown(graceful=pool.alive())
        pool = None
    if pool is None:
        return _WorkerPool(workers), False
    return pool, True


def _release_pool(pool: _WorkerPool) -> None:
    """Cache ``pool`` for the next run if it is healthy and the cache is
    empty; otherwise shut it down."""
    global _idle_pool
    healthy = pool.in_sync and pool.alive()
    if healthy:
        with _pool_lock:
            if _idle_pool is None:
                _idle_pool = pool
                return
    pool.shutdown(graceful=healthy)


@atexit.register
def _shutdown_idle_pool() -> None:
    global _idle_pool
    with _pool_lock:
        pool, _idle_pool = _idle_pool, None
    if pool is not None and pool.owner == os.getpid():
        pool.shutdown()


def _route(messages, workers: int, inboxes: list, parent_binds: list) -> None:
    """Distribute one barrier's outbox messages.

    Spawns and port traffic go to the owning shard; binds are broadcast to
    every shard except the sender and remembered for the parent (whose
    replicas include the query variables)."""
    for msg in messages:
        _time, src_shard, _seq, kind, payload = msg
        if kind == "spawn":
            inboxes[shard_of(payload[0], workers)].append(msg)
        elif kind in ("psend", "pclose"):
            inboxes[payload[0][0]].append(msg)
        else:  # bind: broadcast
            for w in range(workers):
                if w != src_shard:
                    inboxes[w].append(msg)
            parent_binds.append(msg)


def _parent_apply_binds(parent_ctx: WireContext, binds: list) -> None:
    from repro.strand.terms import Var, deref

    binds.sort(key=_MSG_ORDER)
    for msg in binds:
        vid, _proc, ops = msg[4]
        target = deref(parent_ctx.replica(vid, "_Remote"))
        value = deref(thaw(ops, parent_ctx))
        if type(target) is Var and target is not value:
            target.ref = value


def run_parallel(engine) -> MachineMetrics:
    """Execute ``engine``'s pending goal pool on the parallel backend.

    Called by :meth:`StrandEngine.run` when the machine was built with
    ``backend="parallel"``.  Returns the merged machine metrics; the
    engine's machine is updated in place (merged processor counters, merged
    trace, merged ``write/1`` output), and every binding made to the
    caller's goal variables is applied, so downstream result extraction is
    backend-agnostic.
    """
    machine = engine.machine
    if machine.faults is not None:
        raise NotImplementedError(
            "fault injection is not supported on the parallel backend"
        )
    if engine.profile is not None:
        raise NotImplementedError(
            "per-motif profiling is not supported on the parallel backend"
        )
    workers = machine.workers or 1
    processors = machine.size
    epoch_window = machine.epoch_window

    # -- initial pool: freeze the goals spawned before run() -------------
    parent_ctx = WireContext(PARENT_SHARD)
    initial: list = []
    seq = 0
    for pnum in range(1, processors + 1):
        for _ready, _pseq, process in sorted(
            engine.scheduler.queues[pnum - 1],
            key=lambda entry: (entry[0], entry[1]),
        ):
            if process.state != 0:  # RUNNABLE
                continue
            seq += 1
            initial.append((
                process.ready, PARENT_SHARD, seq, "spawn",
                (pnum, process.ready, bool(process.lib),
                 freeze(process.goal, parent_ctx)),
            ))

    trace_cfg = (
        machine.trace.enabled,
        machine.trace.limit,
        machine.trace.ring,
    )
    init_payloads = {
        w: (
            w, workers, engine.program, engine.foreign, engine._options,
            processors, machine.network.topology, machine.seed,
            machine.network.startup, machine.network.per_hop, trace_cfg,
        )
        for w in range(workers)
    }
    max_reductions = engine.max_reductions
    pool, reused = _acquire_pool(workers)
    try:
        try:
            try:
                pool.command(range(workers), "init", init_payloads)
            except WorkerError:
                if not reused:
                    raise
                # A worker of the cached pool died while it sat idle.
                pool.shutdown(graceful=False)
                pool = _WorkerPool(workers)
                pool.command(range(workers), "init", init_payloads)
        except (TypeError, AttributeError, ImportError,
                pickle.PicklingError) as exc:
            raise NotImplementedError(
                "engine configuration cannot be shipped to parallel workers "
                f"(not picklable): {exc}"
            ) from exc

        inboxes: list[list] = [[] for _ in range(workers)]
        parent_binds: list = []
        _route(initial, workers, inboxes, parent_binds)
        worker_next: list[float | None] = [None] * workers
        attempts = [0] * workers
        ports_closed = False

        def budget(n_active: int) -> int:
            # Near the global limit, split what is left between the
            # active workers so the sum overshoots it by less than one
            # reduction per worker.
            left = max_reductions - sum(attempts)
            return min(EPOCH_REDUCTIONS, max(1, left // n_active))

        def barrier(targets: list, cmd: str, payloads: dict) -> None:
            replies = pool.command(targets, cmd, payloads)
            binds: list = []
            for w, (outbox, next_time, count) in zip(targets, replies):
                worker_next[w] = next_time
                attempts[w] = count
                _route(outbox, workers, inboxes, binds)
            _parent_apply_binds(parent_ctx, binds)
            if sum(attempts) > max_reductions:
                raise reduction_limit_error(max_reductions)

        while True:
            # ---- message-exchange epochs until globally quiescent ------
            while True:
                horizon = None
                if epoch_window is None:
                    # A worker with a pending time stopped on its budget.
                    active = [w for w in range(workers)
                              if inboxes[w] or worker_next[w] is not None]
                else:
                    pending = [t for t in worker_next if t is not None]
                    pending.extend(
                        msg[4][1] if msg[3] == "spawn" else msg[0]
                        for box in inboxes for msg in box
                    )
                    if not pending:
                        active = []
                    else:
                        horizon = min(pending) + epoch_window
                        active = [
                            w for w in range(workers)
                            if inboxes[w] or (
                                worker_next[w] is not None
                                and worker_next[w] < horizon
                            )
                        ]
                if not active:
                    break
                per_worker = budget(len(active))
                payloads = {}
                for w in active:
                    payloads[w] = (inboxes[w], horizon, per_worker)
                    inboxes[w] = []
                barrier(active, "epoch", payloads)

            # ---- global quiescence: the sequential policy, distributed -
            infos = pool.command(range(workers), "quiesce_info",
                                 {w: None for w in range(workers)})
            total_suspended = sum(info[0] for info in infos)
            if total_suspended == 0:
                break
            all_services = all(info[1] for info in infos)
            any_open = any(info[2] for info in infos)
            now = max(info[3] for info in infos)
            releasable = engine.abandon_stragglers or all_services
            if (not ports_closed and engine.auto_close_ports and releasable
                    and any_open):
                ports_closed = True
                per_worker = budget(workers)
                barrier(list(range(workers)), "close_ports",
                        {w: (now, per_worker) for w in range(workers)})
                continue
            if engine.abandon_stragglers:
                pool.command(range(workers), "abandon",
                             {w: now for w in range(workers)})
                break
            listings = pool.command(range(workers), "stuck",
                                    {w: None for w in range(workers)})
            _raise_deadlock([item for sub in listings for item in sub])

        # ---- merge: metrics, trace, output -----------------------------
        finals = pool.command(range(workers), "finish",
                              {w: None for w in range(workers)})
    finally:
        _release_pool(pool)

    merged = [VirtualProcessor(number=i + 1) for i in range(processors)]
    library_cost = 0.0
    user_cost = 0.0
    abandoned = 0
    trace_batches = []
    output: list[str] = []
    for w, (procs, lib_cost, usr_cost, n_abandoned, events, dropped,
            out) in enumerate(finals):
        library_cost += lib_cost
        user_cost += usr_cost
        abandoned += n_abandoned
        trace_batches.append((w, events, dropped))
        output.extend(out)
        for vp in procs:
            m = merged[vp.number - 1]
            # Cross-shard effects (sends, wake latency accounting) may be
            # charged on any shard's replica of a processor; exclusive
            # execution state lives only on the owner.
            m.spawns += vp.spawns
            m.sends += vp.sends
            m.hops += vp.hops
            m.remote_bindings += vp.remote_bindings
            m.suspensions += vp.suspensions
            m.wakeups += vp.wakeups
            if shard_of(vp.number, workers) == w:
                m.clock = vp.clock
                m.busy = vp.busy
                m.reductions = vp.reductions
                m.live_tasks = vp.live_tasks
                m.peak_live_tasks = vp.peak_live_tasks
                m.tasks_started = vp.tasks_started
                m.live_values = vp.live_values
                m.peak_live_values = vp.peak_live_values

    machine.procs = merged
    machine.library_cost = library_cost
    machine.user_cost = user_cost
    machine.fault_stats.processes_abandoned = abandoned
    engine.output[:] = output
    _merge_traces(machine.trace, trace_batches)
    return machine.metrics()


def _merge_traces(trace, batches: list) -> None:
    """Renumber per-worker event ids into one global trace, ordered by
    ``(time, shard, local id)``; intra-shard cause links are remapped,
    cross-shard links do not exist (they are cut at epoch barriers)."""
    from dataclasses import replace

    rows = []
    dropped = 0
    for w, events, worker_dropped in batches:
        dropped += worker_dropped
        rows.extend((ev.time, w, ev.eid, ev) for ev in events)
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    eid_map = {(w, old): new for new, (_t, w, old, _ev) in enumerate(rows, 1)}
    merged = [
        replace(ev, eid=new, cause=eid_map.get((w, ev.cause), 0))
        for new, (_t, w, _old, ev) in enumerate(rows, 1)
    ]
    if isinstance(trace.events, list):
        trace.events[:] = merged
    else:  # ring deque
        trace.events.clear()
        trace.events.extend(merged)
    trace.dropped += dropped
    trace._next_id = len(merged) + 1


def _raise_deadlock(stuck: list) -> None:
    """Merged deadlock report mirroring the sequential scheduler's."""
    stuck.sort(key=lambda item: (item[0], item[1]))
    shown = stuck[:12]
    lines = []
    for _proc, _seq, describe, waiting in shown:
        suffix = f"  [waiting on {', '.join(waiting)}]" if waiting else ""
        lines.append(describe + suffix)
    more = len(stuck) - len(shown)
    listing = "\n  ".join(lines) + (f"\n  ... and {more} more" if more > 0 else "")
    raise DeadlockError(
        f"computation deadlocked with {len(stuck)} suspended "
        f"process(es):\n  {listing}"
    )
