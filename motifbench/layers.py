"""Per-layer wall-clock spans, recorded from outside the program.

The runtime in ``src/`` carries no wall-clock instrumentation, so this
module times each layer by temporarily replacing its public entry points
with wrappers and restoring them afterwards.  Each wrapper keeps a stack of
open spans: a span's *self time* is its duration minus the time covered by
the spans it opened, so nested layers (a builtin binding a variable inside
a reduction inside the scheduler loop) are never counted twice.

The wrapped entry points, by layer:

=====================  ==============================================
span                   entry point
=====================  ==============================================
``parse``              ``parse_program``/``parse_query``/``parse_term``/
                       ``parse_rule`` (every module binding them)
``motif.apply.<M>``    ``Motif._apply_impl`` (one motif stage ``M``)
``motif.compose``      ``ComposedMotif._apply_impl``
``compile``            ``CompiledProgram.__init__`` (cache misses only)
``scheduler``          ``Scheduler.run`` and ``Scheduler.drain``
``reducer.dispatch``   ``Reducer.execute`` (one reduction attempt)
``reducer.user``       ``Reducer._reduce_user``
``builtins``           every entry of ``BUILTINS``
``foreign``            ``Reducer._call_foreign``
``engine.spawn``       ``StrandEngine.spawn``
``engine.bind``        ``StrandEngine.bind``
``engine.port_send``   ``StrandEngine.port_send``
``parallel.run``       ``run_parallel`` (parent side)
``parallel.wire``      ``freeze``/``thaw`` (parent side)
=====================  ==============================================

Inside parallel-backend workers nothing is wrapped: the workers are fresh
interpreters.
"""

from __future__ import annotations

import functools
import re
import sys
import time
from collections import defaultdict


class Spans:
    """Accumulated self time, calls and raised exceptions per span name."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.raised: dict[str, int] = defaultdict(int)
        # One child-time accumulator per open span; the bottom entry
        # collects time spent in top-level spans.
        self._open: list[float] = [0.0]

    def wrap(self, fn, name):
        """``fn`` timed as span ``name`` (a string, or a callable of the
        call's arguments returning one)."""
        clock = time.perf_counter
        open_spans = self._open
        self_s, calls, raised = self.self_s, self.calls, self.raised
        fixed = isinstance(name, str)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            span = name if fixed else name(*args)
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[span] += 1
                raise
            finally:
                duration = clock() - start
                child = open_spans.pop()
                open_spans[-1] += duration
                self_s[span] += duration - child
                calls[span] += 1

        timed.__wrapped_original__ = fn
        return timed


def stage_name(motif) -> str:
    """Metric-safe name of one motif stage: ``server[ports]`` -> ``server``."""
    base = motif.name.split("[", 1)[0]
    return re.sub(r"[^A-Za-z0-9_.-]", "_", base) or "unnamed"


class LayerTracer:
    """Install wrappers on the runtime's entry points; :meth:`restore`
    puts every original back and checks that it did."""

    def __init__(self) -> None:
        self.spans = Spans()
        self._patched: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, name) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.spans.wrap(original, name))

    def install(self) -> "LayerTracer":
        from repro.core.motif import ComposedMotif, Motif
        from repro.machine import parallel
        from repro.strand import builtins, parser
        from repro.strand.compile import CompiledProgram
        from repro.strand.engine import StrandEngine
        from repro.strand.reducer import Reducer
        from repro.strand.scheduler import Scheduler

        # Parse functions are imported by name into many modules; rebind
        # every module attribute that is one of them.
        for fname in ("parse_program", "parse_query", "parse_term", "parse_rule"):
            original = getattr(parser, fname)
            for module in list(sys.modules.values()):
                if (getattr(module, "__name__", "").startswith("repro")
                        and getattr(module, fname, None) is original):
                    self._patch(module, fname, "parse")
        self._patch(Motif, "_apply_impl",
                    lambda motif, *_: "motif.apply." + stage_name(motif))
        self._patch(ComposedMotif, "_apply_impl", "motif.compose")
        self._patch(CompiledProgram, "__init__", "compile")
        self._patch(Scheduler, "run", "scheduler")
        self._patch(Scheduler, "drain", "scheduler")
        self._patch(Reducer, "execute", "reducer.dispatch")
        self._patch(Reducer, "_reduce_user", "reducer.user")
        self._patch(Reducer, "_call_foreign", "foreign")
        self._patch(StrandEngine, "spawn", "engine.spawn")
        self._patch(StrandEngine, "bind", "engine.bind")
        self._patch(StrandEngine, "port_send", "engine.port_send")
        for indicator in list(builtins.BUILTINS):
            self._patch_item(builtins.BUILTINS, indicator, "builtins")
        self._patch(parallel, "run_parallel", "parallel.run")
        self._patch(parallel, "freeze", "parallel.wire")
        self._patch(parallel, "thaw", "parallel.wire")
        return self

    def _patch_item(self, table: dict, key, name: str) -> None:
        original = table[key]
        self._patched.append((table, key, original))
        table[key] = self.spans.wrap(original, name)

    def restore(self) -> None:
        """Put back every original, newest first, then verify."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        leftover = find_wrapped()
        if leftover:
            raise RuntimeError(f"entry points still wrapped after restore: {leftover}")


def find_wrapped() -> list[str]:
    """Names of runtime attributes that are still span wrappers."""
    from repro.strand import builtins

    found = [f"BUILTINS[{k!r}]" for k, v in builtins.BUILTINS.items()
             if hasattr(v, "__wrapped_original__")]
    for module in list(sys.modules.values()):
        mname = getattr(module, "__name__", "")
        if not mname.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if hasattr(value, "__wrapped_original__"):
                found.append(f"{mname}.{attr}")
            elif isinstance(value, type) and value.__module__ == mname:
                found.extend(f"{mname}.{attr}.{a}" for a, v in vars(value).items()
                             if hasattr(v, "__wrapped_original__"))
    return found
