"""The compile layer between :class:`Program` and the runtime.

The paper's pitch is that a motif's output "is itself a program" cheap
enough to run everywhere (§2.1).  This module lowers that program all the
way to Python: a :class:`CompiledProgram` is built once per
:class:`Program` (cached against the program's version stamp), and the
scheduler/reducer core consumes only the compiled form.

**One generated function per rule.**  Each rule becomes Python source for a
function ``rule(args, blocked)`` that destructures the head, checks the
guards and builds the body goals as straight-line code, with rule
variables held as Python locals.  It returns the tuple of body goals when
the rule commits and ``None`` otherwise; when the head or a guard waits on
an unbound caller variable it appends that variable to ``blocked`` (see
:class:`_Lowering` for the exact protocol).  The source of the
``sift([P | Xs], Ps)`` rule of ``examples/strand/sieve.str`` reads::

    def rule(args, blocked, k0, k1, k2, k3, k4):
        t1, v0 = args
        while type(t1) is Var:
            if t1.ref is _U:
                blocked.append(t1)
                return None
            t1 = t1.ref
        if type(t1) is not Cons:
            return None
        v1, v2 = t1.head, t1.tail
        v3 = Var(k0)
        v4 = Var(k2)
        return (Struct(k1, (v0, Cons(v1, v3))), Struct(k3, (v1, v2, v4)),
                Struct(k4, (v4, v3)))

**A shape-keyed code cache.**  Every constant, functor name and variable
name is a trailing parameter ``k<i>`` whose default the rule's function is
built with, so the source depends only on the rule's *shape*.  Code objects
are cached by source in a bounded LRU cache (:data:`CODE_CACHE_SIZE`
shapes): re-linked library rules and application rules that differ only in
constants compile once.  Each rule's source is shown by
:attr:`CompiledRule.source` for debugging.  The interpretive matcher this
replaced lives on in ``tests/strand/oracle.py`` as the reference the
generated code is checked against.

Per procedure, rules are bucketed by **first-argument principal functor**
(order-preserving first-argument indexing).  Committed choice must commit on
the first *textually* matching rule, so buckets preserve textual order and
rules whose first head argument is a variable appear in every bucket; a goal
whose first argument is unbound considers the full rule list.  Skipping a
rule is sound only when its head could neither match *nor suspend* — which
is exactly the rules whose first pattern has a different principal functor
from the goal's (already bound) first argument.

:class:`SymbolTable` is the shared interned name/arity view of a program
(indicators, functors, per-procedure callees); the linter, call-graph, and
complexity accounting consume it instead of re-deriving their own maps.
"""

from __future__ import annotations

from functools import lru_cache
from types import CodeType, FunctionType
from typing import Any, Callable

from repro.errors import StrandError
from repro.strand.arith import ArithFail, Suspend, eval_arith
from repro.strand.program import Procedure, Program, Rule
from repro.strand.terms import _UNBOUND, NIL, Atom, Cons, Struct, Term, Tup, Var, deref

__all__ = [
    "SymbolTable",
    "symbol_table",
    "CompiledRule",
    "CompiledProcedure",
    "CompiledProgram",
    "compile_program",
    "CODE_CACHE_SIZE",
    "GUARD_TESTS",
    "COMPILE_STATS",
    "reset_compile_stats",
]

#: Process-wide compilation counters (observable by tests and benchmarks):
#: ``programs`` counts full compilations, ``hits`` cache reuses, ``rules``
#: total rules compiled.
COMPILE_STATS = {"programs": 0, "hits": 0, "rules": 0, "symbol_tables": 0}


def reset_compile_stats() -> None:
    for key in COMPILE_STATS:
        COMPILE_STATS[key] = 0


# ---------------------------------------------------------------------------
# Interned symbol tables
# ---------------------------------------------------------------------------

class SymbolTable:
    """Interned name/arity view of one program.

    * ``indicators``  — ``(name, arity) -> dense id`` in definition order;
      the *keys* are the canonical interned indicator tuples, so every
      consumer shares one tuple per procedure instead of re-deriving its own;
    * ``functors``    — ``name -> dense id`` over head functors;
    * ``calls``       — per-procedure callee indicators, in rule/body order,
      with placement annotations (``Goal @ Where``) looked through;
    * ``rule_counts`` / ``goal_counts`` — per-procedure sizes (goals counts
      guards + body goals, matching ``Program.goal_count``).
    """

    __slots__ = ("indicators", "functors", "calls", "rule_counts",
                 "goal_counts", "_canon")

    def __init__(self, program: Program):
        COMPILE_STATS["symbol_tables"] += 1
        self._canon: dict[tuple[str, int], tuple[str, int]] = {}
        self.indicators: dict[tuple[str, int], int] = {}
        self.functors: dict[str, int] = {}
        self.calls: dict[tuple[str, int], tuple[tuple[str, int], ...]] = {}
        self.rule_counts: dict[tuple[str, int], int] = {}
        self.goal_counts: dict[tuple[str, int], int] = {}
        for proc in program:
            self._add_procedure(proc)

    def _add_procedure(self, proc: Procedure) -> None:
        indicator = self.intern(proc.name, proc.arity)
        callees: list[tuple[str, int]] = []
        goals = 0
        for rule in proc.rules:
            goals += len(rule.guards) + len(rule.body)
            for goal in rule.body:
                callee = _call_indicator(goal)
                if callee is not None:
                    callees.append(self.intern(*callee))
        self.calls[indicator] = tuple(callees)
        self.rule_counts[indicator] = len(proc.rules)
        self.goal_counts[indicator] = goals

    def intern(self, name: str, arity: int) -> tuple[str, int]:
        """The canonical tuple for ``name/arity`` (registering it if new).
        Every intern of the same pair returns the same tuple object."""
        indicator = (name, arity)
        canon = self._canon.get(indicator)
        if canon is None:
            self._canon[indicator] = indicator
            self.indicators[indicator] = len(self.indicators)
            if name not in self.functors:
                self.functors[name] = len(self.functors)
            canon = indicator
        return canon

    @property
    def defined(self) -> set[tuple[str, int]]:
        """Indicators of procedures defined by the program."""
        return set(self.calls)

    def callees(self, indicator: tuple[str, int]) -> tuple[tuple[str, int], ...]:
        return self.calls.get(indicator, ())

    def total_rules(self) -> int:
        return sum(self.rule_counts.values())

    def total_goals(self) -> int:
        return sum(self.goal_counts.values())

    def __contains__(self, indicator: tuple[str, int]) -> bool:
        return indicator in self.calls

    def __len__(self) -> int:
        return len(self.calls)


def _call_indicator(goal: Term) -> tuple[str, int] | None:
    """``name/arity`` a body goal calls, looking through ``@`` placement."""
    goal = deref(goal)
    while type(goal) is Struct and goal.functor == "@" and len(goal.args) == 2:
        goal = deref(goal.args[0])
    if type(goal) is Struct:
        return (goal.functor, len(goal.args))
    if type(goal) is Atom:
        return (goal.name, 0)
    return None


def symbol_table(program: Program) -> SymbolTable:
    """The program's :class:`SymbolTable`, cached against its version."""
    cached = getattr(program, "_symbol_cache", None)
    if cached is not None and cached[0] == program.version:
        return cached[1]
    table = SymbolTable(program)
    program._symbol_cache = (program.version, table)
    return table


# ---------------------------------------------------------------------------
# Matching helpers (shared with the reference matcher in the tests)
# ---------------------------------------------------------------------------

def _match_values(a: Term, b: Term, blocked: list[Var]) -> bool:
    """Compare two caller-side terms for the non-linear-head case; unbound
    variables block unless identical.  Iterative for deep-list safety."""
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        a, b = deref(a), deref(b)
        if a is b:
            continue
        ta, tb = type(a), type(b)
        if ta is Var:
            blocked.append(a)
            continue
        if tb is Var:
            blocked.append(b)
            continue
        if ta is Cons and tb is Cons:
            stack.append((a.tail, b.tail))
            stack.append((a.head, b.head))
        elif ta is Struct and tb is Struct:
            if a.functor != b.functor or len(a.args) != len(b.args):
                return False
            stack.extend(zip(reversed(a.args), reversed(b.args)))
        elif ta is Tup and tb is Tup:
            if len(a.args) != len(b.args):
                return False
            stack.extend(zip(reversed(a.args), reversed(b.args)))
        elif isinstance(a, (int, float)) and isinstance(b, (int, float)):
            if a != b:
                return False
        elif not (a == b if ta is tb else False):
            return False
    return True


def _ground_equal(a: Term, b: Term, blocked: list[Var]) -> tuple[bool, bool]:
    """(decided?, equal?) for structural equality; suspends on unbound
    variables unless identity already decides.

    Nested unbound vars inside structures make the comparison undecided only
    if the decided parts are equal so far; term_eq treats distinct unbound
    vars as unequal, so do a cautious walk instead — iterative (left-to-right
    DFS over a pair stack) so deep lists cannot blow the interpreter stack.
    The first pair that is not definitely-equal settles the verdict.
    """
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        a, b = deref(a), deref(b)
        if a is b:
            continue
        if type(a) is Var:
            blocked.append(a)
            return False, False
        if type(b) is Var:
            blocked.append(b)
            return False, False
        ta, tb = type(a), type(b)
        if ta is Struct and tb is Struct:
            if a.functor != b.functor or len(a.args) != len(b.args):
                return True, False
            stack.extend(zip(reversed(a.args), reversed(b.args)))
        elif ta is Cons and tb is Cons:
            stack.append((a.tail, b.tail))
            stack.append((a.head, b.head))
        elif ta is Tup and tb is Tup:
            if len(a.args) != len(b.args):
                return True, False
            stack.extend(zip(reversed(a.args), reversed(b.args)))
        elif isinstance(a, (int, float)) and isinstance(b, (int, float)):
            if a != b:
                return True, False
        elif ta is not tb:
            return True, False
        elif a != b:
            return True, False
    return True, True


def _test_integer(t: Term) -> bool:
    return type(t) is int


def _test_number(t: Term) -> bool:
    return type(t) is int or type(t) is float


def _test_float(t: Term) -> bool:
    return type(t) is float


def _test_atom(t: Term) -> bool:
    return type(t) is Atom


def _test_string(t: Term) -> bool:
    return type(t) is str


def _test_list(t: Term) -> bool:
    return type(t) is Cons or t is NIL


def _test_tuple(t: Term) -> bool:
    return type(t) is Tup


#: Type-test guards: ``name -> predicate over the dereffed, bound argument``.
GUARD_TESTS: dict[str, Callable[[Term], bool]] = {
    "integer": _test_integer,
    "number": _test_number,
    "float": _test_float,
    "atom": _test_atom,
    "string": _test_string,
    "list": _test_list,
    "tuple": _test_tuple,
}

#: Arithmetic comparison guards: Strand operator -> Python operator.
_COMPARISONS = {
    "<": "<",
    ">": ">",
    "=<": "<=",
    ">=": ">=",
    "=\\=": "!=",
    "=:=": "==",
}


# ---------------------------------------------------------------------------
# Rule lowering: one generated Python function per rule
# ---------------------------------------------------------------------------

#: Head sub-patterns become nested ``if`` blocks, and CPython accepts at
#: most 100 levels of indentation; heads nested deeper are rejected.
MAX_HEAD_DEPTH = 64

#: Body structures nest as Python expressions, which CPython's parser
#: limits; every this many levels the lowering binds one to a local.
_SPILL_DEPTH = 32

#: Bound on the shape-keyed code cache: the number of distinct rule shapes
#: whose code object is kept.  The four repository benchmark workloads
#: together use under a hundred shapes; eviction only re-pays one
#: ``compile`` of a small function.
CODE_CACHE_SIZE = 1024

_RULE_GLOBALS = {
    "Var": Var,
    "Struct": Struct,
    "Cons": Cons,
    "Tup": Tup,
    "_U": _UNBOUND,
    "Suspend": Suspend,
    "ArithFail": ArithFail,
    "eval_arith": eval_arith,
    "_match_values": _match_values,
    "_ground_equal": _ground_equal,
}


@lru_cache(maxsize=CODE_CACHE_SIZE)
def _rule_code(source: str) -> CodeType:
    """The code object of the rule function defined by ``source``,
    compiled once per distinct rule shape."""
    module = compile(source, "<strand rule>", "exec")
    return next(c for c in module.co_consts if isinstance(c, CodeType))


def _tuple_src(items: list[str]) -> str:
    return items[0] + "," if len(items) == 1 else ", ".join(items)


def _var_uses(*terms: Term) -> dict[int, int]:
    """Occurrences of each variable in ``terms``, keyed by ``id``; the
    key ``None`` counts the non-variable nodes."""
    uses: dict[int | None, int] = {None: 0}
    stack = list(terms)
    while stack:
        t = stack.pop()
        while type(t) is Var and t.ref is not _UNBOUND:
            t = t.ref
        tt = type(t)
        key = id(t) if tt is Var else None
        uses[key] = uses.get(key, 0) + 1
        if tt is Struct or tt is Tup:
            stack.extend(t.args)
        elif tt is Cons:
            stack.append(t.head)
            stack.append(t.tail)
    return uses


class _Lowering:
    """Lower one rule to the source of its function
    ``rule(args, blocked, k0, k1, ...)`` plus the constants ``k0, k1, ...``
    it is built with.

    The rule function matches the head, checks the
    guards and builds the body as straight-line code.  It returns the tuple
    of body goals on commit and ``None`` otherwise.  The protocol is the
    interpretive matcher's, step for step:

    * head sub-patterns are matched depth-first, left to right; an unbound
      caller variable where a pattern needs a value is a *blocker* and the
      sub-pattern below it is skipped;
    * a definite failure returns ``None`` and discards the rule's own
      blockers; otherwise blockers go to ``blocked`` and the rule returns
      ``None`` at the end of the head, or at the end of the guards;
    * a phase with a single blocking site appends to ``blocked`` directly,
      since nothing after it could discard the blocker; otherwise blockers
      collect in a per-call list ``rb``.

    Rule variables are the locals ``v0, v1, ...``.  Fresh variables are
    created by one statement each, in the order the guards and body are
    read; structures are built by nested expressions.  Every constant,
    functor name and variable name is a ``k`` parameter, so the source
    depends only on the rule's shape.
    """

    def __init__(self, rule: Rule):
        self.consts: list[Any] = []
        self.lines: list[str] = []
        self.names: dict[int, str] = {}  # id(rule var) -> local name
        self.seen: set[int] = set()  # rule variables met so far
        self.assigned: set[int] = set()  # ... and surely assigned here
        self.inits: dict[str, None] = {}  # locals that start as None
        self.temps = 0
        self.rb = False  # the code keeps a blocker list ``rb``
        self.direct = False  # this phase has a single blocking site
        self._lower(rule)
        params = "".join(f", k{i}" for i in range(len(self.consts)))
        prologue = [" = ".join(self.inits) + " = None"] if self.inits else []
        if self.rb:
            prologue.append("rb = []")
        self.source = "\n".join(
            [f"def rule(args, blocked{params}):"]
            + ["    " + line for line in prologue + self.lines]
            + [""]
        )

    def _lower(self, rule: Rule) -> None:
        patterns = [deref(a) for a in rule.head.args]
        # The places where matching can block or fail: non-variable
        # pattern nodes and repeated variables.
        head = _var_uses(*patterns)
        nodes = head.pop(None)
        repeats = sum(head.values()) - len(head)
        self.uses = _var_uses(*rule.guards, *rule.body)
        for key, count in head.items():
            self.uses[key] = self.uses.get(key, 0) + count
        self.direct = nodes == 1 and not repeats
        targets = self._targets(patterns)
        used = [(i, t) for i, t in enumerate(targets) if t != "_"]
        if len(used) == 1:  # keeps the source independent of the arity
            self.emit(f"{used[0][1]} = args[{used[0][0]}]", 0)
        elif used:
            self.emit(f"{_tuple_src(targets)} = args", 0)
        self._children(patterns, targets, 0)
        if repeats or nodes > 1:
            self._suspend_if_blocked()
        self.assigned |= self.seen
        guards = [deref(g) for g in rule.guards]
        guards = [g for g in guards
                  if not (type(g) is Atom and g.name in ("true", "otherwise"))]
        self.direct = len(guards) == 1
        for guard in guards:
            if not self._guard(guard):
                return
        if len(guards) > 1:
            self._suspend_if_blocked()
        # On commit every guard ran to completion: all variables exist.
        self.assigned |= self.seen
        goals = [self._build(goal, 0) for goal in rule.body]
        self.emit(f"return ({_tuple_src(goals)})" if goals else "return ()", 0)

    # -- emission helpers ------------------------------------------------
    def emit(self, line: str, indent: int) -> None:
        self.lines.append("    " * indent + line)

    def const(self, value: Any) -> str:
        self.consts.append(value)
        return f"k{len(self.consts) - 1}"

    def temp(self) -> str:
        self.temps += 1
        return f"t{self.temps}"

    def local(self, var: Var) -> str:
        name = self.names.get(id(var))
        if name is None:
            name = self.names[id(var)] = f"v{len(self.names)}"
        return name

    def blockers(self) -> str:
        """The list this phase's blockers go to."""
        if self.direct:
            return "blocked"
        self.rb = True
        return "rb"

    def _block(self, t: str, indent: int) -> None:
        self.emit(f"{self.blockers()}.append({t})", indent)
        if self.direct:
            self.emit("return None", indent)

    def _suspend_if_blocked(self) -> None:
        self.emit("if rb:", 0)
        self.emit("blocked.extend(rb)", 1)
        self.emit("return None", 1)

    def _deref(self, t: str, indent: int) -> None:
        self.emit(f"while type({t}) is Var and {t}.ref is not _U:", indent)
        self.emit(f"{t} = {t}.ref", indent + 1)

    def _maybe(self, var: Var) -> str:
        """Name of a variable that may not have been assigned yet: it was
        first met in code that can be skipped (a sub-pattern whose argument
        was unbound, the right side of a suspended comparison)."""
        name = self.local(var)
        self.inits[name] = None
        self.assigned.add(id(var))
        return name

    # -- head --------------------------------------------------------------
    def _targets(self, patterns: list[Term]) -> list[str]:
        """Unpacking targets for sibling sub-patterns: a variable's first
        occurrence binds it directly; everything else goes to a temp."""
        pending = set(self.seen)
        targets = []
        for i, p in enumerate(patterns):
            if type(p) is Var and id(p) not in pending:
                pending.add(id(p))
                targets.append(self.local(p) if self.uses[id(p)] > 1 else "_")
                continue
            if type(p) is not Var and any(type(q) is Var for q in patterns[i + 1:]):
                pending.update(_var_uses(p))  # a later variable may recur in p
            targets.append(self.temp())
        return targets

    def _children(self, patterns: list[Term], targets: list[str], indent: int) -> None:
        for p, t in zip(patterns, targets):
            if type(p) is not Var:
                self._match(p, t, indent)
            elif id(p) not in self.seen:
                self.seen.add(id(p))
                self.assigned.add(id(p))
            else:
                # Non-linear head: both occurrences must agree.
                rb = self.blockers()
                if id(p) in self.assigned:
                    name = self.local(p)
                    self.emit(f"if not _match_values({name}, {t}, {rb}):", indent)
                else:
                    name = self._maybe(p)
                    self.emit(f"if {name} is None:", indent)
                    self.emit(f"{name} = {t}", indent + 1)
                    self.emit(f"elif not _match_values({name}, {t}, {rb}):", indent)
                self.emit("return None", indent + 1)

    def _match(self, p: Term, t: str, indent: int) -> None:
        """Match the argument in local ``t`` against non-variable ``p``."""
        if indent >= MAX_HEAD_DEPTH:
            raise StrandError(f"rule head nests deeper than {MAX_HEAD_DEPTH} levels")
        pt = type(p)
        subs: list[Term] = []
        if pt is Atom:
            clash = f"{t} is not {self.const(p)}"
        elif pt is int or pt is float:
            clash = (f"type({t}) is not int and type({t}) is not float"
                     f" or {t} != {self.const(p)}")
        elif pt is str:
            clash = f"type({t}) is not str or {t} != {self.const(p)}"
        elif pt is Cons:
            clash = f"type({t}) is not Cons"
            subs, source = [deref(p.head), deref(p.tail)], f"{t}.head, {t}.tail"
        elif pt is Struct:
            clash = (f"type({t}) is not Struct or {t}.functor != {self.const(p.functor)}"
                     f" or len({t}.args) != {len(p.args)}")
            subs, source = [deref(a) for a in p.args], f"{t}.args"
        elif pt is Tup:
            clash = f"type({t}) is not Tup or len({t}.args) != {len(p.args)}"
            subs, source = [deref(a) for a in p.args], f"{t}.args"
        else:
            raise TypeError(f"bad pattern term {p!r}")
        if self.direct:
            # The only blocking site: an unbound argument suspends the rule.
            self.emit(f"while type({t}) is Var:", indent)
            self.emit(f"if {t}.ref is _U:", indent + 1)
            self.emit(f"blocked.append({t})", indent + 2)
            self.emit("return None", indent + 2)
            self.emit(f"{t} = {t}.ref", indent + 1)
            self.emit(f"if {clash}:", indent)
            self.emit("return None", indent + 1)
        else:
            self._deref(t, indent)
            self.emit(f"if type({t}) is Var:", indent)
            self.emit(f"{self.blockers()}.append({t})", indent + 1)
            self.emit(f"elif {clash}:", indent)
            self.emit("return None", indent + 1)
            self.emit("else:", indent)
            indent += 1
        start = len(self.lines)
        before = set(self.assigned)
        targets = self._targets(subs)
        if any(target != "_" for target in targets):
            self.emit(f"{_tuple_src(targets)} = {source}", indent)
        self._children(subs, targets, indent)
        # Variables first bound below stay unbound when the argument was.
        self.assigned = before
        if len(self.lines) == start and not self.direct:
            self.lines.pop()  # nothing to do below: drop the ``else:``

    # -- guards ------------------------------------------------------------
    def _guard(self, g: Term) -> bool:
        """Emit one guard; False when it always fails (code after it is
        unreachable)."""
        name = g.functor if type(g) is Struct else None
        arity = len(g.args) if type(g) is Struct else -1
        if arity == 2 and name in _COMPARISONS:
            rb = self.blockers()
            self.emit("try:", 0)
            lhs = self._operand(g.args[0])
            # The right side is built only once the left side evaluated.
            before = set(self.assigned)
            rhs = self._operand(g.args[1])
            self.assigned = before
            if self.lines[-1] == "try:":
                self.emit("pass", 1)  # two numeric constants
            self.emit("except Suspend as e:", 0)
            self.emit(f"{rb}.extend(e.variables)", 1)
            if self.direct:
                self.emit("return None", 1)
            self.emit("except ArithFail:", 0)
            self.emit("return None", 1)
            self.emit("else:", 0)
            self.emit(f"if not ({lhs} {_COMPARISONS[name]} {rhs}):", 1)
            self.emit("return None", 2)
        elif arity == 2 and name in ("==", "\\=="):
            rb = self.blockers()
            lhs = self._build(g.args[0], 0)
            rhs = self._build(g.args[1], 0)
            decided, equal = self.temp(), self.temp()
            self.emit(f"{decided}, {equal} = _ground_equal({lhs}, {rhs}, {rb})", 0)
            if self.direct:  # undecided: the blocker is already recorded
                fails = f"not {decided} or " + (f"not {equal}" if name == "==" else equal)
            else:
                fails = f"{decided} and " + (f"not {equal}" if name == "==" else equal)
            self.emit(f"if {fails}:", 0)
            self.emit("return None", 1)
        elif arity == 1 and (name in GUARD_TESTS or name == "known"):
            x = self.temp()
            self.emit(f"{x} = {self._build(g.args[0], 0)}", 0)
            self._deref(x, 0)
            self.emit(f"if type({x}) is Var:", 0)
            self._block(x, 1)
            if name != "known":
                self.emit(f"elif not {self.const(GUARD_TESTS[name])}({x}):", 0)
                self.emit("return None", 1)
        else:
            self.emit("return None", 0)
            return False
        return True

    def _operand(self, term: Term) -> str:
        """A local holding the value of one comparison operand, evaluated
        inside the guard's ``try`` block (exactly as ``eval_arith`` would)."""
        term = deref(term)
        if type(term) is int or type(term) is float:
            return self.const(term)
        value = self._build(term, 1)
        x = self.temp()
        if type(term) is not Var:
            self.emit(f"{x} = eval_arith({value})", 1)
            return x
        self.emit(f"{x} = {value}", 1)
        self._deref(x, 1)
        self.emit(f"if type({x}) is not int and type({x}) is not float:", 1)
        self.emit(f"{x} = eval_arith({x})", 2)
        return x

    # -- body and guard terms ------------------------------------------------
    def _build(self, term: Term, indent: int, depth: int = 0) -> str:
        """An expression building ``term``.

        Fresh variables are created by statements emitted here, depth-first
        left to right, so they come into being in the order the rule is
        read.  Ground subterms free of tuples (which ``put_arg`` mutates)
        are shared constants.  Structures nest as expressions down to
        :data:`_SPILL_DEPTH`; deeper ones are built by statements.
        """
        term = deref(term)
        tt = type(term)
        if tt is Var:
            key = id(term)
            name = self.local(term)
            if key not in self.seen:
                self.seen.add(key)
                self.assigned.add(key)
                self.emit(f"{name} = Var({self.const(term.name)})", indent)
            elif key not in self.assigned:
                self._maybe(term)
                self.emit(f"if {name} is None:", indent)
                self.emit(f"{name} = Var({self.const(term.name)})", indent + 1)
            return name
        if tt is not Struct and tt is not Cons and tt is not Tup:
            return self.const(term)  # atoms, numbers, strings are immutable
        mark = len(self.consts)
        subs = (term.head, term.tail) if tt is Cons else term.args
        parts = [self._build(a, indent, depth + 1) for a in subs]
        if tt is not Tup and all(part[0] == "k" for part in parts):
            del self.consts[mark:]
            return self.const(term)
        if tt is Cons:
            source = f"Cons({parts[0]}, {parts[1]})"
        elif tt is Tup:
            source = f"Tup([{', '.join(parts)}])"
        else:
            source = f"Struct({self.const(term.functor)}, ({_tuple_src(parts)}))"
        if depth % _SPILL_DEPTH or not depth:
            return source
        name = self.temp()
        self.emit(f"{name} = {source}", indent)
        return name


# ---------------------------------------------------------------------------
# Rules, procedures, programs
# ---------------------------------------------------------------------------

#: Bucket keys for first-argument indexing; ``None`` = variable (wildcard).
IndexKey = Any


def pattern_index_key(pattern: Term) -> IndexKey:
    """The index-bucket key of a head's first-argument pattern."""
    pattern = deref(pattern)
    pt = type(pattern)
    if pt is Var:
        return None
    if pt is Atom:
        return ("a", pattern.name)
    if pt is int or pt is float:
        # 1 and 1.0 hash/compare equal, which is exactly right: numeric
        # head patterns match goals across int/float.
        return ("n", pattern)
    if pt is str:
        return ("s", pattern)
    if pt is Cons:
        return ("c",)
    if pt is Tup:
        return ("t", len(pattern.args))
    if pt is Struct:
        return ("f", pattern.functor, len(pattern.args))
    raise TypeError(f"bad pattern term {pattern!r}")


def goal_index_key(arg: Term) -> IndexKey:
    """The bucket key of a goal's (already dereffed, non-Var) first arg."""
    at = type(arg)
    if at is Atom:
        return ("a", arg.name)
    if at is int or at is float:
        return ("n", arg)
    if at is str:
        return ("s", arg)
    if at is Cons:
        return ("c",)
    if at is Tup:
        return ("t", len(arg.args))
    if at is Struct:
        return ("f", arg.functor, len(arg.args))
    raise TypeError(f"bad goal argument {arg!r}")


class CompiledRule:
    """One rule lowered to its generated function ``fn(args, blocked)``,
    plus a back-pointer to its source rule."""

    __slots__ = ("rule", "order", "index_key", "fn")

    def __init__(self, rule: Rule, order: int):
        COMPILE_STATS["rules"] += 1
        self.rule = rule
        self.order = order  # textual position within the procedure
        lowering = _Lowering(rule)
        # The constants are the defaults of the trailing ``k`` parameters.
        self.fn = FunctionType(_rule_code(lowering.source), _RULE_GLOBALS, "rule",
                               tuple(lowering.consts))
        args = rule.head.args
        self.index_key = pattern_index_key(args[0]) if args else None

    @property
    def source(self) -> str:
        """The generated source of :attr:`fn` (rebuilt on demand: it is a
        debugging aid, not kept per rule)."""
        return _Lowering(self.rule).source

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CompiledRule #{self.order} {self.rule.indicator}>"


class CompiledProcedure:
    """All compiled rules of one procedure, with first-argument buckets."""

    __slots__ = ("name", "arity", "rules", "buckets", "wildcards", "indexed")

    def __init__(self, proc: Procedure, index: bool = True):
        self.name = proc.name
        self.arity = proc.arity
        self.rules = tuple(
            CompiledRule(rule, order) for order, rule in enumerate(proc.rules)
        )
        keys = {r.index_key for r in self.rules}
        self.indexed = (
            index
            and self.arity > 0
            and len(self.rules) > 1
            and keys != {None}
        )
        if self.indexed:
            # Wildcard rules (var-headed first argument) appear in every
            # bucket; textual order within each bucket is preserved, so the
            # committed rule is always the first textual match.
            self.wildcards = tuple(r for r in self.rules if r.index_key is None)
            buckets: dict[IndexKey, list[CompiledRule]] = {}
            for key in keys:
                if key is None:
                    continue
                buckets[key] = [
                    r for r in self.rules
                    if r.index_key is None or r.index_key == key
                ]
            self.buckets = {key: tuple(rules) for key, rules in buckets.items()}
        else:
            self.wildcards = self.rules
            self.buckets = {}

    @property
    def indicator(self) -> tuple[str, int]:
        return (self.name, self.arity)

    def candidates(self, goal_args: tuple) -> tuple[CompiledRule, ...]:
        """The (ordered) rules that could match or suspend on this goal."""
        if not self.indexed:
            return self.rules
        first = deref(goal_args[0])
        if type(first) is Var:
            return self.rules
        return self.buckets.get(goal_index_key(first), self.wildcards)

    def select(self, goal_args: tuple) -> tuple[CompiledRule, tuple] | None:
        """Committed choice: the first textually-matching rule and its
        instantiated body goals.  Raises :class:`Suspend` when no rule
        matches yet but some could; returns ``None`` on definite failure."""
        blocked: list = []
        for crule in self.candidates(goal_args):
            goals = crule.fn(goal_args, blocked)
            if goals is not None:
                return crule, goals
        if blocked:
            raise Suspend(blocked)
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "indexed" if self.indexed else "linear"
        return f"<CompiledProcedure {self.name}/{self.arity} {mode} {len(self.rules)} rules>"


class CompiledProgram:
    """A program lowered for execution: interned symbol table plus one
    :class:`CompiledProcedure` per procedure."""

    __slots__ = ("program", "symbols", "procedures", "indexed", "motif_of")

    def __init__(self, program: Program, *, index: bool = True):
        COMPILE_STATS["programs"] += 1
        self.program = program
        self.indexed = index
        self.symbols = symbol_table(program)
        self.procedures: dict[tuple[str, int], CompiledProcedure] = {}
        # Provenance view: indicator -> motif tag of its first rule
        # (``None`` for user-written procedures).  Per-rule tags stay on
        # ``CompiledRule.rule.motif``; this map answers the common "which
        # layer owns this procedure?" query without touching rules.
        self.motif_of: dict[tuple[str, int], str | None] = {}
        for indicator in self.symbols.indicators:
            proc = program.procedure(*indicator)
            if proc is not None:
                self.procedures[indicator] = CompiledProcedure(proc, index=index)
                self.motif_of[indicator] = (
                    proc.rules[0].motif if proc.rules else None
                )

    def procedure(self, indicator: tuple[str, int]) -> CompiledProcedure | None:
        return self.procedures.get(indicator)

    def __contains__(self, indicator: tuple[str, int]) -> bool:
        return indicator in self.procedures

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "indexed" if self.indexed else "linear"
        return f"<CompiledProgram {self.program.name!r} {mode} {len(self.procedures)} procedures>"


def compile_program(program: Program, *, index: bool = True) -> CompiledProgram:
    """Compile ``program`` (cached per program instance and version).

    Two cache slots per program — indexed and linear — so the benchmark
    ablation can hold both without recompiling either.
    """
    cache = getattr(program, "_compiled_cache", None)
    if cache is None:
        cache = {}
        program._compiled_cache = cache
    entry = cache.get(index)
    if entry is not None and entry[0] == program.version:
        COMPILE_STATS["hits"] += 1
        return entry[1]
    compiled = CompiledProgram(program, index=index)
    cache[index] = (program.version, compiled)
    return compiled
