"""The compile layer: symbol tables, generated rule functions, and
first-argument indexing.

The load-bearing property: the generated rule functions, selected through
the first-argument index or by a linear scan, must be observationally
identical to the interpretive reference matcher (``tests/strand/oracle.py``)
— same committed rule (the first *textual* match), same body goals, same
suspension variables in the same order, same definite failures — on
arbitrary programs and goals.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StrandError
from repro.strand import parse_program, run_query
from repro.strand.arith import Suspend
from repro.strand.compile import (
    CODE_CACHE_SIZE,
    COMPILE_STATS,
    MAX_HEAD_DEPTH,
    CompiledProcedure,
    CompiledRule,
    _rule_code,
    compile_program,
    symbol_table,
)
from repro.strand.program import Procedure, Rule
from repro.strand.terms import Atom, Cons, NIL, Struct, Tup, Var, deref, make_list
from tests.strand.oracle import MatchResult, eval_guards, instantiate, match_head


# ---------------------------------------------------------------------------
# Reference selector: the interpretive matcher, rule by rule
# ---------------------------------------------------------------------------

def _goal_var_ids(term):
    ids = set()
    stack = [term]
    while stack:
        t = deref(stack.pop())
        tt = type(t)
        if tt is Var:
            ids.add(id(t))
        elif tt is Struct or tt is Tup:
            stack.extend(t.args)
        elif tt is Cons:
            stack.append(t.head)
            stack.append(t.tail)
    return ids


def _canon_vars(variables, goal_vars):
    """Blocking variables in order: goal variables by identity, variables
    the rule created (guard-fresh) by name — their identity is per run."""
    return [("goal", id(v)) if id(v) in goal_vars else ("fresh", v.name)
            for v in (deref(v) for v in variables)]


def _canon_body(goals, goal_vars):
    """Structure of instantiated body goals.  Goal variables compare by
    identity; fresh variables by name and by first-appearance number, so
    sharing across the goals of one body is part of the comparison."""
    fresh: dict[int, int] = {}

    def canon(term):
        term = deref(term)
        tt = type(term)
        if tt is Var:
            if id(term) in goal_vars:
                return ("goal", id(term))
            return ("fresh", term.name, fresh.setdefault(id(term), len(fresh)))
        if tt is Struct:
            return ("f", term.functor, tuple(canon(a) for a in term.args))
        if tt is Tup:
            return ("t", tuple(canon(a) for a in term.args))
        if tt is Cons:
            return ("c", canon(term.head), canon(term.tail))
        return (tt.__name__, term)

    return [canon(goal) for goal in goals]


def reference_rule(rule, goal):
    """One rule against one goal: ("commit", body) | ("suspend", blockers)
    | ("fail",), all from the interpretive matcher."""
    goal_vars = _goal_var_ids(goal)
    m = match_head(rule.head, goal)
    if m.status == MatchResult.FAILED:
        return ("fail",)
    if m.status == MatchResult.SUSPENDED:
        return ("suspend", _canon_vars(m.blocked, goal_vars))
    g = eval_guards(rule.guards, m.env)
    if g.status == MatchResult.FAILED:
        return ("fail",)
    if g.status == MatchResult.SUSPENDED:
        return ("suspend", _canon_vars(g.blocked, goal_vars))
    fresh: dict = {}
    body = [instantiate(b, m.env, fresh) for b in rule.body]
    return ("commit", _canon_body(body, goal_vars))


def generated_rule(crule, goal):
    """The same outcome from one generated rule function."""
    goal_vars = _goal_var_ids(goal)
    blocked = []
    goals = crule.fn(goal.args, blocked)
    if goals is not None:
        assert blocked == []
        return ("commit", _canon_body(goals, goal_vars))
    if blocked:
        return ("suspend", _canon_vars(blocked, goal_vars))
    return ("fail",)


def reference_select(rules, goal):
    """("commit", index, body) | ("suspend", ordered blockers) | ("fail",)"""
    blocked = []
    for index, rule in enumerate(rules):
        outcome = reference_rule(rule, goal)
        if outcome[0] == "commit":
            return ("commit", index, outcome[1])
        if outcome[0] == "suspend":
            blocked.extend(outcome[1])
    if blocked:
        return ("suspend", blocked)
    return ("fail",)


def compiled_select(compiled: CompiledProcedure, goal):
    goal_vars = _goal_var_ids(goal)
    try:
        selected = compiled.select(goal.args)
    except Suspend as s:
        return ("suspend", _canon_vars(s.variables, goal_vars))
    if selected is None:
        return ("fail",)
    crule, goals = selected
    return ("commit", crule.order, _canon_body(goals, goal_vars))


# ---------------------------------------------------------------------------
# Strategies: rules are drawn as abstract terms, then built with fresh
# variables per rule, so the same rule variable can occur several times
# (non-linear heads, guard-only and body-only variables).
# ---------------------------------------------------------------------------

_ATOMS = [Atom("a"), Atom("b"), Atom("c"), NIL]


def _shapes(leaf):
    return st.recursive(
        leaf,
        lambda sub: st.one_of(
            st.tuples(st.just("f"), sub),
            st.tuples(st.just("g"), sub, sub),
            st.tuples(st.just("cons"), sub, sub),
            st.tuples(st.just("tup"), st.lists(sub, min_size=0, max_size=2)),
        ),
        max_leaves=5,
    )


_CONSTANTS = st.one_of(
    st.sampled_from(_ATOMS),
    st.integers(min_value=0, max_value=3),
    st.sampled_from([1.0, 2.5]),
    st.sampled_from(["s1", "s2"]),
)
_RULE_VAR = st.tuples(st.just("var"), st.integers(min_value=0, max_value=2))
_PATTERNS = _shapes(st.one_of(_CONSTANTS, _RULE_VAR))
_BODY_TERMS = _shapes(st.one_of(
    _CONSTANTS, _RULE_VAR, st.tuples(st.just("var"), st.just(3)),
))
_ARITH = st.recursive(
    st.one_of(
        _RULE_VAR,
        st.tuples(st.just("var"), st.just(3)),  # guard-only: never bound
        st.integers(min_value=0, max_value=3),
        st.just(Atom("a")),  # not a number: ArithFail
    ),
    lambda sub: st.tuples(st.sampled_from(["mod", "+"]), sub, sub),  # mod 0 fails
    max_leaves=3,
)
_GUARDS = st.one_of(
    st.tuples(st.just("cmp"), st.sampled_from(["<", ">", "=<", ">=", "=\\=", "=:="]),
              _ARITH, _ARITH),
    st.tuples(st.just("eq"), st.sampled_from(["==", "\\=="]), _BODY_TERMS, _BODY_TERMS),
    st.tuples(st.just("test"), st.sampled_from(
        ["integer", "number", "float", "atom", "string", "list", "tuple", "known"]),
        _BODY_TERMS),
    st.sampled_from([("atom", "true"), ("atom", "otherwise"), ("atom", "fail")]),
)


def _build(spec, rule_vars):
    if isinstance(spec, tuple):
        kind = spec[0]
        if kind == "var":
            return rule_vars[spec[1]]
        if kind == "f":
            return Struct("f", (_build(spec[1], rule_vars),))
        if kind == "g":
            return Struct("g", (_build(spec[1], rule_vars), _build(spec[2], rule_vars)))
        if kind == "cons":
            return Cons(_build(spec[1], rule_vars), _build(spec[2], rule_vars))
        if kind == "tup":
            return Tup([_build(s, rule_vars) for s in spec[1]])
        if kind in ("mod", "+"):
            return Struct(kind, (_build(spec[1], rule_vars), _build(spec[2], rule_vars)))
        raise AssertionError(spec)
    return spec


def _guard(spec, rule_vars):
    kind = spec[0]
    if kind == "atom":
        return Atom(spec[1])
    if kind == "test":
        return Struct(spec[1], (_build(spec[2], rule_vars),))
    return Struct(spec[1], (_build(spec[2], rule_vars), _build(spec[3], rule_vars)))


@st.composite
def _rules(draw):
    rule_vars = [Var(name) for name in ("X", "Y", "Z", "W")]
    head = Struct("p", tuple(_build(draw(_PATTERNS), rule_vars) for _ in range(2)))
    guards = [_guard(g, rule_vars) for g in draw(st.lists(_GUARDS, max_size=2))]
    body = [Struct("q", tuple(_build(t, rule_vars) for t in args))
            for args in draw(st.lists(st.lists(_BODY_TERMS, max_size=3), max_size=3))]
    return Rule(head=head, guards=guards, body=body)


@st.composite
def _procedures(draw):
    proc = Procedure("p", 2)
    for rule in draw(st.lists(_rules(), min_size=1, max_size=6)):
        proc.add(rule)
    return proc


_GOAL_LEAVES = st.one_of(
    st.sampled_from(_ATOMS),
    st.integers(min_value=0, max_value=4),
    st.sampled_from([1.0, 2.5, "s1", "s2"]),
)


def _goal_like(draw, head):
    """A goal for ``head``: mostly its own shape with values for the rule
    variables, but any subterm may be an unbound goal variable (shared
    across the goal), another constant, or hidden behind a bound variable —
    so goals match, clash and suspend in every position."""
    goal_vars = [Var("G0"), Var("G1")]
    values = {}

    def convert(term):
        term = deref(term)
        mode = draw(st.integers(min_value=0, max_value=11))
        if mode == 0:
            return draw(st.sampled_from(goal_vars))
        if mode == 1:
            return draw(_GOAL_LEAVES)
        tt = type(term)
        if tt is Var:
            if id(term) not in values or mode == 2:
                values[id(term)] = draw(st.one_of(
                    _GOAL_LEAVES, st.sampled_from(goal_vars),
                    st.builds(lambda a: Struct("f", (a,)), _GOAL_LEAVES),
                ))
            value = values[id(term)]
        elif tt is Struct:
            value = Struct(term.functor, tuple(convert(a) for a in term.args))
        elif tt is Cons:
            value = Cons(convert(term.head), convert(term.tail))
        elif tt is Tup:
            value = Tup([convert(a) for a in term.args])
        else:
            value = term
        if mode == 3:
            bound = Var("B")
            bound.bind(value)
            return bound
        return value

    return Struct("p", tuple(convert(a) for a in head.args))


@st.composite
def _rule_and_goal(draw):
    rule = draw(_rules())
    return rule, _goal_like(draw, rule.head)


@st.composite
def _procedure_and_goal(draw):
    proc = draw(_procedures())
    return proc, _goal_like(draw, draw(st.sampled_from(proc.rules)).head)


class TestIndexedEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(_procedure_and_goal())
    def test_indexed_selection_matches_linear_and_reference(self, case):
        proc, goal = case
        indexed = CompiledProcedure(proc, index=True)
        linear = CompiledProcedure(proc, index=False)
        expected = reference_select(proc.rules, goal)
        assert compiled_select(linear, goal) == expected
        assert compiled_select(indexed, goal) == expected

    @settings(max_examples=500, deadline=None)
    @given(_rule_and_goal())
    def test_rule_function_matches_oracle(self, case):
        rule, goal = case
        # Commit with the same body, suspension on the same variables in
        # the same order, or definite failure leaving ``blocked`` alone.
        assert generated_rule(CompiledRule(rule, 0), goal) == reference_rule(rule, goal)

    def test_var_headed_rules_stay_in_every_bucket(self):
        proc = Procedure("p", 1)
        proc.add(Rule(head=Struct("p", (Atom("a"),)), body=[]))
        wildcard = Rule(head=Struct("p", (Var("X"),)), body=[])
        proc.add(wildcard)
        proc.add(Rule(head=Struct("p", (Atom("b"),)), body=[]))
        compiled = CompiledProcedure(proc, index=True)
        assert compiled.indexed
        for key, bucket in compiled.buckets.items():
            assert any(r.rule is wildcard for r in bucket), key
        # Textual order inside the bucket: a-rule before the wildcard.
        a_bucket = compiled.buckets[("a", "a")]
        assert [r.order for r in a_bucket] == [0, 1]
        # Unseen key → only the wildcard can match.
        assert [r.order for r in compiled.candidates((Atom("zzz"),))] == [1]
        # Unbound first argument → the full rule list, in order.
        assert [r.order for r in compiled.candidates((Var(),))] == [0, 1, 2]

    def test_commit_order_preserved_within_bucket(self):
        # Two rules with the same key: the textually-first one commits.
        src = """
        p(k, Out) :- Out := first.
        p(k, Out) :- Out := second.
        """
        result = run_query(parse_program(src), "p(k, Out)")
        assert deref(result.bindings["Out"]) is Atom("first")

    def test_numeric_keys_cross_int_float(self):
        src = """
        p(1, Out) :- Out := one.
        p(2, Out) :- Out := two.
        """
        program = parse_program(src)
        assert deref(run_query(program, "p(1.0, Out)")["Out"]) is Atom("one")
        assert deref(run_query(program, "p(2, Out)")["Out"]) is Atom("two")


class TestCompileCache:
    def test_same_program_compiles_once(self):
        program = parse_program("p(a).\np(b).")
        first = compile_program(program)
        hits = COMPILE_STATS["hits"]
        second = compile_program(program)
        assert second is first
        assert COMPILE_STATS["hits"] == hits + 1

    def test_indexed_and_linear_cached_separately(self):
        program = parse_program("p(a).\np(b).")
        indexed = compile_program(program, index=True)
        linear = compile_program(program, index=False)
        assert indexed is not linear
        assert compile_program(program, index=True) is indexed
        assert compile_program(program, index=False) is linear

    def test_mutation_invalidates(self):
        program = parse_program("p(a).")
        first = compile_program(program)
        program.add_rule(parse_program("p(b).").procedure("p", 1).rules[0])
        second = compile_program(program)
        assert second is not first
        assert len(second.procedure(("p", 1)).rules) == 2


class TestSymbolTable:
    def test_interned_indicators_are_shared(self):
        program = parse_program("go :- work, work.\nwork.")
        table = symbol_table(program)
        assert table.intern("work", 0) is table.intern("work", 0)
        assert ("go", 0) in table and ("work", 0) in table
        assert table.callees(("go", 0)) == (("work", 0), ("work", 0))

    def test_calls_look_through_placement(self):
        program = parse_program("go :- work @ 2.\nwork.")
        table = symbol_table(program)
        assert table.callees(("go", 0)) == (("work", 0),)

    def test_counts_match_program(self):
        program = parse_program("""
        go(N) :- N > 0 | work, go(N).
        go(0).
        work.
        """)
        table = symbol_table(program)
        assert table.total_rules() == program.rule_count()
        assert table.total_goals() == program.goal_count()

    def test_cached_per_version(self):
        program = parse_program("p.")
        first = symbol_table(program)
        assert symbol_table(program) is first
        program.add_rule(parse_program("q.").procedure("q", 0).rules[0])
        assert symbol_table(program) is not first


def _commit(body):
    """The body goals the rule ``p :- body`` builds (and the rule)."""
    crule = CompiledRule(Rule(head=Struct("p", ()), body=list(body)), 0)
    goals = crule.fn((), [])
    assert goals is not None
    return goals, crule


class TestTemplates:
    def test_ground_structs_are_shared(self):
        term = Struct("point", (1, 2))
        goals, _ = _commit([Struct("q", (term,))])
        assert goals[0].args[0] is term

    def test_tuples_are_never_shared(self):
        # Tup cells are mutable (put_arg), so each instantiation is fresh.
        term = Tup([1, 2])
        first, crule = _commit([Struct("q", (term,))])
        second = crule.fn((), [])
        assert first[0].args[0] is not second[0].args[0]
        assert first[0].args[0] is not term

    def test_fresh_vars_shared_across_goals_of_a_rule(self):
        shared = Var("S")
        goals, _ = _commit([Struct("f", (shared,)), Struct("g", (shared,))])
        one, two = goals
        assert one.args[0] is two.args[0]
        assert type(one.args[0]) is Var and one.args[0].name == "S"

    def test_deep_body_templates_build(self):
        # Deep non-ground bodies are built by statements, not one nested
        # expression (which the Python parser would reject).
        xs = [Var(f"X{i}") for i in range(300)]
        template = make_list(xs)
        goals, _ = _commit([Struct("q", (template,))])
        reference = instantiate(template, {}, {})
        assert _canon_body(goals[0].args, set()) == _canon_body([reference], set())

    def test_nonlinear_head_suspends_on_distinct_unbound_vars(self):
        x = Var("X")
        crule = CompiledRule(Rule(head=Struct("p", (x, x))), 0)
        g0, g1 = Var("G0"), Var("G1")
        blocked = []
        assert crule.fn((g0, g1), blocked) is None
        assert blocked == [g0]
        assert crule.fn((g0, g0), []) == ()

    def test_too_deep_head_is_rejected(self):
        pattern = Var("X")
        for _ in range(MAX_HEAD_DEPTH + 1):
            pattern = Struct("f", (pattern,))
        with pytest.raises(StrandError, match="nests deeper"):
            CompiledRule(Rule(head=Struct("p", (pattern,))), 0)


class TestCodeCache:
    def test_shape_equal_rules_share_one_code_object(self):
        program = parse_program("""
        p(a, f(X), Y) :- X > 1 | q(X, Y, [1, 2]), r(Y).
        p(b, g(U), V) :- U > 7 | s(U, V, [3]), t(V).
        """)
        first, second = compile_program(program).procedure(("p", 3)).rules
        assert first.source == second.source
        assert first.fn.__code__ is second.fn.__code__
        assert first.fn is not second.fn

    def test_code_cache_never_exceeds_its_bound(self):
        assert _rule_code.cache_info().maxsize == CODE_CACHE_SIZE
        # More distinct shapes than the bound: head arity x body length.
        for arity in range(1, 41):
            args = tuple(Var(f"A{i}") for i in range(arity))
            for goals in range(1, CODE_CACHE_SIZE // 40 + 3):
                body = [Struct("q", args)] * goals
                CompiledRule(Rule(head=Struct("p", args), body=body), 0)
                assert _rule_code.cache_info().currsize <= CODE_CACHE_SIZE
        assert _rule_code.cache_info().currsize == CODE_CACHE_SIZE


class TestEngineIndexingFlag:
    def test_linear_mode_semantics_identical(self):
        src = """
        classify(0, Out) :- Out := zero.
        classify(N, Out) :- N > 0 | Out := pos.
        classify(N, Out) :- N < 0 | Out := neg.
        """
        program = parse_program(src)
        for value, expect in ((0, "zero"), (7, "pos"), (-2, "neg")):
            on = run_query(program, f"classify({value}, Out)", indexing=True)
            off = run_query(program, f"classify({value}, Out)", indexing=False)
            assert deref(on.bindings["Out"]) is Atom(expect)
            assert deref(off.bindings["Out"]) is Atom(expect)
            assert on.metrics.reductions == off.metrics.reductions
