"""Motif abstraction tests: M(A) = T(A) ∪ L, composition, metadata."""

import pytest

from repro.core.motif import ComposedMotif, Motif
from repro.errors import MotifError
from repro.strand.foreign import ForeignRegistry
from repro.strand.parser import parse_program
from repro.transform.transformation import FunctionTransformation


def renaming(name):
    """A transformation that tags every procedure by prefixing its name."""

    def fn(program):
        from repro.strand.program import Program, Rule
        from repro.strand.terms import Struct

        out = Program(name=program.name)
        for rule in program.rules():
            head = Struct(f"{name}_{rule.head.functor}", rule.head.args)
            out.add_rule(Rule(head, rule.guards, rule.body))
        return out

    return FunctionTransformation(fn, name)


class TestApply:
    def test_library_only(self):
        motif = Motif("lib", library="helper(1).")
        applied = motif.apply(parse_program("user.", name="A"))
        assert ("helper", 1) in applied.program
        assert ("user", 0) in applied.program

    def test_transformation_only(self):
        motif = Motif("t", transformation=renaming("x"))
        applied = motif.apply(parse_program("user."))
        assert ("x_user", 0) in applied.program
        assert ("user", 0) not in applied.program

    def test_application_not_mutated(self):
        app = parse_program("user.")
        Motif("lib", library="helper.").apply(app)
        assert ("helper", 0) not in app

    def test_collision_raises(self):
        motif = Motif("lib", library="user.")
        with pytest.raises(MotifError, match="lib"):
            motif.apply(parse_program("user."))

    def test_user_names_tracked(self):
        applied = Motif("lib", library="helper.").apply(parse_program("user."))
        assert applied.user_names == {"user"}
        assert ("helper", 0) in applied.library_indicators
        assert ("user", 0) not in applied.library_indicators

    def test_user_names_survive_arity_changes(self):
        # A transformation that changes a user procedure's arity keeps it
        # classified as user code (classification is by name).
        from repro.transform.argthread import ThreadArgument
        from repro.strand.terms import Struct

        motif = Motif(
            "srv",
            transformation=ThreadArgument(
                ops={("send", 2): lambda g, dt: [Struct("distribute", (*g.args, dt))]}
            ),
        )
        applied = motif.apply(parse_program("user(X) :- send(1, X)."))
        assert ("user", 2) in applied.program
        assert ("user", 2) not in applied.library_indicators

    def test_services_accumulate(self):
        m1 = Motif("a", services={("s", 1)})
        m2 = Motif("b", services={("t", 2)})
        applied = m2.apply(m1.apply(parse_program("user.")))
        assert applied.services == {("s", 1), ("t", 2)}

    def test_foreign_setup_chain(self):
        def setup(reg):
            reg.register("f", 1, lambda: 1, inputs=(), outputs=(0,))

        motif = Motif("with-foreign", foreign_setup=setup)
        applied = motif.apply(parse_program("user."))
        registry = applied.make_foreign()
        assert ("f", 1) in registry

    def test_make_foreign_does_not_mutate_base(self):
        def setup(reg):
            reg.register("f", 1, lambda: 1, inputs=(), outputs=(0,))

        base = ForeignRegistry()
        applied = Motif("m", foreign_setup=setup).apply(parse_program("user."))
        applied.make_foreign(base)
        assert ("f", 1) not in base


class TestCompose:
    def test_inner_applied_first(self):
        inner = Motif("inner", transformation=renaming("i"))
        outer = Motif("outer", transformation=renaming("o"))
        composed = outer.compose(inner)
        applied = composed.apply(parse_program("user."))
        assert ("o_i_user", 0) in applied.program

    def test_matmul_spelling(self):
        inner = Motif("inner", transformation=renaming("i"))
        outer = Motif("outer", transformation=renaming("o"))
        applied = (outer @ inner).apply(parse_program("user."))
        assert ("o_i_user", 0) in applied.program

    def test_outer_transformation_sees_inner_library(self):
        # The defining property: T2 applies to T1(A) ∪ L1.
        inner = Motif("inner", library="from_inner.")
        outer = Motif("outer", transformation=renaming("o"))
        applied = (outer @ inner).apply(parse_program("user."))
        assert ("o_from_inner", 0) in applied.program

    def test_composition_is_associative(self):
        a = Motif("a", transformation=renaming("a"))
        b = Motif("b", transformation=renaming("b"))
        c = Motif("c", transformation=renaming("c"))
        left = (c @ b) @ a
        right = c @ (b @ a)
        from repro.strand.pretty import format_program

        pa = left.apply(parse_program("user.")).program
        pb = right.apply(parse_program("user.")).program
        assert format_program(pa) == format_program(pb)

    def test_stages_flattened(self):
        a, b, c = Motif("a"), Motif("b"), Motif("c")
        composed = c @ (b @ a)
        assert [m.name for m in composed.stages()] == ["a", "b", "c"]

    def test_apply_staged_returns_intermediates(self):
        inner = Motif("inner", library="step_one.")
        outer = Motif("outer", library="step_two.")
        stages = (outer @ inner).apply_staged(parse_program("user."))
        assert len(stages) == 2
        assert ("step_one", 0) in stages[0].program
        assert ("step_two", 0) not in stages[0].program
        assert ("step_two", 0) in stages[1].program

    def test_empty_composition_rejected(self):
        with pytest.raises(MotifError):
            ComposedMotif([])

    def test_name_reads_outermost_first(self):
        a = Motif("a")
        b = Motif("b")
        assert (b @ a).name == "b ∘ a"


def _noop_builtin(engine, process, args, now):
    return 0.0


class TestMotifBuiltins:
    """``M = (T, L, B)``: a motif's builtins are gathered like its services
    and found only by engines running a program the motif was applied to."""

    def test_builtins_gather_through_composition(self):
        inner = Motif("a", library="go :- ping_a.", builtins={("ping_a", 0): _noop_builtin})
        outer = Motif("b", library="other :- ping_b.", builtins={("ping_b", 0): _noop_builtin})
        applied = ComposedMotif([inner, outer]).apply(parse_program("", name="app"))
        assert applied.builtins == {("ping_a", 0): _noop_builtin,
                                    ("ping_b", 0): _noop_builtin}
        # Forks own their table: extending one never reaches the memo.
        applied.builtins[("extra", 0)] = _noop_builtin
        again = ComposedMotif([inner, outer])
        assert ("extra", 0) not in again.apply(parse_program("", name="app")).builtins

    def test_builtin_may_not_shadow_a_core_builtin(self):
        with pytest.raises(MotifError, match="shadow core builtins: after/2"):
            Motif("bad", builtins={("after", 2): _noop_builtin})

    def test_engine_table_is_core_table_without_motif_builtins(self):
        from repro.core.api import run_applied
        from repro.machine import Machine
        from repro.strand.builtins import BUILTINS
        from repro.strand.terms import Struct

        plain = Motif("plain", library="go.").apply(parse_program("", name="app"))
        engine, _ = run_applied(plain, Struct("go", ()), Machine(1))
        assert engine.builtins is BUILTINS

        owning = Motif("own", library="go :- ping.", builtins={("ping", 0): _noop_builtin})
        engine, _ = run_applied(owning.apply(parse_program("", name="app")),
                                Struct("go", ()), Machine(1))
        assert engine.builtins is not BUILTINS
        assert engine.builtins[("ping", 0)] is _noop_builtin
        assert ("ping", 0) not in BUILTINS

    def test_core_registers_no_reliable_or_supervise_builtins(self):
        from repro.strand.builtins import BUILTINS

        names = {name for name, _ in BUILTINS}
        assert not {n for n in names if n.startswith(("rel_", "sup_"))}
        assert {("call", 1), ("after", 2), ("soft_bind", 2)} <= set(BUILTINS)

    def test_motif_primitive_unknown_without_its_motif(self):
        from repro.errors import UnknownProcedureError
        from repro.strand import run_query

        program = parse_program("go(T) :- rel_seq(2, T).")
        with pytest.raises(UnknownProcedureError, match="rel_seq/2"):
            run_query(program, "go(T)")

    def test_motif_state_is_per_engine(self):
        from repro.apps.arithmetic import eval_arith_node, paper_example_tree
        from repro.core.api import reliable_reduce_tree
        from repro.motifs.reliable import rel_state

        first = reliable_reduce_tree(paper_example_tree(), eval_arith_node)
        second = reliable_reduce_tree(paper_example_tree(), eval_arith_node)
        assert rel_state(first.engine) is not rel_state(second.engine)
        assert rel_state(first.engine).seen == rel_state(second.engine).seen
        assert len(rel_state(first.engine).seen) == first.metrics.rel_acks
