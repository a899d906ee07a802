"""Tree-Reduce-1 and static-partition tests (§3.1, §3.4), with the central
correctness property: every strategy computes the sequential fold."""

from hypothesis import given, settings, strategies as st

from repro.apps.arithmetic import arithmetic_tree, eval_arith_node
from repro.apps.trees import sequential_reduce, tree_size
from repro.core.api import reduce_tree
from repro.motifs.tree_reduce1 import TREE1_LIBRARY, tree_reduce_1
from repro.strand.parser import parse_program


class TestTree1Library:
    def test_is_the_paper_five_liner(self):
        program = parse_program(TREE1_LIBRARY)
        reduce = program.procedure("reduce", 2)
        assert len(reduce.rules) == 2
        assert program.rule_count() == 2

    def test_stack_composition_order(self):
        motif = tree_reduce_1()
        names = [m.name for m in motif.stages()]
        assert names[0] == "tree1"
        assert names[1] == "termination"
        assert names[2] == "rand"
        assert names[3].startswith("server")

    def test_stack_without_termination(self):
        names = [m.name for m in tree_reduce_1(termination=False).stages()]
        assert "termination" not in names


class TestCorrectnessFixed:
    def test_various_shapes(self):
        for shape in ("random", "balanced", "skewed"):
            tree = arithmetic_tree(12, seed=4, shape=shape)
            expected = sequential_reduce(tree, eval_arith_node)
            got = reduce_tree(tree, eval_arith_node, processors=4,
                              strategy="tr1", seed=1).value
            assert got == expected, shape

    def test_two_leaves(self):
        tree = arithmetic_tree(2, seed=0)
        expected = sequential_reduce(tree, eval_arith_node)
        assert reduce_tree(tree, eval_arith_node, processors=2,
                           strategy="tr1").value == expected

    def test_more_processors_than_nodes(self):
        tree = arithmetic_tree(3, seed=1)
        expected = sequential_reduce(tree, eval_arith_node)
        assert reduce_tree(tree, eval_arith_node, processors=16,
                           strategy="tr1").value == expected

    def test_merge_server_library_variant(self):
        tree = arithmetic_tree(8, seed=2)
        expected = sequential_reduce(tree, eval_arith_node)
        got = reduce_tree(tree, eval_arith_node, processors=3,
                          strategy="tr1", server_library="merge").value
        assert got == expected

    def test_static_strategy(self):
        for shape in ("random", "balanced", "skewed"):
            tree = arithmetic_tree(10, seed=7, shape=shape)
            expected = sequential_reduce(tree, eval_arith_node)
            got = reduce_tree(tree, eval_arith_node, processors=4,
                              strategy="static").value
            assert got == expected, shape

    def test_static_single_processor(self):
        tree = arithmetic_tree(6, seed=3)
        expected = sequential_reduce(tree, eval_arith_node)
        assert reduce_tree(tree, eval_arith_node, processors=1,
                           strategy="static").value == expected


# The central property (experiment E2's backbone): for random trees, any
# processor count, any seed, any topology — parallel reduction equals the
# sequential fold.
@given(
    leaves=st.integers(min_value=2, max_value=14),
    tree_seed=st.integers(min_value=0, max_value=10**6),
    processors=st.integers(min_value=1, max_value=8),
    machine_seed=st.integers(min_value=0, max_value=10**6),
    strategy=st.sampled_from(["tr1", "static"]),
)
@settings(max_examples=30, deadline=None)
def test_reduction_equals_fold_property(leaves, tree_seed, processors,
                                        machine_seed, strategy):
    tree = arithmetic_tree(leaves, seed=tree_seed)
    expected = sequential_reduce(tree, eval_arith_node)
    result = reduce_tree(tree, eval_arith_node, processors=processors,
                         strategy=strategy, seed=machine_seed)
    assert result.value == expected


class TestSchedulingBehaviour:
    def test_work_spreads_across_processors(self):
        tree = arithmetic_tree(64, seed=5)
        result = reduce_tree(tree, eval_arith_node, processors=4,
                             strategy="tr1", seed=2)
        busy_procs = sum(1 for b in result.metrics.busy if b > 0)
        assert busy_procs == 4

    def test_eval_runs_once_per_internal_node(self):
        tree = arithmetic_tree(20, seed=6)
        internal = tree_size(tree) - 20
        result = reduce_tree(tree, eval_arith_node, processors=4,
                             strategy="tr1", seed=0)
        assert result.metrics.tasks_started == internal

    def test_different_seeds_different_schedules(self):
        tree = arithmetic_tree(32, seed=8)
        a = reduce_tree(tree, eval_arith_node, processors=4,
                        strategy="tr1", seed=1).metrics
        b = reduce_tree(tree, eval_arith_node, processors=4,
                        strategy="tr1", seed=2).metrics
        assert a.busy != b.busy  # random mapping differs

    def test_same_seed_reproducible(self):
        tree = arithmetic_tree(32, seed=8)
        a = reduce_tree(tree, eval_arith_node, processors=4,
                        strategy="tr1", seed=3).metrics
        b = reduce_tree(tree, eval_arith_node, processors=4,
                        strategy="tr1", seed=3).metrics
        assert a.busy == b.busy
        assert a.makespan == b.makespan


class TestLayers:
    """Reliable and Supervise are keyword layers of Tree-Reduce-1, each at
    its one place in the stack."""

    def _names(self, **layers):
        return [m.name for m in tree_reduce_1(**layers).pipeline]

    def test_stack_shapes(self):
        from repro.motifs.reliable import Reliable
        from repro.motifs.supervisor import Supervise

        assert self._names(reliable=Reliable()) == [
            "tree1", "rand", "reliable", "server[ports]"]
        assert self._names(supervise=Supervise()) == [
            "tree1-sup", "supervise", "rand", "server[ports]"]
        assert self._names(reliable=Reliable(), supervise=Supervise()) == [
            "tree1-sup", "supervise", "rand", "reliable", "server[ports]"]
        # No termination stage under a layer, whatever ``termination`` says.
        assert "termination" in self._names()
        assert "termination" not in self._names(
            reliable=Reliable(), termination=True)

    def test_layers_need_tr1(self):
        import pytest

        from repro.errors import ReproError
        from repro.motifs.reliable import Reliable

        tree = arithmetic_tree(4, seed=1)
        with pytest.raises(ReproError, match="strategy 'tr1' only"):
            reduce_tree(tree, eval_arith_node, strategy="tr2", reliable=Reliable())

    def test_reliable_parameters_are_checked(self):
        import pytest

        from repro.motifs.reliable import Reliable

        with pytest.raises(ValueError, match="retries"):
            Reliable(retries=-1)
        with pytest.raises(ValueError, match="timeout"):
            Reliable(timeout=50.0, max_timeout=10.0)

    def test_registry_builds_layers_through_tree_reduce_1(self):
        from repro.core.registry import default_registry, get_motif
        from repro.motifs.supervisor import Supervise

        motif = get_motif("tree-reduce-1", supervise=Supervise(retries=1))
        assert motif.pipeline[0].name == "tree1-sup"
        names = set(default_registry().names())
        assert "reliable-tree-reduce" not in names
        assert "supervised-tree-reduce" not in names
