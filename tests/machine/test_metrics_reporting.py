"""Uniform counter surfaces: ``MachineMetrics.counters()``, the extended
``summary()`` fault section, the shared ``metrics_table`` report, and the
gantt's truncation warning."""

from repro.analysis.reporting import metrics_table
from repro.apps.arithmetic import eval_arith_node, paper_example_tree
from repro.core.api import Supervise, reduce_tree
from repro.machine import FaultPlan, Machine, Trace
from repro.machine.gantt import render_gantt


def crash_run():
    machine = Machine(4, seed=11, trace=True,
                      faults=FaultPlan(crash={3: 25.0}))
    result = reduce_tree(paper_example_tree(), eval_arith_node,
                         supervise=Supervise(), machine=machine)
    return result.metrics, machine


class TestCounters:
    def test_counters_cover_every_fault_family(self):
        metrics, _ = crash_run()
        counters = metrics.counters()
        for family in ("crashes", "messages_dropped", "processes_abandoned",
                       "processes_migrated", "orphaned_suspensions",
                       "sup_timeouts", "sup_retries", "rel_retransmits",
                       "rel_acks", "trace_dropped"):
            assert family in counters
        assert counters["crashes"] == 1

    def test_counters_match_the_attribute_values(self):
        metrics, _ = crash_run()
        for name, value in metrics.counters().items():
            assert getattr(metrics, name) == value

    def test_summary_reports_migrations_and_timeouts(self):
        machine = Machine(4, seed=11,
                          faults=FaultPlan(crash={3: 25.0}, migrate=True))
        result = reduce_tree(paper_example_tree(), eval_arith_node,
                             supervise=Supervise(), machine=machine)
        text = result.metrics.summary()
        assert "migrated=" in text
        assert "timeouts=" in text

    def test_summary_flags_a_truncated_trace(self):
        machine = Machine(4, seed=0)
        machine.trace = Trace(enabled=True, limit=16)
        result = reduce_tree(paper_example_tree(), eval_arith_node,
                             machine=machine, strategy="tr1")
        assert "trace_dropped=" in result.metrics.summary()
        assert "trace truncated" in result.metrics.summary()


class TestMetricsTable:
    def test_table_includes_headline_and_counter_rows(self):
        metrics, _ = crash_run()
        text = metrics_table(metrics).render()
        assert "machine metrics" in text
        assert "makespan" in text
        assert "crashes" in text
        assert "rel_acks" in text

    def test_truncation_note_appears_only_when_dropped(self):
        metrics, _ = crash_run()
        assert "trace truncated" not in metrics_table(metrics).render()
        machine = Machine(4, seed=0)
        machine.trace = Trace(enabled=True, limit=16)
        result = reduce_tree(paper_example_tree(), eval_arith_node,
                             machine=machine, strategy="tr1")
        assert "trace truncated" in metrics_table(result.metrics).render()


class TestGanttTruncationWarning:
    def test_truncated_trace_warns(self):
        machine = Machine(4, seed=0)
        machine.trace = Trace(enabled=True, limit=16)
        result = reduce_tree(paper_example_tree(), eval_arith_node,
                             machine=machine, strategy="tr1")
        text = render_gantt(machine.trace, 4, result.metrics.makespan)
        assert "WARNING: trace truncated" in text
        assert str(machine.trace.dropped) in text

    def test_complete_trace_does_not_warn(self):
        machine = Machine(4, seed=0, trace=True)
        result = reduce_tree(paper_example_tree(), eval_arith_node,
                             machine=machine, strategy="tr1")
        text = render_gantt(machine.trace, 4, result.metrics.makespan)
        assert "WARNING" not in text
