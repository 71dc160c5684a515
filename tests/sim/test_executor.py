"""Tests for the schedule executor (simulation semantics)."""

import pytest

from repro.dag.generators import out_tree_dag, random_dag
from repro.instance import homogeneous_instance, make_instance
from repro.schedule.schedule import Schedule
from repro.sim.executor import execute
from repro.sim.engine import SimulationError
from repro.sim.noise import MultiplicativeNoise, NoNoise
from repro.schedulers.heft import HEFT
from repro.schedulers.duplication_tds import TDS
from repro.core import DuplicationScheduler


class TestExactReplay:
    @pytest.mark.parametrize("seed", range(4))
    def test_heft_schedules_replay_exactly(self, seed):
        dag = random_dag(40, seed=seed)
        inst = make_instance(dag, num_procs=4, heterogeneity=0.5, seed=seed)
        s = HEFT().schedule(inst)
        res = execute(s, inst)
        assert res.makespan == pytest.approx(s.makespan)

    def test_duplication_schedules_replay(self):
        dag = out_tree_dag(2, 4, cost_scale=5.0, data_scale=40.0)
        inst = make_instance(dag, num_procs=4, heterogeneity=0.5, seed=1)
        s = DuplicationScheduler().schedule(inst)
        res = execute(s, inst)
        assert res.makespan == pytest.approx(s.makespan)

    def test_tds_replay(self, topcuoglu_instance):
        s = TDS().schedule(topcuoglu_instance)
        res = execute(s, topcuoglu_instance)
        assert res.makespan <= s.makespan + 1e-9

    def test_simulation_never_exceeds_plan_without_noise(self):
        # Left-shifted replays can only be earlier.
        for seed in range(3):
            dag = random_dag(30, seed=seed)
            inst = make_instance(dag, num_procs=3, seed=seed)
            s = HEFT().schedule(inst)
            assert execute(s, inst).makespan <= s.makespan + 1e-9

    def test_copy_records_complete(self, topcuoglu_instance):
        s = HEFT().schedule(topcuoglu_instance)
        res = execute(s, topcuoglu_instance)
        assert len(res.copies) == 10
        assert res.events_processed > 0

    def test_end_of(self, topcuoglu_instance):
        s = HEFT().schedule(topcuoglu_instance)
        res = execute(s, topcuoglu_instance)
        assert res.end_of(10) == pytest.approx(res.makespan)
        with pytest.raises(SimulationError):
            res.end_of("ghost")


class TestHandBuiltSemantics:
    def test_remote_data_delays_start(self, diamond_dag):
        inst = homogeneous_instance(diamond_dag, num_procs=2, bandwidth=1.0)
        s = Schedule(inst.machine)
        s.add("a", 0, 0.0, 2.0)
        s.add("b", 0, 2.0, 4.0)
        s.add("c", 1, 3.0, 3.0)
        s.add("d", 0, 8.0, 2.0)
        res = execute(s, inst)
        d = next(c for c in res.copies if c.task == "d")
        assert d.start == pytest.approx(8.0)  # waits for c's remote data

    def test_left_shift_closes_idle(self, diamond_dag):
        # Artificially padded schedule: simulation starts tasks as soon
        # as ready, ignoring the pad.
        inst = homogeneous_instance(diamond_dag, num_procs=2, bandwidth=1e9)
        s = Schedule(inst.machine)
        s.add("a", 0, 0.0, 2.0)
        s.add("b", 0, 10.0, 4.0)   # padded start
        s.add("c", 1, 10.0, 3.0)
        s.add("d", 0, 20.0, 2.0)
        res = execute(s, inst)
        assert res.makespan < s.makespan
        b = next(c for c in res.copies if c.task == "b")
        assert b.start == pytest.approx(2.0)

    def test_proc_order_preserved(self, diamond_dag):
        # Even if swapping would be faster, the static per-proc sequence
        # is respected: c (planned first on P0) runs before b.
        inst = homogeneous_instance(diamond_dag, num_procs=1)
        s = Schedule(inst.machine)
        s.add("a", 0, 0.0, 2.0)
        s.add("c", 0, 2.0, 3.0)
        s.add("b", 0, 5.0, 4.0)
        s.add("d", 0, 9.0, 2.0)
        res = execute(s, inst)
        c = next(x for x in res.copies if x.task == "c")
        b = next(x for x in res.copies if x.task == "b")
        assert c.start < b.start


class TestCoincidingEntries:
    def test_tasks_sharing_a_start_and_display_string_all_run(self):
        # Regression: zero-cost task 1 and task "1" both start at 0 on
        # one processor; the per-processor sequence used to keep only "1".
        from repro.dag.graph import TaskDAG

        dag = TaskDAG()
        dag.add_task(1, cost=0.0)
        dag.add_task("1", cost=3.0)
        inst = homogeneous_instance(dag, num_procs=1)
        s = Schedule(inst.machine)
        s.add(1, 0, 0.0, 0.0)
        s.add("1", 0, 0.0, 3.0)
        res = execute(s, inst)
        assert [c.task for c in res.copies] == [1, "1"]
        assert res.all_tasks_completed(inst)
        assert res.makespan == 3.0


class TestNoise:
    def test_noise_changes_makespan(self, topcuoglu_instance):
        s = HEFT().schedule(topcuoglu_instance)
        noisy = execute(s, topcuoglu_instance, MultiplicativeNoise(0.5, seed=1))
        exact = execute(s, topcuoglu_instance, NoNoise())
        assert noisy.makespan != pytest.approx(exact.makespan)

    def test_noise_deterministic(self, topcuoglu_instance):
        s = HEFT().schedule(topcuoglu_instance)
        a = execute(s, topcuoglu_instance, MultiplicativeNoise(0.5, seed=2)).makespan
        b = execute(s, topcuoglu_instance, MultiplicativeNoise(0.5, seed=2)).makespan
        assert a == b

    def test_precedence_respected_under_noise(self, topcuoglu_instance):
        s = HEFT().schedule(topcuoglu_instance)
        res = execute(s, topcuoglu_instance, MultiplicativeNoise(0.8, seed=3))
        ends = {c.task: c.end for c in res.copies}
        starts = {c.task: c.start for c in res.copies}
        for u, v in topcuoglu_instance.dag.edges():
            assert starts[v] >= ends[u] - 1e-9 or True  # comm may be 0 local
            # Stronger: child cannot start before parent's finish when on
            # a different processor (positive transfer time).
        for c in res.copies:
            for parent in topcuoglu_instance.dag.predecessors(c.task):
                assert c.start >= min(
                    p.end for p in res.copies if p.task == parent
                ) - 1e-9
