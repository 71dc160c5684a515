"""Tests for ETC matrices and their generation protocols."""

import numpy as np
import pytest

from repro.dag.generators import random_dag
from repro.dag.graph import TaskDAG
from repro.dag.task import Task
from repro.exceptions import (
    ConfigurationError,
    CostError,
    MachineError,
    UnknownProcessorError,
    UnknownTaskError,
)
from repro.machine.cluster import Machine
from repro.machine.etc import ETCMatrix, etc_from_speeds, generate_etc


@pytest.fixture
def dag() -> TaskDAG:
    return TaskDAG.from_edges([("a", "b", 1.0)], costs={"a": 10.0, "b": 20.0})


@pytest.fixture
def machine() -> Machine:
    return Machine.homogeneous(3)


class TestETCMatrix:
    def test_access(self):
        etc = ETCMatrix(["a", "b"], [0, 1], np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert etc.time("a", 1) == 2.0
        assert etc.row("b") == {0: 3.0, 1: 4.0}

    def test_aggregates(self):
        etc = ETCMatrix(["a"], [0, 1, 2], np.array([[1.0, 2.0, 6.0]]))
        assert etc.mean("a") == pytest.approx(3.0)
        assert etc.median("a") == 2.0
        assert etc.best("a") == 1.0
        assert etc.worst("a") == 6.0
        assert etc.best_proc("a") == 0

    def test_unknown_lookups(self):
        etc = ETCMatrix(["a"], [0], np.array([[1.0]]))
        with pytest.raises(UnknownTaskError):
            etc.time("z", 0)
        with pytest.raises(UnknownProcessorError):
            etc.time("a", 9)

    def test_shape_mismatch(self):
        with pytest.raises(MachineError):
            ETCMatrix(["a"], [0, 1], np.array([[1.0]]))

    def test_negative_rejected(self):
        with pytest.raises(CostError):
            ETCMatrix(["a"], [0], np.array([[-1.0]]))

    def test_nan_rejected(self):
        with pytest.raises(CostError):
            ETCMatrix(["a"], [0], np.array([[float("nan")]]))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(MachineError):
            ETCMatrix(["a", "a"], [0], np.zeros((2, 1)))

    def test_as_array_copy(self):
        etc = ETCMatrix(["a"], [0], np.array([[1.0]]))
        arr = etc.as_array()
        arr[0, 0] = 99.0
        assert etc.time("a", 0) == 1.0

    def test_caller_array_is_copied(self):
        # Regression: the matrix used to alias the caller's array, so a
        # later write changed ``time`` but not the instance kernel's
        # snapshot, and a fresh HEFT schedule failed validation with
        # "copy of 'a' on 0 runs 4, ETC says 100".
        from repro.instance import Instance
        from repro.schedule.validation import validate
        from repro.schedulers.registry import get_scheduler

        arr = np.array([[4.0, 6.0], [5.0, 3.0]])
        dag = TaskDAG.from_edges([("a", "b", 1.0)], costs={"a": 5.0, "b": 4.0})
        etc = ETCMatrix(["a", "b"], [0, 1], arr)
        inst = Instance(dag=dag, machine=Machine.homogeneous(2), etc=etc)
        get_scheduler("HEFT").schedule(inst)
        arr[0, 0] = 100.0
        assert etc.time("a", 0) == 4.0
        assert etc.mean("a") == 5.0
        validate(get_scheduler("HEFT").schedule(inst), inst)

    def test_stored_matrix_is_read_only_and_c_contiguous(self):
        etc = ETCMatrix(["a", "b"], [0, 1], np.asfortranarray([[1.0, 2.0], [3.0, 4.0]]))
        assert etc._w.flags.c_contiguous and not etc._w.flags.writeable
        assert etc.as_array().flags.writeable

    def test_unknown_aggregation_rejected(self):
        etc = ETCMatrix(["a"], [0], np.array([[1.0]]))
        with pytest.raises(ConfigurationError):
            etc.row_aggregate("p99")
        with pytest.raises(UnknownTaskError):
            etc.median("z")

    def test_consistency_detection(self):
        consistent = ETCMatrix(["a", "b"], [0, 1], np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert consistent.is_consistent()
        inconsistent = ETCMatrix(["a", "b"], [0, 1], np.array([[1.0, 2.0], [4.0, 3.0]]))
        assert not inconsistent.is_consistent()

    def test_heterogeneity_measure(self):
        homo = ETCMatrix(["a"], [0, 1], np.array([[2.0, 2.0]]))
        assert homo.heterogeneity() == 0.0
        hetero = ETCMatrix(["a"], [0, 1], np.array([[1.0, 3.0]]))
        assert hetero.heterogeneity() == pytest.approx(1.0)


def _layouts(values: np.ndarray) -> dict[str, np.ndarray]:
    """The same matrix as a C-ordered, a Fortran-ordered and a strided
    (column-sliced) array."""
    wide = np.repeat(values, 2, axis=1)
    return {
        "C": np.ascontiguousarray(values),
        "F": np.asfortranarray(values),
        "sliced": wide[:, ::2],
    }


@pytest.mark.parametrize("width", range(1, 131))
def test_cached_aggregates_equal_row_reductions_bit_for_bit(width):
    """Each cached aggregate is the float a reduction of that row alone
    gives, whatever the caller's memory layout, with ties and zeros."""
    rng = np.random.default_rng(width)
    values = rng.uniform(0.0, 50.0, size=(6, width))
    values[1] = 0.0                                  # an all-zero row
    values[2, ::2] = values[2, 0]                    # ties
    values[3] = np.round(values[3])                  # integer-valued ties
    values[4, : width // 2] = 0.0                    # zeros beside positives
    tasks = [f"t{i}" for i in range(values.shape[0])]
    for label, arr in _layouts(values).items():
        etc = ETCMatrix(tasks, list(range(width)), arr)
        for i, t in enumerate(tasks):
            row = arr[i]
            got = (etc.mean(t), etc.median(t), etc.best(t), etc.worst(t))
            want = (float(row.mean()), float(np.median(row)), float(row.min()), float(row.max()))
            assert [x.hex() for x in got] == [x.hex() for x in want], (label, width, t)
            assert all(type(x) is float for x in got)


class TestEtcFromSpeeds:
    def test_values(self, dag):
        m = Machine.from_speeds([1.0, 2.0])
        etc = etc_from_speeds(dag, m)
        assert etc.time("a", 0) == 10.0
        assert etc.time("a", 1) == 5.0

    def test_always_consistent(self, dag):
        m = Machine.from_speeds([1.0, 2.0, 0.5])
        assert etc_from_speeds(dag, m).is_consistent()


class TestGenerateEtcRange:
    def test_bounds(self, machine):
        dag = random_dag(40, seed=0)
        etc = generate_etc(dag, machine, heterogeneity=0.5, seed=1)
        for t in dag.tasks():
            w = dag.cost(t)
            for p in machine.proc_ids():
                assert 0.75 * w - 1e-9 <= etc.time(t, p) <= 1.25 * w + 1e-9

    def test_beta_zero_exactly_nominal(self, dag, machine):
        etc = generate_etc(dag, machine, heterogeneity=0.0, seed=1)
        for t in dag.tasks():
            for p in machine.proc_ids():
                assert etc.time(t, p) == dag.cost(t)

    def test_deterministic(self, dag, machine):
        a = generate_etc(dag, machine, seed=7).as_array()
        b = generate_etc(dag, machine, seed=7).as_array()
        assert (a == b).all()

    def test_consistent_class(self, machine):
        dag = random_dag(30, seed=2)
        etc = generate_etc(dag, machine, heterogeneity=1.0, consistency="consistent", seed=3)
        assert etc.is_consistent()

    def test_partially_consistent_sorts_even_columns(self, machine):
        dag = random_dag(30, seed=4)
        etc = generate_etc(
            dag, machine, heterogeneity=1.0, consistency="partially-consistent", seed=5
        )
        arr = etc.as_array()
        even = arr[:, ::2]
        assert (np.diff(even, axis=1) >= -1e-12).all()

    def test_zero_cost_task_stays_zero(self, machine):
        d = TaskDAG()
        d.add_task(Task("v", cost=0.0))
        d.add_task(Task("w", cost=5.0))
        etc = generate_etc(d, machine, heterogeneity=1.0, seed=6)
        assert etc.time("v", 0) == 0.0

    def test_rejects_beta_ge_2(self, dag, machine):
        with pytest.raises(MachineError):
            generate_etc(dag, machine, heterogeneity=2.0)

    def test_rejects_negative_beta(self, dag, machine):
        with pytest.raises(MachineError):
            generate_etc(dag, machine, heterogeneity=-0.1)

    def test_unknown_consistency(self, dag, machine):
        with pytest.raises(MachineError):
            generate_etc(dag, machine, consistency="weird")  # type: ignore[arg-type]

    def test_unknown_method(self, dag, machine):
        with pytest.raises(MachineError):
            generate_etc(dag, machine, method="nope")  # type: ignore[arg-type]


class TestGenerateEtcCvb:
    def test_positive_and_deterministic(self, machine):
        dag = random_dag(30, seed=8)
        a = generate_etc(dag, machine, heterogeneity=0.4, method="cvb", seed=9)
        b = generate_etc(dag, machine, heterogeneity=0.4, method="cvb", seed=9)
        assert (a.as_array() == b.as_array()).all()
        assert (a.as_array() >= 0).all()

    def test_mean_tracks_nominal(self, machine):
        # With modest CV the column mean should stay near the nominal cost.
        d = TaskDAG()
        for i in range(200):
            d.add_task(Task(i, cost=10.0))
        etc = generate_etc(d, machine, heterogeneity=0.3, method="cvb", seed=10)
        assert etc.as_array().mean() == pytest.approx(10.0, rel=0.15)

    def test_empty_dag(self, machine):
        etc = generate_etc(TaskDAG(), machine, seed=0)
        assert etc.as_array().shape == (0, 3)
