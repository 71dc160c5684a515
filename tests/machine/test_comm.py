"""Tests for the communication-cost models."""

import math

import numpy as np
import pytest

from repro.dag.generators import random_dag
from repro.exceptions import MachineError
from repro.instance import Instance
from repro.machine.cluster import Machine
from repro.machine.comm import (
    CommunicationModel,
    LinkCommunication,
    UniformCommunication,
    ZeroCommunication,
)
from repro.machine.etc import generate_etc
from repro.machine.processor import Processor
from repro.schedulers.registry import get_scheduler


def _three_procs(comm):
    """A fixed 12-task DAG on three unit-speed processors linked by ``comm``."""
    machine = Machine([Processor(id=k, speed=1.0) for k in range(3)], comm=comm, name="three")
    dag = random_dag(12, ccr=2.0, seed=5)
    return Instance(dag=dag, machine=machine,
                    etc=generate_etc(dag, machine, heterogeneity=0.5, seed=5))


class TestLinkContract:
    """Every model implements ``link()``; ``time()`` derives from it."""

    def test_subclass_without_link_cannot_be_built(self):
        class TimeOnly(CommunicationModel):
            def time(self, data, src, dst):
                return 0.0

            def average_time(self, data):
                return 0.0

        with pytest.raises(TypeError, match="link"):
            TimeOnly()

    def test_time_is_latency_plus_data_over_bandwidth(self):
        class Distance(CommunicationModel):
            def link(self, src, dst):
                return 0.25 * abs(src - dst), 2.0

            def average_time(self, data):
                return 0.0

        c = Distance()
        assert c.time(3.0, 2, 2) == 0.0
        assert c.time(3.0, 0, 2) == 0.5 + 3.0 / 2.0
        with pytest.raises(MachineError):
            c.time(-1.0, 0, 1)

    def test_zero_link_and_every_accepted_volume(self):
        c = ZeroCommunication()
        assert c.link(0, 1) == (0.0, math.inf)
        for data in (0.0, 1.0, 1e308, math.inf):
            assert c.time(data, 0, 1) == 0.0
        with pytest.raises(MachineError):
            c.time(math.nan, 0, 1)

    @pytest.mark.parametrize("bad", [(-5.0, 1.0), (math.nan, 1.0), (0.0, math.nan),
                                     (0.0, 0.0), (0.0, -2.0)])
    def test_lowering_rejects_a_link_that_breaks_the_contract(self, bad):
        """A custom ``link()`` with a negative or NaN latency, or a NaN or
        non-positive bandwidth, on one link is refused when the instance
        lowers, with the link named: no scheduler returns a makespan."""

        class OneBadLink(CommunicationModel):
            def link(self, src, dst):
                return bad if (src, dst) == (1, 2) else (0.5, 2.0)

            def average_time(self, data):
                return 0.5 + self.validate_pair(data) / 2.0

        with pytest.raises(MachineError, match=r"link 1->2: (latency|bandwidth)"):
            _three_procs(OneBadLink()).kernel.compiled()
        for name in ("HEFT", "IMP", "DLS"):
            with pytest.raises(MachineError, match="link 1->2"):
                get_scheduler(name).schedule(_three_procs(OneBadLink()))

    def test_lowering_accepts_free_and_infinite_links(self):
        """The contract's edges lower: zero latency and infinite bandwidth
        (a free link) on a custom model schedule like zero-cost links."""

        class Free(CommunicationModel):
            def link(self, src, dst):
                return 0.0, math.inf

            def average_time(self, data):
                return 0.0

        free, zero = _three_procs(Free()), _three_procs(ZeroCommunication())
        for name in ("HEFT", "IMP", "DLS"):
            got = get_scheduler(name).schedule(free)
            assert got.makespan == get_scheduler(name).schedule(zero).makespan, name

    def test_builtin_times_replay_their_former_bodies(self):
        """``UniformCommunication.time`` and ``LinkCommunication.time``
        now come from the base class; on random pairs they return the
        exact floats their own bodies returned."""
        rng = np.random.default_rng(19)
        ids = ["a", "b", "c", "d"]
        for _ in range(50):
            lat, bw = float(rng.uniform(0.0, 5.0)), float(rng.uniform(0.01, 10.0))
            uniform = UniformCommunication(latency=lat, bandwidth=bw)
            lats = {s: {d: float(rng.uniform(0.0, 5.0)) for d in ids if d != s} for s in ids}
            bws = {s: {d: float(rng.uniform(0.01, 10.0)) for d in ids if d != s} for s in ids}
            links = LinkCommunication(ids, lats, bws)
            for _ in range(20):
                data = float(rng.uniform(0.0, 1000.0))
                src, dst = (ids[int(k)] for k in rng.integers(0, len(ids), size=2))
                old_uniform = 0.0 if src == dst else lat + data / bw
                old_link = 0.0 if src == dst else lats[src][dst] + data / bws[src][dst]
                assert uniform.time(data, src, dst) == old_uniform
                assert links.time(data, src, dst) == old_link


class TestZeroCommunication:
    def test_always_zero(self):
        c = ZeroCommunication()
        assert c.time(100.0, 0, 1) == 0.0
        assert c.average_time(100.0) == 0.0

    def test_rejects_negative_data(self):
        with pytest.raises(MachineError):
            ZeroCommunication().time(-1.0, 0, 1)


class TestUniformCommunication:
    def test_formula(self):
        c = UniformCommunication(latency=2.0, bandwidth=4.0)
        assert c.time(8.0, 0, 1) == pytest.approx(2.0 + 2.0)

    def test_local_free(self):
        c = UniformCommunication(latency=2.0, bandwidth=4.0)
        assert c.time(8.0, 1, 1) == 0.0

    def test_average_includes_latency(self):
        c = UniformCommunication(latency=3.0, bandwidth=1.0)
        assert c.average_time(0.0) == 3.0

    def test_invalid_params(self):
        with pytest.raises(MachineError):
            UniformCommunication(latency=-1.0)
        with pytest.raises(MachineError):
            UniformCommunication(bandwidth=0.0)

    def test_zero_data(self):
        c = UniformCommunication(latency=0.0, bandwidth=1.0)
        assert c.time(0.0, 0, 1) == 0.0


class TestLinkCommunication:
    @pytest.fixture
    def links(self) -> LinkCommunication:
        ids = [0, 1]
        lat = {0: {1: 1.0}, 1: {0: 3.0}}
        bw = {0: {1: 2.0}, 1: {0: 4.0}}
        return LinkCommunication(ids, lat, bw)

    def test_directional(self, links):
        assert links.time(8.0, 0, 1) == pytest.approx(1.0 + 4.0)
        assert links.time(8.0, 1, 0) == pytest.approx(3.0 + 2.0)

    def test_local_free(self, links):
        assert links.time(8.0, 0, 0) == 0.0

    def test_average(self, links):
        # avg latency = 2.0; avg 1/bw = (0.5 + 0.25)/2 = 0.375
        assert links.average_time(8.0) == pytest.approx(2.0 + 3.0)

    def test_unknown_link(self, links):
        with pytest.raises(MachineError):
            links.time(1.0, 0, 9)
        with pytest.raises(MachineError):
            links.link(0, 9)
        with pytest.raises(MachineError):
            links.link(0, 0)  # no self-link is stored

    def test_link_returns_stored_parameters(self, links):
        assert links.link(0, 1) == (1.0, 2.0)
        assert links.link(1, 0) == (3.0, 4.0)
        lat, bw = links.link(1, 0)
        assert links.time(8.0, 1, 0) == lat + 8.0 / bw

    def test_missing_entry_rejected(self):
        with pytest.raises(MachineError):
            LinkCommunication([0, 1], {0: {}, 1: {0: 1.0}}, {0: {1: 1.0}, 1: {0: 1.0}})

    def test_bad_bandwidth_rejected(self):
        with pytest.raises(MachineError):
            LinkCommunication([0, 1], {0: {1: 0.0}, 1: {0: 0.0}},
                              {0: {1: 0.0}, 1: {0: 1.0}})

    def test_duplicate_ids_rejected(self):
        with pytest.raises(MachineError):
            LinkCommunication([0, 0], {}, {})

    def test_single_proc_trivial(self):
        c = LinkCommunication([0], {0: {}}, {0: {}})
        assert c.average_time(5.0) == 0.0
