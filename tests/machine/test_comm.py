"""Tests for the communication-cost models."""

import pytest

from repro.exceptions import MachineError
from repro.machine.comm import (
    LinkCommunication,
    UniformCommunication,
    ZeroCommunication,
)


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
