"""Tests for repro.sim.interconnect: link queueing and crossbar ports."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import paper_config
from repro.sim.interconnect import Crossbar, Link


class TestLink:
    def test_uncontended_delivery_time(self):
        link = Link(latency=40, cycles_per_packet=2)
        assert link.send(100.0) == 100.0 + 2 + 40

    def test_back_to_back_packets_queue(self):
        link = Link(latency=10, cycles_per_packet=4)
        first = link.send(0.0)
        second = link.send(0.0)
        assert second == first + 4, "second packet waits for the port"

    def test_idle_gap_resets_queueing(self):
        link = Link(latency=10, cycles_per_packet=4)
        link.send(0.0)
        late = link.send(100.0)
        assert late == 100.0 + 4 + 10

    def test_rejects_zero_rate(self):
        with pytest.raises(ValueError):
            Link(latency=1, cycles_per_packet=0)

    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=50))
    @settings(max_examples=50)
    def test_fifo_order_and_rate_bound(self, times):
        """Deliveries are monotone and spaced at least a service apart."""
        link = Link(latency=5, cycles_per_packet=3)
        deliveries = [link.send(t) for t in sorted(times)]
        for a, b in zip(deliveries, deliveries[1:]):
            assert b >= a + 3


class TestCrossbar:
    def test_response_port_slower_than_request_port(self):
        xbar = Crossbar(paper_config())
        req = xbar.request_ports[0].cycles_per_packet
        resp = xbar.response_ports[0].cycles_per_packet
        assert resp > req, "responses carry a full cache line"

    def test_one_port_pair_per_channel(self):
        cfg = paper_config()
        xbar = Crossbar(cfg)
        assert len(xbar.request_ports) == cfg.n_channels
        assert len(xbar.response_ports) == cfg.n_channels

    def test_channels_independent(self):
        xbar = Crossbar(paper_config())
        t0 = xbar.send_request(0, 0.0)
        t1 = xbar.send_request(1, 0.0)
        assert t0 == t1, "different channels do not contend"

    def test_same_channel_contends(self):
        xbar = Crossbar(paper_config())
        t0 = xbar.send_response(0, 0.0)
        t1 = xbar.send_response(0, 0.0)
        assert t1 > t0
