"""Crossbar interconnect model.

The paper's GPU uses a full crossbar between cores and memory
partitions (Table I).  Contention in such a crossbar appears at the
memory-partition ports, so we model each partition's request-injection
port and response-ejection port as rate-limited FIFO links: a packet
starts service no earlier than the port frees up, occupies the port for
``cycles_per_packet`` cycles, and is delivered ``latency`` cycles after
its service starts.

Request packets are small (a line address); response packets carry a
full 128-byte line and occupy the port for several cycles, which is what
bounds the return bandwidth that effective bandwidth (EB) measures at
the core side.
"""

from __future__ import annotations

from repro.config import GPUConfig
from repro.units import BytesPerCycle, Cycles

__all__ = ["Link", "Crossbar"]


class Link:
    """A rate-limited, fixed-latency FIFO link."""

    __slots__ = ("latency", "cycles_per_packet", "free_at")

    def __init__(self, latency: Cycles, cycles_per_packet: Cycles) -> None:
        if cycles_per_packet <= 0:
            raise ValueError("cycles_per_packet must be positive")
        self.latency: Cycles = latency
        self.cycles_per_packet: Cycles = cycles_per_packet
        self.free_at: Cycles = 0.0

    def send(self, now: Cycles) -> Cycles:
        """Inject a packet at ``now``; returns its delivery time."""
        start = now if now > self.free_at else self.free_at
        self.free_at = start + self.cycles_per_packet
        return start + self.cycles_per_packet + self.latency


class Crossbar:
    """Per-partition request and response ports of the crossbar."""

    #: data-bus width of one crossbar port, bytes per cycle
    PORT_BYTES_PER_CYCLE: BytesPerCycle = 32

    __slots__ = ("request_ports", "response_ports")

    def __init__(self, config: GPUConfig) -> None:
        rate = config.icnt_flits_per_cycle_per_port
        resp_cycles = config.line_bytes / (self.PORT_BYTES_PER_CYCLE * rate)
        self.request_ports = [
            Link(config.icnt_latency, 1.0 / rate) for _ in range(config.n_channels)
        ]
        self.response_ports = [
            Link(config.icnt_latency, resp_cycles) for _ in range(config.n_channels)
        ]

    def send_request(self, channel: int, now: Cycles) -> Cycles:
        """Core -> L2 slice; returns arrival time at the partition."""
        return self.request_ports[channel].send(now)

    def send_response(self, channel: int, now: Cycles) -> Cycles:
        """L2 slice -> core; returns arrival time at the core."""
        return self.response_ports[channel].send(now)
