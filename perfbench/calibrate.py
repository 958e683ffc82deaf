"""How fast the host runs interpreted Python right now.

The benchmark shares a few cores of a host with other tenants, and the speed
it gets moves by up to 2x from one second to the next and from minute to
minute.  A raw wall time therefore measures the neighbours as much as the
program.  The benchmark runs :func:`kernel`, a fixed piece of pure-Python work
in the program's style (an event heap of small objects, attribute-heavy
updates over an object graph, and parsing and walking source text), just
before and just after every timed step and, from a ``SIGALRM`` handler, every
``SAMPLE_EVERY_S`` seconds during it, in each process that does the step's
work.  The step's program time is its wall time minus those kernel runs, and
it is scaled by ``REFERENCE_S`` over the mean kernel time.  That gives the
step's time in *reference seconds*: the seconds it would take on the host
when the kernel takes ``REFERENCE_S``.

The kernel is part of the benchmark, not of the program, so a change to the
program moves a scaled time in the same proportion as the raw time.
"""

from __future__ import annotations

import ast
import gc
import heapq
import random
import signal
import time

#: about the kernel's time, in seconds, on the 2-vCPU x86_64 VM under
#: Python 3.11 where the benchmark was built; it only sets the scale
REFERENCE_S = 0.05
#: how often the kernel samples the host during a timed step
SAMPLE_EVERY_S = 0.5


class _Event:
    __slots__ = ("at", "kind", "value")

    def __init__(self, at: float, kind: int, value: int) -> None:
        self.at = at
        self.kind = kind
        self.value = value

    def __lt__(self, other: "_Event") -> bool:
        return self.at < other.at


class _Node:
    def __init__(self, index: int) -> None:
        self.index = index
        self.links: list[_Node] = []
        self.value = index

    def step(self) -> None:
        total = self.value
        for node in self.links:
            total += node.value
        self.value = total % 1009


def _events(n: int = 9_000) -> int:
    rng = random.Random(7)
    heap = [_Event(rng.random(), i % 7, i) for i in range(512)]
    heapq.heapify(heap)
    table: dict[int, int] = {}
    for _ in range(n):
        ev = heapq.heappop(heap)
        table[ev.value & 4095] = table.get(ev.value & 4095, 0) + ev.kind
        heapq.heappush(heap, _Event(ev.at + rng.random(), (ev.kind + 1) % 7,
                                    ev.value + 1))
    return len(table)


def _graph(n: int = 3_000, rounds: int = 5) -> int:
    rng = random.Random(3)
    nodes = [_Node(i) for i in range(n)]
    for node in nodes:
        node.links = [nodes[rng.randrange(n)] for _ in range(4)]
    for _ in range(rounds):
        for node in nodes:
            node.step()
    total = sum(node.value for node in nodes)
    for node in nodes:  # no cycles left for the collector
        node.links = []
    return total


def _source(classes: int = 60) -> str:
    lines = []
    for i in range(classes):
        lines += [
            f"class C{i}(Base):",
            f"    def m{i}(self, x, y={i}):",
            f"        if x > {i} and self.flag:",
            f"            return [v * {i} for v in range(x) if v % 3]",
            "        return {'k': x, 'v': y + self.z, 's': f'{x}-{y}'}",
            "",
        ]
    return "\n".join(lines)


_SOURCE = _source()


def _parse() -> int:
    return sum(len(node.id) for node in ast.walk(ast.parse(_SOURCE))
               if isinstance(node, ast.Name))


def kernel() -> int:
    """The fixed work; its result is the same on every call."""
    return _events() + _graph() + _parse()


def calibrate() -> float:
    """Seconds that one run of :func:`kernel` takes now.

    The garbage collector is off meanwhile: a collection that the kernel's
    allocations set off would walk the program's heap, and charge the
    program's garbage to the host's speed.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.monotonic()
        kernel()
        return time.monotonic() - start
    finally:
        if enabled:
            gc.enable()


# A process has one SIGALRM handler and one real-time timer, so the
# sampler's state is the process's own; a forked pool worker finds it here.
_samples: list[float] = []
_sampling = False
_ticking = False


def _tick(signum, frame) -> None:
    global _ticking
    if _ticking:  # the kernel outlasted the interval
        return
    _ticking = True
    try:
        _samples.append(calibrate())
    finally:
        _ticking = False


def start_sampling(first_s: float = SAMPLE_EVERY_S) -> None:
    """Run the kernel after ``first_s``, then every ``SAMPLE_EVERY_S``."""
    global _sampling
    signal.signal(signal.SIGALRM, _tick)
    signal.setitimer(signal.ITIMER_REAL, first_s, SAMPLE_EVERY_S)
    _sampling = True


def stop_sampling() -> None:
    global _sampling
    signal.setitimer(signal.ITIMER_REAL, 0)
    _sampling = False


def sampling() -> bool:
    return _sampling


def take_samples() -> list[float]:
    """The kernel times sampled since the last call."""
    global _samples
    # one swap, so that a tick in between cannot lose its sample
    out, _samples = _samples, []
    return out
