"""Synthetic application profiles and per-warp address streams.

An :class:`AppProfile` captures the memory-system signature of one
GPGPU application:

``r_m``
    Fraction of instructions that are memory instructions (the paper's
    application-level property from Equation 2; arithmetic intensity is
    ``(1 - r_m) / r_m``).
``coalesce``
    Cache lines touched per memory instruction after coalescing
    (1 for fully coalesced stride-1 warps; larger for divergent ones).
``divergent``
    Whether the coalesced lines are independent irregular addresses
    (BFS-style) or one sequential block (streaming style).
``footprint_lines`` / ``p_reuse``
    Temporal locality: each warp keeps a ring of recently touched lines
    of size ``footprint_lines`` and revisits it with probability
    ``p_reuse``.  TLP times footprint versus L1 capacity decides cache
    friendliness — thrashing at high TLP is *emergent*, not scripted.
``p_seq``
    Spatial locality: probability the next access continues
    sequentially, which also produces DRAM row-buffer locality.
``shared_frac`` / ``shared_lines``
    Inter-warp sharing: fraction of accesses that go to an
    application-wide shared region (hits mostly in L2).
``stream_lines``
    Size of each core's streaming region (jump targets for the
    non-sequential remainder).

Sequential accesses of all warps on one core advance a *shared* cursor
(:class:`CoreStream`): on real hardware, consecutive warps of a
coalesced kernel read consecutive 128-byte segments, which is what
produces DRAM row-buffer locality across warps.  Temporal reuse remains
per-warp.  Streams are deterministic functions of (seed, app, core,
warp).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.sim.address import AddressMap

if TYPE_CHECKING:  # pragma: no cover
    from repro.config import GPUConfig

__all__ = ["AppProfile", "WarpAddressStream", "CoreStream", "stream_seed"]


def stream_seed(seed: int, app_id: int, core_id: int, warp_id: int) -> int:
    """A stable, well-mixed RNG seed for one warp's stream."""
    x = (seed * 1_000_003) ^ (app_id * 7_919) ^ (core_id * 104_729) ^ (warp_id * 31)
    # splitmix-style finalization for good low-bit diffusion
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


@dataclass(frozen=True)
class AppProfile:
    """Memory-system signature of one synthetic GPGPU application."""

    abbr: str
    name: str
    r_m: float
    coalesce: int = 1
    divergent: bool = False
    footprint_lines: int = 8
    p_reuse: float = 0.0
    p_seq: float = 0.9
    shared_frac: float = 0.0
    shared_lines: int = 4096
    stream_lines: int = 1 << 20
    gap_jitter: float = 0.4

    def __post_init__(self) -> None:
        if not 0.0 < self.r_m <= 1.0:
            raise ValueError(f"{self.abbr}: r_m must be in (0, 1]")
        if self.coalesce < 1:
            raise ValueError(f"{self.abbr}: coalesce must be >= 1")
        if self.p_reuse + self.p_seq + self.shared_frac > 1.0 + 1e-9:
            raise ValueError(f"{self.abbr}: locality probabilities exceed 1")
        if self.footprint_lines < 1 or self.stream_lines < 1:
            raise ValueError(f"{self.abbr}: footprint/stream sizes must be >= 1")

    @property
    def inst_gap(self) -> int:
        """Mean warp instructions per memory instruction (>= 1)."""
        return max(1, round(1.0 / self.r_m))

    @property
    def arithmetic_intensity(self) -> float:
        """Compute-to-memory instruction ratio, (1 - r_m) / r_m."""
        return (1.0 - self.r_m) / self.r_m

    def make_core_stream(
        self, app_id: int, core_id: int, addr_map: AddressMap
    ) -> "CoreStream":
        """Build the per-core shared streaming cursor for this profile."""
        line = addr_map.line_bytes
        app_base = AddressMap.app_base(app_id)
        base = app_base + self.shared_lines * line + core_id * self.stream_lines * line
        return CoreStream(base=base, n_lines=self.stream_lines, line_bytes=line)

    def make_stream(
        self,
        app_id: int,
        core_id: int,
        warp_id: int,
        seed: int,
        addr_map: AddressMap,
        core_stream: "CoreStream",
    ) -> "WarpAddressStream":
        """Build this profile's deterministic stream for one warp."""
        rng = random.Random(stream_seed(seed, app_id, core_id, warp_id))
        return WarpAddressStream(
            profile=self,
            line_bytes=addr_map.line_bytes,
            shared_base=AddressMap.app_base(app_id),
            core_stream=core_stream,
            rng=rng,
        )


class CoreStream:
    """Per-(application, core) shared sequential cursor.

    All warps of a core draw their sequential accesses from this cursor,
    so simultaneously-running warps touch adjacent lines and adjacent
    DRAM rows, as coalesced GPGPU kernels do.
    """

    __slots__ = ("base", "n_lines", "line_bytes", "_offset")

    def __init__(self, base: int, n_lines: int, line_bytes: int) -> None:
        self.base = base
        self.n_lines = n_lines
        self.line_bytes = line_bytes
        self._offset = 0

    def next_line(self) -> int:
        line = self.base + self._offset * self.line_bytes
        self._offset += 1
        if self._offset >= self.n_lines:
            self._offset = 0
        return line

    def jump(self, offset: int) -> None:
        self._offset = offset % self.n_lines


class WarpAddressStream:
    """Generates (instruction count, line addresses) iterations for a warp.

    Implements the :class:`repro.sim.core.WarpStream` protocol.  The
    profile's (frozen) parameters and the RNG's bound methods are cached
    at construction: ``next_request`` runs once per warp-loop iteration,
    on the engine's hot path.  The sequence of RNG draws is part of the
    deterministic stream definition and must not change.

    A bounded draw in ``[0, n)`` is CPython's ``randrange(n)`` body
    (``Random._randbelow_with_getrandbits``) written out in place: draw
    ``k = n.bit_length()`` bits and redraw while the value is ``>= n``.
    It consumes the same Mersenne-Twister words as ``randrange(n)``, so
    streams are bit-identical to it, without its two Python frames per
    draw.  ``tests/test_synthetic.py`` pins the equivalence.
    """

    __slots__ = (
        "profile", "line_bytes", "shared_base", "core_stream", "rng",
        "_ring", "_ring_pos", "_random", "_getrandbits", "_inst_gap",
        "_gap_jitter", "_gap_lo", "_p_reuse", "_p_seq", "_shared_frac",
        "_shared_lines", "_stream_lines", "_divergent", "_coalesce",
        "_ring_bits", "_shared_bits", "_stream_bits",
    )

    def __init__(
        self,
        profile: AppProfile,
        line_bytes: int,
        shared_base: int,
        core_stream: CoreStream,
        rng: random.Random,
    ) -> None:
        self.profile = profile
        self.line_bytes = line_bytes
        self.shared_base = shared_base
        self.core_stream = core_stream
        self.rng = rng
        self._random = rng.random
        self._getrandbits = rng.getrandbits
        self._inst_gap = profile.inst_gap
        self._gap_jitter = profile.gap_jitter
        self._gap_lo = 1.0 - profile.gap_jitter / 2.0
        self._p_reuse = profile.p_reuse
        self._p_seq = profile.p_seq
        self._shared_frac = profile.shared_frac
        self._shared_lines = profile.shared_lines
        self._stream_lines = profile.stream_lines
        self._divergent = profile.divergent
        self._coalesce = profile.coalesce
        # Bit widths of the three bounded draws (see the class docstring).
        self._ring_bits = profile.footprint_lines.bit_length()
        self._shared_bits = profile.shared_lines.bit_length()
        self._stream_bits = n_bits = profile.stream_lines.bit_length()
        # Pre-populate the reuse ring so temporal locality is stationary
        # from the first access: an empty ring would make early windows
        # look far more cache-friendly than steady state (the ring takes
        # footprint_lines iterations per warp to fill otherwise).
        n = profile.stream_lines
        base = core_stream.base
        ring: list[int] = []
        for _ in range(profile.footprint_lines):
            r = rng.getrandbits(n_bits)
            while r >= n:
                r = rng.getrandbits(n_bits)
            ring.append(base + r * line_bytes)
        self._ring = ring
        self._ring_pos = 0

    # --- internals -----------------------------------------------------

    def _one_line(self) -> int:
        """Pick one line address according to the locality mix.

        The ring is created full, so remembering a line is always an
        in-place overwrite at the ring cursor.
        """
        r = self._random()
        ring = self._ring
        if r < self._p_reuse:
            n = len(ring)
            i = self._getrandbits(self._ring_bits)
            while i >= n:
                i = self._getrandbits(self._ring_bits)
            return ring[i]
        r -= self._p_reuse
        cs = self.core_stream
        if r < self._p_seq:
            pass
        else:
            r -= self._p_seq
            if r < self._shared_frac:
                n = self._shared_lines
                i = self._getrandbits(self._shared_bits)
                while i >= n:
                    i = self._getrandbits(self._shared_bits)
                return self.shared_base + i * self.line_bytes
            # Random jump within the core's streaming region; sequential
            # accesses continue from the jump target (row locality
            # resumes).
            n = self._stream_lines
            i = self._getrandbits(self._stream_bits)
            while i >= n:
                i = self._getrandbits(self._stream_bits)
            cs._offset = i % cs.n_lines
        # Inlined CoreStream.next_line: advance the shared cursor.
        offset = cs._offset
        line = cs.base + offset * cs.line_bytes
        offset += 1
        cs._offset = 0 if offset >= cs.n_lines else offset
        pos = self._ring_pos
        ring[pos] = line
        self._ring_pos = (pos + 1) % len(ring)
        return line

    # --- WarpStream protocol ----------------------------------------------

    def next_request(self) -> tuple[int, list[int]]:
        gap = self._inst_gap
        jitter = self._gap_jitter
        if jitter:
            gap = int(gap * (self._gap_lo + jitter * self._random()))
            if gap < 1:
                gap = 1
        if self._divergent:
            lines: list[int] = []
            for _ in range(self._coalesce):
                line = self._one_line()
                if line not in lines:
                    lines.append(line)
        else:
            first = self._one_line()
            coalesce = self._coalesce
            if coalesce == 1:
                lines = [first]
            else:
                line_bytes = self.line_bytes
                lines = [first + i * line_bytes for i in range(coalesce)]
        return gap, lines
