"""Set-associative caches with LRU replacement, MSHR-style miss
merging, and fill bypassing.

Both the per-core L1 data caches and the per-partition L2 slices are
instances of :class:`SetAssocCache`.  The cache itself is a pure state
machine (no notion of time); the simulator engine supplies timing.
Per-application hit and miss counts live in the engine's
:class:`~repro.sim.stats.AppStats`, the only place anything reads them.

Bypassing (used by the Mod+Bypass baseline, §VI) is a per-application
flag: a bypassed application's accesses still look up the cache, but
fills are not installed, so it stops displacing the co-runner's lines.
"""

from __future__ import annotations

from repro.units import Bytes, BytesPerLine, Count

__all__ = ["SetAssocCache", "MSHRTable"]


class SetAssocCache:
    """A set-associative LRU cache over line addresses.

    Each set is a ``dict`` mapping line address -> owning application id.
    Python dicts preserve insertion order, so the first key is the LRU
    line; a hit re-inserts the key to mark it most recently used.
    """

    __slots__ = (
        "n_sets", "assoc", "line_bytes", "_sets", "bypass_apps", "way_quota",
    )

    def __init__(self, n_sets: int, assoc: int, line_bytes: BytesPerLine) -> None:
        if n_sets <= 0 or assoc <= 0:
            raise ValueError("cache must have positive sets and associativity")
        self.n_sets = n_sets
        self.assoc = assoc
        self.line_bytes: BytesPerLine = line_bytes
        self._sets: list[dict[int, int]] = [{} for _ in range(n_sets)]
        #: applications whose fills are currently bypassed
        self.bypass_apps: set[int] = set()
        #: optional per-application way quota (for the L2-partitioning
        #: sensitivity study, §VI-D): an app holding its quota of ways in
        #: a set evicts its own LRU line instead of the global LRU.
        self.way_quota: dict[int, int] = {}

    def set_index(self, line_addr: Bytes) -> int:
        return (line_addr // self.line_bytes) % self.n_sets

    def probe(self, line_addr: Bytes) -> bool:
        """Check residency without touching LRU state."""
        return line_addr in self._sets[self.set_index(line_addr)]

    def access(self, line_addr: Bytes, app_id: int) -> bool:
        """Look up ``line_addr``; returns True on hit.

        A hit updates LRU recency.  A miss changes nothing; the caller
        is responsible for issuing the fill once the lower level
        responds (see :meth:`fill`).  ``app_id`` names the requester,
        as :meth:`fill`'s does; the lookup itself does not depend on it.
        """
        line_set = self._sets[(line_addr // self.line_bytes) % self.n_sets]
        if line_addr in line_set:
            # Re-insert to mark most-recently-used.
            line_set[line_addr] = line_set.pop(line_addr)
            return True
        return False

    def fill(self, line_addr: Bytes, app_id: int) -> int | None:
        """Install a line, evicting the LRU line of the set if needed.

        Returns the evicted line address (or None).  Fills from bypassed
        applications are dropped.
        """
        if app_id in self.bypass_apps:
            return None
        line_set = self._sets[(line_addr // self.line_bytes) % self.n_sets]
        if line_addr in line_set:
            line_set[line_addr] = line_set.pop(line_addr)
            return None
        victim = None
        quota = self.way_quota.get(app_id)
        if quota is not None:
            owned = [a for a, owner in line_set.items() if owner == app_id]
            if len(owned) >= quota:
                victim = owned[0]  # the app's own LRU line
                del line_set[victim]
                line_set[line_addr] = app_id
                return victim
        if len(line_set) >= self.assoc:
            victim = next(iter(line_set))
            del line_set[victim]
        line_set[line_addr] = app_id
        return victim

    def invalidate_app(self, app_id: int) -> Count:
        """Drop every line owned by ``app_id``; returns lines dropped."""
        dropped = 0
        for line_set in self._sets:
            doomed = [a for a, owner in line_set.items() if owner == app_id]
            for addr in doomed:
                del line_set[addr]
            dropped += len(doomed)
        return dropped

    def occupancy_by_app(self) -> dict[int, int]:
        """Resident line counts per application (for analysis/tests)."""
        counts: dict[int, int] = {}
        for line_set in self._sets:
            for owner in line_set.values():
                counts[owner] = counts.get(owner, 0) + 1
        return counts

    @property
    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets)


class MSHRTable:
    """Miss-status holding registers: merge requests to in-flight lines.

    Keyed by line address; each entry holds the opaque waiter tokens the
    engine will wake when the fill returns.  A full table back-pressures
    by rejecting allocation (the engine retries after a delay).
    """

    __slots__ = ("n_entries", "_pending", "merges", "allocation_failures")

    def __init__(self, n_entries: int) -> None:
        self.n_entries = n_entries
        self._pending: dict[int, list[object]] = {}
        self.merges: Count = 0
        self.allocation_failures: Count = 0

    def __len__(self) -> int:
        return len(self._pending)

    def lookup(self, line_addr: Bytes) -> bool:
        return line_addr in self._pending

    def allocate(self, line_addr: Bytes, waiter: object) -> str:
        """Register ``waiter`` for ``line_addr``.

        Returns ``"new"`` if a lower-level request must be sent,
        ``"merged"`` if one is already in flight, or ``"full"`` if the
        table has no free entry.
        """
        waiters = self._pending.get(line_addr)
        if waiters is not None:
            waiters.append(waiter)
            self.merges += 1
            return "merged"
        if len(self._pending) >= self.n_entries:
            self.allocation_failures += 1
            return "full"
        self._pending[line_addr] = [waiter]
        return "new"

    def release(self, line_addr: Bytes) -> list[object]:
        """Fill arrived: free the entry and return all merged waiters."""
        return self._pending.pop(line_addr, [])
