"""Miss Status Holding Registers with SoS-load reservation.

The paper's deadlock-avoidance rule (§3.5.2) requires that an SoS load can
always launch a read even when stores or evictions occupy every regular
MSHR: *"There is at least one MSHR always reserved for SoS loads."*  The
file therefore tracks a reserved quota that only SoS-bypass allocations
may use.

A bypass entry may coexist with a regular entry for the *same* line: that
is exactly the case where an SoS load abandons its piggyback on a blocked
write and launches a fresh (uncacheable) read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..common.errors import ConfigError, SimulationError
from ..common.types import LineAddr


@dataclass(slots=True, eq=False)
class MSHREntry:
    """One outstanding transaction."""

    line: LineAddr
    kind: str  # "read" | "write" | "writeback"
    is_sos_bypass: bool = False
    #: Monotonic per-file id (distinguishes occupancy episodes of one line).
    uid: int = 0
    #: Load instructions piggybacked on this transaction.
    waiting_loads: List[Any] = field(default_factory=list)
    #: Set when the directory hints that this write is in WritersBlock.
    blocked_hint: bool = False
    #: Invalidation acks still owed to this write.
    pending_acks: int = 0
    #: Data response already arrived (writes collect data + acks).
    has_data: bool = False
    #: Uncacheable (tear-off) read: data must not be installed in the cache.
    uncacheable: bool = False
    #: Line data held by the transaction (write data, writeback data).
    data: Optional[Any] = None
    #: Invalidation acks received so far (writes).
    acks_received: int = 0
    #: Acks the grant message said to expect (None until the grant arrives).
    acks_expected: Optional[int] = None
    #: The write request went out as an Upgrade (line was in S).
    was_upgrade: bool = False
    #: Grant callbacks for stores waiting on this write permission.
    payload_grants: List[Any] = field(default_factory=list)
    #: Write-permission callbacks deferred behind an in-flight read.
    deferred_writes: List[Any] = field(default_factory=list)

    def __repr__(self) -> str:
        flags = "".join(
            flag
            for flag, on in (
                ("B", self.blocked_hint),
                ("S", self.is_sos_bypass),
                ("U", self.uncacheable),
            )
            if on
        )
        return f"<MSHR {self.kind} {self.line!r} {flags} acks={self.pending_acks}>"

    def defer_write(self, on_granted: Callable[[], None]) -> None:
        """Chain a write-permission request behind this in-flight read.

        A core polling for permission asks again every cycle with the
        same callback; that callback is chained once, since each copy
        would only be replayed as a duplicate request on fill.
        """
        if not any(chained is on_granted for chained in self.deferred_writes):
            self.deferred_writes.append(on_granted)


class MSHRFile:
    """Fixed-size pool of MSHRs with a reserved SoS quota."""

    def __init__(self, entries: int, reserved_for_sos: int) -> None:
        if reserved_for_sos >= entries:
            raise ConfigError("reservation must leave at least one regular MSHR")
        self.capacity = entries
        self.reserved = reserved_for_sos
        self._by_line: Dict[LineAddr, MSHREntry] = {}
        self._bypass: List[MSHREntry] = []
        self._next_uid = 0
        #: Optional ``observer(action, entry)`` hook ("alloc" | "free"),
        #: wired by the owning cache to the observability bus.
        self.observer: Optional[Callable[[str, MSHREntry], None]] = None

    # -- capacity ----------------------------------------------------------
    @property
    def occupancy(self) -> int:
        """Allocated entries (regular + SoS-bypass); telemetry gauge."""
        return len(self._by_line) + len(self._bypass)

    def _in_use(self) -> int:
        return self.occupancy

    def can_allocate(self, *, sos: bool = False) -> bool:
        """True if an allocation of the given kind would succeed."""
        limit = self.capacity if sos else self.capacity - self.reserved
        return self._in_use() < limit

    # -- allocation --------------------------------------------------------
    def allocate(self, line: LineAddr, kind: str, *, sos_bypass: bool = False) -> MSHREntry:
        """Allocate a new entry; raises if capacity (for this kind) is gone."""
        if not self.can_allocate(sos=sos_bypass):
            raise SimulationError("MSHR file full")
        self._next_uid += 1
        entry = MSHREntry(line=line, kind=kind, is_sos_bypass=sos_bypass,
                          uid=self._next_uid)
        if sos_bypass:
            self._bypass.append(entry)
        else:
            if line in self._by_line:
                raise SimulationError(f"duplicate MSHR for {line!r}")
            self._by_line[line] = entry
        if self.observer is not None:
            self.observer("alloc", entry)
        return entry

    def get(self, line: LineAddr) -> Optional[MSHREntry]:
        """The primary (non-bypass) entry for *line*, if any."""
        return self._by_line.get(line)

    def free(self, entry: MSHREntry) -> None:
        if entry.is_sos_bypass:
            self._bypass.remove(entry)
        else:
            current = self._by_line.get(entry.line)
            if current is not entry:
                raise SimulationError(f"freeing unknown MSHR {entry!r}")
            del self._by_line[entry.line]
        if self.observer is not None:
            self.observer("free", entry)

    def entries(self) -> List[MSHREntry]:
        return list(self._by_line.values()) + list(self._bypass)
