"""The image composition scheduler (paper §IV-E, Fig 11/12, Table I).

Tracks per-GPU composition status in a table with exactly the paper's
fields:

=============  ====================================================
Field          Meaning
=============  ====================================================
CGID           Composition Group ID
Ready          Ready to compose with others?
Receiving      Receiving pixels from another GPU?
Sending        Sending pixels to another GPU?
SentGPUs       GPUs the sub-image has been sent to (bit vector)
ReceivedGPUs   GPUs we have composed with (bit vector)
=============  ====================================================

A pair (sender -> receiver) may start only when (Fig 12): both are Ready in
the same CGID, the receiver has not yet composed with that sender, the
sender is not Sending, and the receiver is not Receiving. For transparent
groups only *adjacent* partners (in the current reduction tree) are
eligible, since transparent sub-images cannot be composed fully
out-of-order (§II-D).

The table supports a *window* of in-flight composition groups: each row
carries its own CGID, so different GPUs may be composing different groups
concurrently (cross-group pipelining). Groups are admitted with
``open_group`` (optionally bounded by ``window``), rows move forward with
``advance`` — which fully resets the row, so no Sent/Received state can
leak from one group into the next — and ``retire_group`` frees the slot
once every participant finished. Pairing is safe across the window because
a GPU only advances past a group after exchanging with *all* of its
partners there: no remaining participant can still need it as a sender.
``start_group`` keeps the legacy single-active-group behaviour (reset every
row onto one CGID).

The scheduler is a passive table; the DES layer drives it through
``mark_ready`` / ``begin`` / ``complete`` and waits on ``wait_change``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..analysis.sanitizer import ACCESS_ARBITRATED
from ..errors import SchedulingError
from ..sim import Event, Simulator


@dataclass
class CompositionStatus:
    """One GPU's row in the scheduler table (paper Table I)."""

    cgid: int = 0
    ready: bool = False
    receiving: bool = False
    sending: bool = False
    sent_gpus: Set[int] = field(default_factory=set)
    received_gpus: Set[int] = field(default_factory=set)

    def reset(self) -> None:
        self.ready = False
        self.receiving = False
        self.sending = False
        self.sent_gpus.clear()
        self.received_gpus.clear()

    def size_bits(self, num_gpus: int, cgid_bits: int = 8) -> int:
        """Hardware cost of this row (§VI-F)."""
        return cgid_bits + 3 + 2 * num_gpus


class ImageCompositionScheduler:
    """Centralized pairing of GPUs for sub-image exchange."""

    def __init__(self, num_gpus: int,
                 sim: Optional[Simulator] = None,
                 window: Optional[int] = None) -> None:
        if num_gpus <= 0:
            raise SchedulingError("need at least one GPU")
        if window is not None and window < 1:
            raise SchedulingError("scheduler window must be >= 1 (or None "
                                  "for an unbounded in-flight group window)")
        self.num_gpus = num_gpus
        self.sim = sim
        self.table = [CompositionStatus() for _ in range(num_gpus)]
        #: bound on concurrently open CGIDs (None = unbounded)
        self.window = window
        #: in-flight CGIDs, in admission order
        self._open: List[int] = []
        #: per-CGID partner restriction (None entry = all-to-all)
        self._group_allowed: Dict[int, Optional[List[Set[int]]]] = {}
        #: high-water mark of concurrently open groups (for RunStats)
        self.groups_peak = 0
        self._waiters: List[Event] = []

    def _record_table_access(self) -> None:
        """Report a scheduler-table mutation to the race sanitizer.

        Recorded as arbitrated: the table is a centralized arbiter whose
        pairing decisions are deterministic (sorted partner scan, FIFO
        notify), so same-cycle updates from several GPUs are the intended
        operating mode, not a race.
        """
        if self.sim is not None:
            self.sim.record_access("scheduler:table", ACCESS_ARBITRATED)

    # -- group window --------------------------------------------------------

    def open_group(self, cgid: int,
                   allowed_partners: Optional[List[Set[int]]] = None) -> None:
        """Admit a composition group into the in-flight window.

        Each open group carries its own partner restriction, so a fail-stop
        repair can narrow one in-flight group to its survivor set without
        touching the groups pipelined behind it.
        """
        if cgid in self._open:
            raise SchedulingError(f"group {cgid} is already in flight")
        if self.window is not None and len(self._open) >= self.window:
            raise SchedulingError(
                f"cannot open group {cgid}: window of {self.window} "
                f"in-flight groups is full ({self._open})")
        if allowed_partners is not None:
            if len(allowed_partners) != self.num_gpus:
                raise SchedulingError("allowed_partners must cover every GPU")
        self._open.append(cgid)
        self._group_allowed[cgid] = allowed_partners
        if len(self._open) > self.groups_peak:
            self.groups_peak = len(self._open)

    def retire_group(self, cgid: int) -> None:
        """Close a finished group, freeing its window slot."""
        if cgid not in self._open:
            raise SchedulingError(f"group {cgid} is not in flight")
        self._open.remove(cgid)
        del self._group_allowed[cgid]

    def advance(self, gpu: int, cgid: int) -> None:
        """Move one GPU's row to an open group, *fully* resetting it.

        The full reset is load-bearing: a row that kept its previous
        Sent/Received vectors across the CGID change would satisfy
        ``gpu_done`` for the new group without exchanging a single
        sub-image (the cross-group state leak this table historically
        avoided by being rebuilt per group).
        """
        if cgid not in self._open:
            raise SchedulingError(
                f"GPU{gpu} cannot advance to group {cgid}: not in flight")
        self._record_table_access()
        row = self.table[gpu]
        row.reset()
        row.cgid = cgid

    def in_flight(self) -> Tuple[int, ...]:
        """Currently open CGIDs, in admission order."""
        return tuple(self._open)

    # -- table driving -------------------------------------------------------

    def start_group(self, cgid: int,
                    allowed_partners: Optional[List[Set[int]]] = None) -> None:
        """Begin a new *sole* composition phase (legacy single-group mode):
        drops any in-flight groups and resets every row onto ``cgid``."""
        self._open.clear()
        self._group_allowed.clear()
        self.open_group(cgid, allowed_partners)
        for row in self.table:
            row.reset()
            row.cgid = cgid

    def mark_ready(self, gpu: int) -> None:
        """GPU finished its draws and generated its sub-image (Fig 12 step 1)."""
        row = self.table[gpu]
        if row.ready:
            raise SchedulingError(f"GPU{gpu} marked ready twice")
        self._record_table_access()
        row.ready = True
        self._notify()

    def partners_of(self, gpu: int) -> Set[int]:
        """Partner set of this GPU *in its row's current group*."""
        allowed = self._group_allowed.get(self.table[gpu].cgid)
        if allowed is not None:
            return allowed[gpu]
        return {g for g in range(self.num_gpus) if g != gpu}

    def find_sender_for(self, receiver: int) -> Optional[int]:
        """A sender this receiver may compose with now (Fig 12 conditions)."""
        row = self.table[receiver]
        if not row.ready or row.receiving:
            return None
        for sender in sorted(self.partners_of(receiver)):
            remote = self.table[sender]
            if (remote.ready and remote.cgid == row.cgid
                    and sender not in row.received_gpus
                    and not remote.sending):
                return sender
        return None

    def begin(self, sender: int, receiver: int) -> None:
        """Claim the pair: set Sending/Receiving (Fig 12 step 4)."""
        s, r = self.table[sender], self.table[receiver]
        if s.sending or r.receiving:
            raise SchedulingError("pair members already busy")
        if sender in r.received_gpus:
            raise SchedulingError("pair already composed")
        self._record_table_access()
        s.sending = True
        r.receiving = True

    def complete(self, sender: int, receiver: int) -> None:
        """Transfer done: clear flags, record Sent/Received (Fig 12 step 5)."""
        s, r = self.table[sender], self.table[receiver]
        if not s.sending or not r.receiving:
            raise SchedulingError("completing a pair that never began")
        self._record_table_access()
        s.sending = False
        r.receiving = False
        s.sent_gpus.add(receiver)
        r.received_gpus.add(sender)
        self._notify()

    # -- completion tests ----------------------------------------------------

    def gpu_done(self, gpu: int) -> bool:
        """All sends and receives for this GPU's partner set finished."""
        row = self.table[gpu]
        partners = self.partners_of(gpu)
        return (row.sent_gpus >= partners and row.received_gpus >= partners)

    def all_done(self) -> bool:
        return all(self.gpu_done(g) for g in range(self.num_gpus))

    # -- DES integration -----------------------------------------------------

    def wait_change(self) -> Event:
        """Event fired at the next table state change."""
        if self.sim is None:
            raise SchedulingError("scheduler built without a simulator")
        event = Event(self.sim)
        self._waiters.append(event)
        return event

    def _notify(self) -> None:
        waiters, self._waiters = self._waiters, []
        for event in waiters:
            if not event.triggered:
                event.succeed()

    # -- hardware accounting ---------------------------------------------------

    def table_size_bytes(self, cgid_bits: int = 8) -> int:
        """Total scheduler storage (§VI-F: 27 bytes for 8 GPUs)."""
        bits = sum(row.size_bits(self.num_gpus, cgid_bits)
                   for row in self.table)
        return (bits + 7) // 8


def adjacency_pairs(num_gpus: int) -> List[Tuple[int, int]]:
    """The adjacent-pair reduction tree for transparent groups.

    Returns (sender, receiver) pairs level by level: at each level, odd-rank
    survivors send to their even-rank left neighbours; receivers survive to
    the next level. Senders and receivers are *adjacent* in submission order
    at every level, which is what associativity permits.
    """
    pairs: List[Tuple[int, int]] = []
    survivors = list(range(num_gpus))
    while len(survivors) > 1:
        next_level = []
        for i in range(0, len(survivors) - 1, 2):
            receiver, sender = survivors[i], survivors[i + 1]
            pairs.append((sender, receiver))
            next_level.append(receiver)
        if len(survivors) % 2 == 1:
            next_level.append(survivors[-1])
        survivors = next_level
    return pairs
