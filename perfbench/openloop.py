"""An open-loop request schedule, timed from when each request was due.

Requests are sent on a fixed schedule whatever the server does, as
independent users would send them. A request's latency runs from its
*due* time, not from when it was actually sent, so a stall in the
generator or on a connection is charged to every request it delays;
how late each send was is kept too, to judge the run.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass

#: A duplicate resends a cold item due at least this many seconds
#: earlier, so the original has been accepted before its duplicate.
DUP_LAG = 1.0


@dataclass(frozen=True)
class Slot:
    """One scheduled request."""

    index: int
    due: float    # seconds after the schedule starts
    kind: str
    item: int     # which input of that kind (for "dup": the cold item)


@dataclass
class Outcome:
    slot: Slot
    sent: float   # seconds after the start, when actually sent
    done: float   # seconds after the start, when the answer arrived
    value: object  # what ``send`` returned, or the exception it raised

    @property
    def late(self) -> float:
        return self.sent - self.slot.due

    @property
    def latency(self) -> float:
        return self.done - self.slot.due


def schedule(cold: int, warm: int, dup: int, seconds: float,
             seed: int) -> list[Slot]:
    """Evenly spaced cold/warm/dup slots in a seeded order.

    Duplicates fall in the last three quarters of the window and resend
    a cold item that was due at least ``DUP_LAG`` seconds earlier.
    """
    total = cold + warm + dup
    rng = random.Random(seed)
    gap = seconds / total
    dup_at = set(rng.sample(range(total // 4, total), dup))
    rest = ["cold"] * cold + ["warm"] * warm
    rng.shuffle(rest)
    slots: list[Slot] = []
    counters = {"cold": 0, "warm": 0}
    cold_due: list[float] = []
    for i in range(total):
        due = i * gap
        if i in dup_at:
            eligible = [k for k, t in enumerate(cold_due)
                        if t <= due - DUP_LAG] or [0]
            slots.append(Slot(i, due, "dup", rng.choice(eligible)))
            continue
        kind = rest.pop()
        slots.append(Slot(i, due, kind, counters[kind]))
        counters[kind] += 1
        if kind == "cold":
            cold_due.append(due)
    return slots


@dataclass
class LoadResult:
    start_wall: float          # time.time() at the schedule's start
    outcomes: list[Outcome]


def run_open_loop(slots: list[Slot], send, *, connections: int = 2,
                  clock=time.monotonic, sleep=time.sleep,
                  wall=time.time) -> LoadResult:
    """Send every slot when due over at most ``connections`` at a time.

    ``send(slot)`` performs one request and returns its answer; an
    exception it raises is kept as the outcome's value.
    """
    outcomes: list[Outcome | None] = [None] * len(slots)
    lock = threading.Lock()
    cursor = iter(range(len(slots)))
    start = clock()
    start_wall = wall()

    def _worker() -> None:
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            slot = slots[i]
            wait = start + slot.due - clock()
            if wait > 0:
                sleep(wait)
            sent = clock() - start
            try:
                value = send(slot)
            except Exception as exc:  # noqa: BLE001 — a failed request
                value = exc
            outcomes[i] = Outcome(slot, sent, clock() - start, value)

    threads = [threading.Thread(target=_worker, daemon=True)
               for _ in range(connections)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return LoadResult(start_wall, [o for o in outcomes if o is not None])
