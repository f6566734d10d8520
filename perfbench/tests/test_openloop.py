import pytest

from openloop import Slot, run_open_loop, schedule


class FakeTime:
    def __init__(self):
        self.now = 100.0

    def clock(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def test_schedule_counts_spacing_and_duplicates():
    slots = schedule(cold=40, warm=30, dup=10, seconds=8.0, seed=3)
    kinds = [s.kind for s in slots]
    assert kinds.count("cold") == 40 and kinds.count("warm") == 30
    assert kinds.count("dup") == 10
    assert [s.due for s in slots] == pytest.approx(
        [i * 0.1 for i in range(80)])
    cold_due = {s.item: s.due for s in slots if s.kind == "cold"}
    for s in slots:
        if s.kind == "dup":
            assert cold_due[s.item] <= s.due - 1.0
    assert schedule(40, 30, 10, 8.0, seed=3) == slots


def test_latency_runs_from_due_time_when_the_generator_is_late():
    t = FakeTime()
    slots = [Slot(i, i * 0.1, "cold", i) for i in range(4)]

    def send(slot):  # every request takes 0.25 s on the only connection
        t.now += 0.25
        return slot.index

    result = run_open_loop(slots, send, connections=1, clock=t.clock,
                           sleep=t.sleep, wall=lambda: 5000.0)
    assert result.start_wall == 5000.0
    out = result.outcomes
    assert [o.value for o in out] == [0, 1, 2, 3]
    assert [o.sent for o in out] == pytest.approx([0.0, 0.25, 0.5, 0.75])
    assert [o.late for o in out] == pytest.approx([0.0, 0.15, 0.3, 0.45])
    # Charged from when each was due: the stall shows in every later one.
    assert [o.latency for o in out] == pytest.approx([0.25, 0.4, 0.55, 0.7])


def test_on_time_requests_wait_for_their_slot_and_errors_are_kept():
    t = FakeTime()
    slots = [Slot(0, 0.0, "warm", 0), Slot(1, 1.0, "warm", 1)]

    def send(slot):
        t.now += 0.01
        if slot.index == 1:
            raise ConnectionError("refused")
        return "ok"

    out = run_open_loop(slots, send, connections=1, clock=t.clock,
                        sleep=t.sleep).outcomes
    assert out[1].sent == pytest.approx(1.0)
    assert out[1].late == pytest.approx(0.0)
    assert isinstance(out[1].value, ConnectionError)


def test_two_connections_send_every_slot_once():
    slots = [Slot(i, 0.0, "cold", i) for i in range(50)]
    out = run_open_loop(slots, lambda s: s.index, connections=2).outcomes
    assert sorted(o.value for o in out) == list(range(50))
