"""The kernel's event record: a ``(time, seq, callback, args)`` tuple."""

from repro.sim.kernel import Simulator


def test_ordering_by_time_then_seq():
    sim = Simulator()
    fired = []
    sim.schedule_at(2.0, fired.append, "late")
    # Lambdas do not compare: equal times must be settled by seq alone.
    sim.schedule_at(1.0, lambda: fired.append("first"))
    sim.schedule_at(1.0, lambda: fired.append("second"))
    seqs = [seq for _, seq, _, _ in sim._heap]
    assert sorted(seqs) == [0, 1, 2]
    assert sim.run() == 3
    assert fired == ["first", "second", "late"]
