import os
from types import SimpleNamespace

import pytest

import hostref
from harness import Context, put_timed


def test_scale_turns_wall_time_into_reference_time():
    assert hostref.scale(hostref.REF_SECONDS) == pytest.approx(1.0)
    # A host running the loop twice as slow halves every wall time.
    assert hostref.scale(2 * hostref.REF_SECONDS) == pytest.approx(0.5)


def test_reference_pair_times_every_cpu_and_ends_its_helpers():
    pair = hostref.ReferencePair(runs=1)
    pids = [pid for pid, _go, _done in pair.helpers]
    assert len(pids) == len(os.sched_getaffinity(0))
    try:
        assert pair.measure() > 0 and pair.measure() > 0
    finally:
        pair.close()
    assert pair.helpers == []
    for pid in pids:  # each helper was waited for
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_put_timed_reports_reference_and_wall_figures():
    ctx = Context(SimpleNamespace(seed=1, seconds=1.0, trace=0), None, None,
                  {}, {})
    ref = hostref.REF_SECONDS
    # Two units of 1 MB in 1 s each; the second ran on a host twice as
    # slow, so its wall times are twice its reference times.
    ms = [i / 1e3 for i in range(1, 151)]
    units = [{"bytes": 1e6, "wall": 1.0, "ref": ref, "lat": ms},
             {"bytes": 1e6, "wall": 1.0, "ref": 2 * ref,
              "lat": [2 * x for x in ms]}]
    put_timed(ctx, units, lambda u: u["lat"])
    m = ctx.metrics
    assert m["throughput_mb_s"] == (pytest.approx(1.0), 2)
    assert m["throughput_mb_rs"] == (pytest.approx(2 / 1.5), 2)
    # In reference time both units hold 1..150 ms once each.
    assert m["p50_ref_ms"] == (pytest.approx(75.0), 300)
    assert m["p95_ref_ms"] == (pytest.approx(143.0), 300)
    assert m["p50_ms"][0] > m["p50_ref_ms"][0]
    assert m["host.ref_ms"] == (pytest.approx(1.5e3 * ref), 2)
