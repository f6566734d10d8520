"""Shared-memory arena lifecycle: idempotent destroy + atexit sweep."""

from __future__ import annotations

import os

import pytest

from repro.eval import shm

pytestmark = pytest.mark.skipif(
    not shm.available(), reason="POSIX shared memory unavailable")


def test_roundtrip_and_idempotent_destroy():
    arena, refs = shm.share_images([b"alpha", b"longer-image-bytes"])
    try:
        assert refs[0].fetch() == b"alpha"
        assert refs[1].fetch() == b"longer-image-bytes"
        assert arena.name in shm._LIVE_ARENAS
    finally:
        arena.destroy()
    assert arena.name not in shm._LIVE_ARENAS
    # Crash-recovery paths may race to destroy; every later call is a
    # no-op instead of an OSError.
    arena.destroy()
    arena.destroy()


def test_destroyed_segment_is_unlinked():
    arena, _ = shm.share_images([b"payload"])
    name = arena.name
    arena.destroy()
    from multiprocessing import shared_memory

    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=name)


def test_atexit_sweep_reaps_creator_arenas():
    arena, _ = shm.share_images([b"stranded"])
    assert arena.name in shm._LIVE_ARENAS
    shm._reap_live_arenas()
    assert arena.name not in shm._LIVE_ARENAS
    assert arena._destroyed


def test_sweep_skips_inherited_arenas():
    # A forked worker inherits the registry; it must never unlink the
    # parent's segments on its own exit. Simulate by faking the pid.
    arena, _ = shm.share_images([b"parent-owned"])
    arena._creator_pid = os.getpid() + 1
    try:
        shm._reap_live_arenas()
        assert arena.name in shm._LIVE_ARENAS
        assert not arena._destroyed
    finally:
        arena._creator_pid = os.getpid()
        arena.destroy()
    assert arena.name not in shm._LIVE_ARENAS


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc/self/fd")
def test_attach_cache_is_bounded():
    """A long-lived worker fetching from many arenas keeps few fds open.

    Fleet scans make one arena per binary and service batches one per
    batch, so a worker's attach cache must evict (and close) old
    segments instead of holding an fd and a mapping for each forever.
    """
    arenas = [shm.share_images([b"image-%d" % i]) for i in range(64)]
    try:
        before = len(os.listdir("/proc/self/fd"))
        for i, (_arena, (ref,)) in enumerate(arenas):
            assert ref.fetch() == b"image-%d" % i
        # Each attached segment holds two fds: its own and the dup the
        # mapping keeps. Unbounded, 64 arenas would add 128.
        grown = len(os.listdir("/proc/self/fd")) - before
        assert grown <= 16
        assert len(shm._ATTACHED) <= 8
        # An evicted segment re-attaches on its next fetch.
        assert arenas[0][1][0].fetch() == b"image-0"
    finally:
        for arena, _refs in arenas:
            arena.destroy()


def test_attach_cache_eviction_is_thread_safe():
    """Threads fetching from more arenas than the cache holds all read
    their own bytes: an eviction never closes a segment mid-copy (the
    thread-executor service fetches from several batches at once)."""
    import sys
    import threading

    arenas = [shm.share_images([b"batch-%d" % i * 512]) for i in range(12)]
    errors: list[BaseException] = []

    def fetch_all(offset: int) -> None:
        try:
            for round_ in range(200):
                i = (offset + round_) % len(arenas)
                assert arenas[i][1][0].fetch() == b"batch-%d" % i * 512
        except BaseException as exc:  # noqa: BLE001 — reported below
            errors.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=fetch_all, args=(k,))
                   for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(switch)
        for arena, _refs in arenas:
            arena.destroy()
    assert errors == []
