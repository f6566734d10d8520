"""Shared-memory binary images for multi-process evaluation.

The parallel runners used to pickle every binary image through the
job queue: each dispatch re-serialized megabytes of ``bytes``
through a pipe, so parallel speedup was bounded by the queue, not by
the workers. Instead, the parent packs all images into one
``multiprocessing.shared_memory`` arena up front and ships only tiny
picklable :class:`ImageRef` handles; workers map the segment once and
slice their image out of it with zero copies through the queue.

Ownership is strictly creator-side: the parent that built the
:class:`Arena` unlinks it (``destroy()``) after the workers are done.
Workers attach read-only-by-convention and must *not* let their
resource tracker reclaim the segment behind the creator's back —
:func:`_attach` passes ``track=False`` where Python supports it
(3.13+) and otherwise suppresses the tracker registration call for
the duration of the attach (the documented workaround).

Everything degrades gracefully: on platforms without POSIX shared
memory :func:`available` is false and callers fall back to shipping
raw bytes, which keeps outputs identical (just slower).
"""

from __future__ import annotations

import atexit
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro import obs

try:
    from multiprocessing import resource_tracker as _tracker
    from multiprocessing import shared_memory as _shm
except ImportError:  # pragma: no cover — non-POSIX build
    _shm = None
    _tracker = None


def available() -> bool:
    """Whether shared-memory arenas can be used on this platform."""
    return _shm is not None


#: Per-process LRU of attached segments, keyed by segment name. Workers
#: serve many jobs from the same arena; mapping it once per process is
#: the entire point. Long-lived workers also see a fresh segment per
#: scanned binary or service batch, so the cache is bounded: each entry
#: holds an fd and a mapping that keeps an unlinked image's pages alive.
_ATTACHED: OrderedDict[str, object] = OrderedDict()

#: Attached segments kept open per process.
_ATTACH_CACHE = 4

#: Serializes attach + copy, so a thread-executor service cannot evict
#: (and close) a segment another thread is reading. A fork may land
#: while a parent thread holds it, so each child starts with a new one.
_attach_lock = threading.Lock()


def _new_attach_lock() -> None:
    global _attach_lock
    _attach_lock = threading.Lock()


os.register_at_fork(after_in_child=_new_attach_lock)


def _attach(name: str):
    seg = _ATTACHED.get(name)
    if seg is not None:
        _ATTACHED.move_to_end(name)
    else:
        # Attaching must not register the segment with the resource
        # tracker: the tracker would unlink the creator's arena at
        # worker exit, and forked workers share one tracker process, so
        # register-then-unregister pairs from two workers can interleave
        # into a spurious KeyError traceback inside the tracker. Use
        # ``track=False`` (3.13+) when present; otherwise suppress the
        # registration call for the duration of the attach — unlike
        # unregistering afterwards, no tracker message is sent at all.
        try:
            seg = _shm.SharedMemory(name=name, track=False)
        except TypeError:  # Python < 3.13
            orig = _tracker.register
            _tracker.register = lambda *a, **k: None
            try:
                seg = _shm.SharedMemory(name=name)
            finally:
                _tracker.register = orig
        _ATTACHED[name] = seg
        obs.add("shm.attaches", 1)
        while len(_ATTACHED) > _ATTACH_CACHE:
            _close(_ATTACHED.popitem(last=False)[1])
    return seg


def _close(seg) -> None:
    try:
        seg.close()
    except (OSError, BufferError):  # pragma: no cover — live view
        pass


@dataclass(frozen=True)
class ImageRef:
    """Picklable handle to one binary image inside an arena."""

    segment: str
    offset: int
    length: int

    def fetch(self) -> bytes:
        """Materialize the image bytes (maps the segment on first use)."""
        with _attach_lock:
            seg = _attach(self.segment)
            data = bytes(seg.buf[self.offset : self.offset + self.length])
        obs.add("shm.fetches", 1)
        return data


#: Creator-side registry of live arenas, keyed by segment name. An
#: uncaught exception or KeyboardInterrupt between ``share_images`` and
#: the clean-path ``destroy()`` used to strand the ``/dev/shm`` segment
#: until reboot; the atexit sweep below reclaims those. The registry is
#: pid-stamped so a forked worker that inherits it never unlinks the
#: parent's segments on its own exit.
_LIVE_ARENAS: dict[str, "Arena"] = {}
_atexit_registered = False


def _reap_live_arenas() -> None:
    for arena in list(_LIVE_ARENAS.values()):
        if arena._creator_pid == os.getpid():
            obs.add("shm.atexit_reaped", 1)
            arena.destroy()


def _register_arena(arena: "Arena") -> None:
    global _atexit_registered
    _LIVE_ARENAS[arena.name] = arena
    if not _atexit_registered:
        atexit.register(_reap_live_arenas)
        _atexit_registered = True


class Arena:
    """One creator-owned segment packing many images back to back."""

    def __init__(self, seg) -> None:
        self._seg = seg
        self._creator_pid = os.getpid()
        self._destroyed = False

    @property
    def name(self) -> str:
        return self._seg.name

    def destroy(self) -> None:
        """Close and unlink the segment; call once the workers are done.

        Idempotent: crash-recovery paths (``finally`` blocks, the atexit
        sweep, explicit cleanup) may all race to call it, and only the
        first call acts. Live worker mappings survive the unlink (POSIX
        semantics); the kernel reclaims the memory when the last mapping
        closes.
        """
        if self._destroyed:
            return
        self._destroyed = True
        _LIVE_ARENAS.pop(self._seg.name, None)
        with _attach_lock:
            attached = _ATTACHED.pop(self._seg.name, None)
            if attached is not None and attached is not self._seg:
                _close(attached)
        try:
            self._seg.close()
            self._seg.unlink()
        except OSError:  # pragma: no cover — already gone
            pass


def share_images(images: list[bytes]) -> tuple[Arena, list[ImageRef]]:
    """Pack ``images`` into one fresh arena; returns it plus the refs."""
    total = sum(len(b) for b in images)
    seg = _shm.SharedMemory(create=True, size=max(total, 1))
    refs: list[ImageRef] = []
    offset = 0
    for data in images:
        seg.buf[offset : offset + len(data)] = data
        refs.append(ImageRef(seg.name, offset, len(data)))
        offset += len(data)
    obs.add("shm.images", len(images))
    obs.add("shm.bytes", total)
    arena = Arena(seg)
    _register_arena(arena)
    return arena, refs
