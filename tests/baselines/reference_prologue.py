"""Byte-loop prologue signature scan: the reference the NumPy
:func:`repro.baselines.base.prologue_scan` is held equal to.

This is the scan as first written, one aligned window at a time. It is
kept only as a test oracle.
"""

from __future__ import annotations

from repro.baselines.base import _PROLOGUE_SIGS_32, _PROLOGUE_SIGS_64

_ENDBRS = (b"\xf3\x0f\x1e\xfa", b"\xf3\x0f\x1e\xfb")


def prologue_scan_reference(
    data: bytes, base: int, bits: int, *, alignment: int = 16,
    skip: set[int] | None = None,
) -> set[int]:
    sigs = _PROLOGUE_SIGS_64 if bits == 64 else _PROLOGUE_SIGS_32
    skip = skip or set()
    found: set[int] = set()
    for off in range(0, len(data), alignment):
        addr = base + off
        if addr in skip:
            continue
        window = data[off : off + 8]
        for sig in sigs:
            if window.startswith(sig):
                found.add(addr)
                break
        else:
            # endbr, then a prologue: reported at the aligned address.
            if window[4:8]:
                for sig in sigs:
                    if window[4:].startswith(sig) \
                            and window[:4] in _ENDBRS:
                        found.add(addr)
                        break
    return found
