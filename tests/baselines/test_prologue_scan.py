"""The NumPy prologue scan equals the byte-loop reference.

:func:`repro.baselines.base.prologue_scan` reads each aligned window as
one 64-bit word and matches all windows at once; the reference walks
them one by one. Streams are built from the signatures themselves,
end-branch markers and filler, so matches, near misses, and windows cut
short by the end of the buffer are all common.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.base import (
    _PROLOGUE_SIGS_32,
    _PROLOGUE_SIGS_64,
    prologue_scan,
)
from repro.elf import constants as C
from repro.elf.parser import ELFFile
from tests.baselines.reference_prologue import prologue_scan_reference

FUZZ_DIR = Path(__file__).parent.parent / "elf" / "data" / "fuzz_regressions"

ENDBR64 = b"\xf3\x0f\x1e\xfa"
ENDBR32 = b"\xf3\x0f\x1e\xfb"

_PIECES = (
    list(_PROLOGUE_SIGS_64) + list(_PROLOGUE_SIGS_32)
    + [ENDBR64, ENDBR32, ENDBR64 + b"\x55", ENDBR32 + b"\x53\x83",
       b"\x55", b"\x48", b"\x83", b"\x90", b"\x00", b"\xf3\x0f\x1e",
       b"\xcc" * 3]
)

_streams = st.one_of(
    st.binary(max_size=96),
    st.lists(st.sampled_from(_PIECES), max_size=24).map(b"".join),
)


def _assert_same(data, bits, alignment, base=0x401000, skip=None):
    fast = prologue_scan(data, base, bits, alignment=alignment, skip=skip)
    ref = prologue_scan_reference(data, base, bits, alignment=alignment,
                                  skip=skip)
    assert fast == ref


@given(data=_streams, bits=st.sampled_from([32, 64]),
       alignment=st.sampled_from([1, 2, 4, 16]))
@settings(max_examples=400, deadline=None)
def test_property_streams(data, bits, alignment):
    _assert_same(data, bits, alignment)


@given(data=_streams, bits=st.sampled_from([32, 64]),
       alignment=st.sampled_from([1, 2, 4, 16]), picks=st.data())
@settings(max_examples=200, deadline=None)
def test_property_skip(data, bits, alignment, picks):
    base = 0x8048000
    hits = sorted(prologue_scan_reference(data, base, bits,
                                          alignment=alignment))
    skip = set(picks.draw(st.lists(st.sampled_from(hits), unique=True))
               if hits else [])
    # Non-aligned and out-of-range addresses must be harmless too.
    skip |= {base + 3, base - 16, base + len(data) + 1}
    _assert_same(data, bits, alignment, base=base, skip=skip)


@pytest.mark.parametrize("bits", [32, 64])
@pytest.mark.parametrize("alignment", [1, 2, 4, 16])
@pytest.mark.parametrize("sig_index", [0, 1, 2])
@pytest.mark.parametrize("endbr", [b"", ENDBR64, ENDBR32])
def test_signature_at_every_tail_length(bits, alignment, sig_index,
                                        endbr):
    """A (possibly endbr-prefixed) prologue cut short at each length,
    at the very end of the buffer: shorter than the 8-byte window."""
    sigs = _PROLOGUE_SIGS_64 if bits == 64 else _PROLOGUE_SIGS_32
    whole = endbr + sigs[sig_index] + b"\x10"
    for cut in range(len(whole) + 1):
        for lead in (0, alignment, 3 * alignment):
            data = b"\x90" * lead + whole[:cut]
            _assert_same(data, bits, alignment)


def test_endbr_prefixed_prologues_found():
    code = (ENDBR64 + b"\x55\x48\x89\xe5" + b"\x90" * 8
            + ENDBR32 + b"\x55\x89\xe5" + b"\x90" * 9)
    assert prologue_scan(code, 0, 64) == {0}
    assert prologue_scan(code, 0, 32) == {16}


@pytest.mark.parametrize(
    "path", sorted(FUZZ_DIR.glob("*.bin")), ids=lambda p: p.name
)
@pytest.mark.parametrize("bits", [32, 64])
@pytest.mark.parametrize("alignment", [1, 4, 16])
def test_fuzz_regression_corpus(path, bits, alignment):
    _assert_same(path.read_bytes(), bits, alignment)


def test_sample_binaries(sample_elf, sample_c_binary):
    for elf in (sample_elf, ELFFile(sample_c_binary.data)):
        txt = elf.section(C.SECTION_TEXT)
        bits = 64 if elf.is64 else 32
        for alignment in (1, 16):
            _assert_same(txt.data, bits, alignment, base=txt.sh_addr)
