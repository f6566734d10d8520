"""Differential tests: vectorized decode vs the legacy scalar sweep.

The vectorized pass (:mod:`repro.x86.vector`) exists purely as an
accelerator — its contract is *bit-identical* outputs to the scalar
superset sweep it replaced. These tests pin that contract from three
angles: property-tested random/constructed byte streams, the checked-in
fuzz-regression corpus, and whole-pipeline :class:`EvalReport` equality
for all five detectors over a real corpus. The linear-sweep bitmap on
the index, and the FunSeeker and IDA-like scans read off it, are held
to the scalar walks the same way.
"""

from __future__ import annotations

import importlib
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import ALL_DETECTORS
from repro.baselines.ida_like import IdaLikeDetector
from repro.cache.disk import reset_default_cache, set_default_cache
from repro.core.disassemble import disassemble
from repro.elf import constants as C
from repro.elf.parser import ELFFile
from repro.eval.runner import run_evaluation
from repro.x86 import superset, vector

pytestmark = pytest.mark.skipif(
    not vector.available(), reason="vectorized decode unavailable"
)

TOOLS = ("funseeker", "ida", "ghidra", "fetch", "naive-endbr")

FUZZ_DIR = Path(__file__).parent.parent / "elf" / "data" / "fuzz_regressions"

#: Valid instructions (prologues, branches, prefixes, SSE/VEX) used to
#: build realistic streams; garbage bytes cover the error paths.
KNOWN = [
    b"\xf3\x0f\x1e\xfa",              # endbr64
    b"\xf3\x0f\x1e\xfb",              # endbr32
    b"\x55",                          # push rbp
    b"\x48\x89\xe5",                  # mov rbp, rsp
    b"\x48\x83\xec\x20",              # sub rsp, 0x20
    b"\xe8\x10\x00\x00\x00",          # call +0x10
    b"\xe9\x20\x00\x00\x00",          # jmp +0x20
    b"\x74\x05",                      # je +5
    b"\x66\xe9\x10\x00",              # jmp with 16-bit operand size
    b"\xc3",                          # ret
    b"\x90",                          # nop
    b"\x0f\x1f\x44\x00\x00",          # nop5
    b"\xff\xd0",                      # call rax
    b"\x3e\xff\xe0",                  # notrack jmp rax
    b"\x48\x8d\x05\x10\x00\x00\x00",  # lea rax, [rip+0x10]
    b"\xb8\x01\x00\x00\x00",          # mov eax, 1
    b"\x68\x44\x33\x22\x11",          # push imm32
    b"\x67\x8b\x00",                  # addr-size prefixed load
    b"\xc5\xf8\x77",                  # vzeroupper (scalar-fallback class)
    b"\xf2\x0f\x58\xc1",              # addsd
]

_streams = st.one_of(
    st.binary(min_size=0, max_size=64),
    st.lists(st.sampled_from(KNOWN), min_size=1, max_size=12).map(
        b"".join),
)

#: ``FE`` with ModRM.reg > 1 is invalid in both modes, and so is every
#: ``FE`` of a run followed by an endbr (``F3`` has reg 6): each byte of
#: such a run is a one-byte decode failure.
ERROR_RUN = b"\xfe"

_sweep_streams = st.one_of(
    st.binary(min_size=0, max_size=64),
    st.lists(
        st.sampled_from(KNOWN + [ERROR_RUN, ERROR_RUN * 3]),
        min_size=1, max_size=16,
    ).map(b"".join),
)

_disassemble_mod = importlib.import_module("repro.core.disassemble")


def _index_pair(data: bytes, bits: int, base: int):
    """Build the same index twice: scalar-forced, then vectorized."""
    vector.set_enabled(False)
    try:
        legacy = superset.build_index(data, bits, base)
    finally:
        vector.set_enabled(None)
    vector.set_enabled(True)
    try:
        fast = superset.build_index(data, bits, base)
    finally:
        vector.set_enabled(None)
    return legacy, fast


def _assert_index_identical(data: bytes, bits: int, base: int = 0x1000):
    legacy, fast = _index_pair(data, bits, base)
    assert fast.lengths == legacy.lengths
    assert fast.klasses == legacy.klasses
    assert fast.targets == legacy.targets
    assert fast.notracks == legacy.notracks
    assert fast.viable == legacy.viable


class TestIndexIdentity:
    @given(data=_streams, bits=st.sampled_from([32, 64]))
    @settings(max_examples=300, deadline=None)
    def test_property_streams(self, data, bits):
        _assert_index_identical(data, bits)

    @given(data=st.binary(min_size=1, max_size=48))
    @settings(max_examples=150, deadline=None)
    def test_wraparound_base(self, data):
        """Branch-target arithmetic must wrap identically near 2^64."""
        _assert_index_identical(data, 64, base=0xFFFFFFFFFF000000)

    @pytest.mark.parametrize(
        "path", sorted(FUZZ_DIR.glob("*.bin")), ids=lambda p: p.name
    )
    @pytest.mark.parametrize("bits", [32, 64])
    def test_fuzz_regression_corpus(self, path, bits):
        _assert_index_identical(path.read_bytes(), bits)


class TestSweepIdentity:
    def test_sample_binary_sweep(self, sample_elf):
        """Full SweepResult equality on a real gcc/O2/PIE C++ binary."""
        txt = sample_elf.section(C.SECTION_TEXT)
        assert txt is not None and txt.data
        vector.set_enabled(False)
        try:
            legacy = disassemble(txt.data, txt.sh_addr, 64)
        finally:
            vector.set_enabled(None)
        vector.set_enabled(True)
        try:
            fast = disassemble(txt.data, txt.sh_addr, 64)
        finally:
            vector.set_enabled(None)
        assert fast == legacy

    def test_sample_binary_index(self, sample_elf, sample_c_binary):
        from repro.elf.parser import ELFFile

        txt = sample_elf.section(C.SECTION_TEXT)
        _assert_index_identical(txt.data, 64, base=txt.sh_addr)
        elf32 = ELFFile(sample_c_binary.data)
        txt32 = elf32.section(C.SECTION_TEXT)
        _assert_index_identical(txt32.data, 32, base=txt32.sh_addr)


def _scalar_visits(data: bytes, bits: int, base: int, monkeypatch):
    """The offsets the scalar ``_disassemble`` decodes at, in order,
    and which of them failed."""
    visits: list[int] = []
    failed: set[int] = set()
    real = _disassemble_mod.decode_raw

    def recording(buf, offset, addr, mode):
        visits.append(offset)
        try:
            return real(buf, offset, addr, mode)
        except Exception:
            failed.add(offset)
            raise

    with monkeypatch.context() as m:
        m.setattr(_disassemble_mod, "decode_raw", recording)
        legacy = _disassemble_mod._disassemble(data, base, bits)
    return visits, failed, legacy


def _swept(data: bytes, bits: int, base: int):
    vector.set_enabled(True)
    try:
        superset.clear_index_memo()
        fast = disassemble(data, base, bits)
        index = superset.get_index(data, bits, base)
        starts = index.sweep
        offsets, _, after_error, errors = index.swept_insns()
    finally:
        vector.set_enabled(None)
        superset.clear_index_memo()
    assert len(starts) == (len(data) + 7) // 8
    return (offsets.tolist(), after_error.tolist(), errors), fast


def _assert_sweep_identical(data, bits, monkeypatch, base=0x1000):
    visits, failed, legacy = _scalar_visits(data, bits, base, monkeypatch)
    (offsets, after_error, errors), fast = _swept(data, bits, base)
    assert offsets == [v for v in visits if v not in failed]
    assert after_error == [off - 1 in failed for off in offsets]
    assert errors == len(failed)
    assert fast == legacy


class TestSweepStarts:
    """The index's sweep bitmap is exactly the scalar walk's decodes."""

    @given(data=_sweep_streams, bits=st.sampled_from([32, 64]))
    @settings(max_examples=300, deadline=None)
    def test_property_streams(self, data, bits):
        with pytest.MonkeyPatch.context() as mp:
            _assert_sweep_identical(data, bits, mp)

    @pytest.mark.parametrize("bits", [32, 64])
    @pytest.mark.parametrize("run", [1, 2, 5])
    def test_error_run_resets_endbr_predecessor(self, bits, run,
                                                monkeypatch):
        endbr = KNOWN[0] if bits == 64 else KNOWN[1]
        data = b"\x55" + ERROR_RUN * run + endbr + b"\x90" + endbr \
            + ERROR_RUN * run
        _assert_sweep_identical(data, bits, monkeypatch)
        (offsets, after_error, errors), fast = _swept(data, bits, 0x1000)
        first = 0x1000 + 1 + run
        second = first + 5
        assert fast.endbr_addrs == {first, second}
        assert first not in fast.endbr_predecessor
        assert fast.endbr_predecessor[second][0].name == "NOP"
        assert after_error[offsets.index(first - 0x1000)]
        assert errors == 2 * run

    def test_leading_error_and_empty(self, monkeypatch):
        for data in (b"", ERROR_RUN, ERROR_RUN + KNOWN[0], KNOWN[0]):
            _assert_sweep_identical(data, 64, monkeypatch)
        _, fast = _swept(KNOWN[0], 64, 0x1000)
        assert fast.endbr_predecessor == {}

    @pytest.mark.parametrize(
        "path", sorted(FUZZ_DIR.glob("*.bin")), ids=lambda p: p.name
    )
    @pytest.mark.parametrize("bits", [32, 64])
    def test_fuzz_regression_corpus(self, path, bits, monkeypatch):
        _assert_sweep_identical(path.read_bytes(), bits, monkeypatch)

    def test_sample_binaries(self, sample_elf, sample_c_binary,
                             monkeypatch):
        for elf in (sample_elf, ELFFile(sample_c_binary.data)):
            txt = elf.section(C.SECTION_TEXT)
            _assert_sweep_identical(txt.data, 64 if elf.is64 else 32,
                                    monkeypatch, base=txt.sh_addr)


def _xref_pair(txt, bits: int, pie: bool):
    ida = IdaLikeDetector()
    superset.clear_index_memo()
    vector.set_enabled(False)
    try:
        legacy = ida._xref_targets(txt, bits, pie=pie)
    finally:
        vector.set_enabled(None)
    vector.set_enabled(True)
    try:
        fast = ida._xref_targets(txt, bits, pie=pie)
    finally:
        vector.set_enabled(None)
        superset.clear_index_memo()
    return legacy, fast


class TestXrefIdentity:
    """IDA-like xref sweep: vectorized equals scalar."""

    @pytest.mark.parametrize("pie", [True, False])
    def test_sample_binaries(self, sample_elf, sample_c_binary, pie):
        for elf in (sample_elf, ELFFile(sample_c_binary.data)):
            txt = elf.section(C.SECTION_TEXT)
            legacy, fast = _xref_pair(txt, 64 if elf.is64 else 32, pie)
            assert fast == legacy
            if not pie:
                assert legacy, "no xrefs found proves nothing"

    @given(data=_sweep_streams, bits=st.sampled_from([32, 64]),
           pie=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_property_streams(self, data, bits, pie):
        # Base 0 keeps absolute mov/push immediates inside the buffer.
        txt = SimpleNamespace(data=data, sh_addr=0)
        legacy, fast = _xref_pair(txt, bits, pie)
        assert fast == legacy


def test_retained_bytes_counts_sweep_bitmap():
    """The memo bound counts the sweep bitmap before it exists, so an
    index's figure never changes while it sits in the memo."""
    data = b"\x90" * 4096          # no sparse targets: packed arrays only
    index = superset.build_index(data, 64, 0x1000)
    assert not index.targets and not index.notracks
    before = index.retained_bytes()
    starts = index.sweep
    assert index.retained_bytes() == before
    packed = (len(index.lengths) + len(index.klasses) + len(index.viable)
              + len(starts))
    assert len(starts) == len(data) // 8
    assert before >= packed


def _canonical_report(corpus, enabled: bool):
    superset.clear_index_memo()
    vector.set_enabled(enabled)
    try:
        detectors = {name: ALL_DETECTORS[name]() for name in TOOLS}
        report = run_evaluation(corpus, detectors)
    finally:
        vector.set_enabled(None)
        superset.clear_index_memo()
    assert not report.failures
    return sorted(
        (r.suite, r.program, r.compiler, r.bits, r.pie, r.opt, r.tool,
         r.confusion.tp, r.confusion.fp, r.confusion.fn)
        for r in report.records
    )


def test_eval_reports_identical_all_tools(tiny_corpus):
    """The acceptance bar: all five tools, vector on vs off, one corpus."""
    set_default_cache(None)
    try:
        legacy = _canonical_report(tiny_corpus, enabled=False)
        fast = _canonical_report(tiny_corpus, enabled=True)
    finally:
        reset_default_cache()
    assert legacy, "empty evaluation proves nothing"
    assert fast == legacy
