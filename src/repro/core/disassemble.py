"""DISASSEMBLE — the linear-sweep collection pass (paper §IV-B, Alg. 1).

One pass over ``.text`` collects everything the rest of the pipeline
needs:

- ``E`` — addresses of end-branch instructions;
- ``C`` — direct-call targets that land inside ``.text``;
- ``J`` — direct unconditional-jump targets inside ``.text``;
- per-site records for tail-call selection;
- the instruction preceding each end-branch (for the indirect-return
  filter);
- direct-call sites whose target leaves ``.text`` (PLT calls), so
  FILTERENDBR can match them against the indirect-return list.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.x86 import vector
from repro.x86.decoder import DecodeError, decode_raw
from repro.x86.insn import InsnClass
from repro.x86.superset import get_index

_ENDBR64 = int(InsnClass.ENDBR64)
_ENDBR32 = int(InsnClass.ENDBR32)
_CALL_DIRECT = int(InsnClass.CALL_DIRECT)
_JMP_DIRECT = int(InsnClass.JMP_DIRECT)


@dataclass(frozen=True)
class BranchSite:
    """One direct branch instruction and its target."""

    addr: int
    target: int
    is_call: bool


@dataclass
class SweepResult:
    """Everything collected by one linear sweep of ``.text``."""

    endbr_addrs: set[int] = field(default_factory=set)
    call_targets: set[int] = field(default_factory=set)
    jump_targets: set[int] = field(default_factory=set)
    call_sites: list[BranchSite] = field(default_factory=list)
    jump_sites: list[BranchSite] = field(default_factory=list)
    #: endbr addr -> (class, target) of the immediately preceding insn.
    endbr_predecessor: dict[int, tuple[InsnClass, int | None]] = field(
        default_factory=dict
    )
    #: Direct-call sites targeting outside .text (candidate PLT calls).
    external_call_sites: list[BranchSite] = field(default_factory=list)
    text_start: int = 0
    text_end: int = 0
    insn_count: int = 0


def disassemble(data: bytes, base_addr: int, bits: int) -> SweepResult:
    """Linear-sweep ``data`` and collect the (E, C, J) tuple plus the
    side tables FILTERENDBR and SELECTTAILCALL consume.

    Decode failures advance one byte, per the paper.
    """
    with obs.span("sweep", bytes=len(data)):
        if vector.available():
            return _disassemble_indexed(
                get_index(data, bits, base_addr), data, base_addr, bits
            )
        return _disassemble(data, base_addr, bits)


def _disassemble_indexed(
    index, data: bytes, base_addr: int, bits: int
) -> SweepResult:
    """The same collection pass, read off the shared decode index.

    The index already knows which offsets the sweep decodes an
    instruction at; masks over their classes pick out the end-branch
    and direct-branch sites, and only those are touched one by one. No
    ``Insn`` objects are materialized. Predecessor resets after decode
    errors, boundary checks on branch targets and the counters mirror
    :func:`_disassemble` exactly — the differential tests hold the two
    to identical results.
    """
    result = SweepResult(text_start=base_addr, text_end=base_addr + len(data))
    end = result.text_end
    targets = index.targets
    offsets, klasses, after_error, errors = index.swept_insns()

    endbr = ((klasses == _ENDBR64) | (klasses == _ENDBR32)).nonzero()[0]
    # The predecessor is the previous swept instruction, unless a
    # decode failure (or the start of .text) came in between.
    has_prev = (endbr > 0) & ~after_error[endbr]
    before = endbr - has_prev
    for off, linked, prev_off, prev_klass in zip(
        offsets[endbr].tolist(), has_prev.tolist(),
        offsets[before].tolist(), klasses[before].tolist(),
    ):
        addr = base_addr + off
        result.endbr_addrs.add(addr)
        if linked:
            result.endbr_predecessor[addr] = (
                InsnClass(prev_klass), targets.get(prev_off)
            )
    for off in offsets[klasses == _CALL_DIRECT].tolist():
        target = targets.get(off)
        site = BranchSite(base_addr + off, target, True)
        if base_addr <= target < end:
            result.call_targets.add(target)
            result.call_sites.append(site)
        else:
            result.external_call_sites.append(site)
    for off in offsets[klasses == _JMP_DIRECT].tolist():
        target = targets.get(off)
        if base_addr <= target < end:
            result.jump_targets.add(target)
            result.jump_sites.append(BranchSite(base_addr + off, target,
                                                False))
    result.insn_count = len(offsets)
    obs.add("sweep.insns", result.insn_count)
    obs.add("sweep.decode_errors", errors)
    obs.add("sweep.endbr_sites", len(result.endbr_addrs))
    return result


def _disassemble(data: bytes, base_addr: int, bits: int) -> SweepResult:
    result = SweepResult(text_start=base_addr, text_end=base_addr + len(data))
    end = result.text_end
    # Previous instruction's (class, target); None after decode errors.
    prev: tuple[int, int | None] | None = None
    offset = 0
    count = 0
    errors = 0
    n = len(data)
    while offset < n:
        addr = base_addr + offset
        try:
            length, klass, target, _notrack = decode_raw(
                data, offset, addr, bits
            )
        except DecodeError:
            offset += 1
            prev = None
            errors += 1
            continue
        offset += length
        count += 1
        if klass == _ENDBR64 or klass == _ENDBR32:
            result.endbr_addrs.add(addr)
            if prev is not None:
                result.endbr_predecessor[addr] = (
                    InsnClass(prev[0]), prev[1]
                )
        elif klass == _CALL_DIRECT:
            if base_addr <= target < end:
                result.call_targets.add(target)
                result.call_sites.append(BranchSite(addr, target, True))
            else:
                result.external_call_sites.append(
                    BranchSite(addr, target, True)
                )
        elif klass == _JMP_DIRECT:
            if base_addr <= target < end:
                result.jump_targets.add(target)
                result.jump_sites.append(BranchSite(addr, target, False))
        prev = (klass, target)
    result.insn_count = count
    obs.add("sweep.insns", count)
    obs.add("sweep.decode_errors", errors)
    obs.add("sweep.endbr_sites", len(result.endbr_addrs))
    return result
