"""IDA-style detector: call-graph traversal plus signature matching.

Re-implements the strategy of a classic interactive disassembler
(§V-A2): recursive traversal from the program entry point, chasing of
address-materialization references (``lea``/``mov $imm``/``push $imm``
operands that point into ``.text`` — IDA creates functions at code
cross-references), and FLIRT-flavored prologue signature matching over
unexplored aligned addresses. No use of CET markers as an entry
signature, and no reliance on ``.eh_frame`` (real IDA predates both and
uses proprietary heuristics).

Reproduced failure modes (Table III): the lowest recall of all tools —
96% of its misses in the paper are indirect-branch-only targets that
leave no chaseable reference, plus statics with irregular optimized
prologues.
"""

from __future__ import annotations

from repro.baselines.base import (
    FunctionDetector,
    prologue_scan,
    recursive_traversal,
    text_section,
)
from repro.elf.parser import ELFFile
from repro.x86 import vector
from repro.x86.decoder import DecodeError, decode
from repro.x86.insn import TERMINATOR_CLASSES, InsnClass
from repro.x86.superset import get_index

#: Classes whose operand is an address-materialization candidate.
_XREF_CLASSES = frozenset(
    {InsnClass.LEA, InsnClass.MOV_IMM, InsnClass.PUSH_IMM}
)

_TERMINATORS = frozenset(int(k) for k in TERMINATOR_CLASSES)
_LEA = int(InsnClass.LEA)
_MOV_IMM = int(InsnClass.MOV_IMM)
_PUSH_IMM = int(InsnClass.PUSH_IMM)


class IdaLikeDetector(FunctionDetector):
    """Entry-point traversal + code xrefs + prologue signatures."""

    name = "ida"

    def _detect(self, elf: ELFFile) -> set[int]:
        txt = text_section(elf)
        if txt is None or not txt.data:
            return set()
        bits = 64 if elf.is64 else 32

        seeds: set[int] = set()
        if txt.contains_addr(elf.header.e_entry):
            seeds.add(elf.header.e_entry)
        # Code cross-references: operands of address-materializing
        # instructions that point at plausible code. IDA's auto-analysis
        # creates functions at such targets. In position-independent
        # code absolute immediates are data, not code pointers, so only
        # RIP-relative LEAs count there.
        pie = elf.header.is_pie
        seeds.update(self._xref_targets(txt, bits, pie=pie))
        found = recursive_traversal(txt.data, txt.sh_addr, bits, seeds)
        # Signature sweep over still-unexplored aligned addresses.
        found.update(
            prologue_scan(txt.data, txt.sh_addr, bits, skip=found)
        )
        return found

    def _xref_targets(self, txt, bits: int, *, pie: bool) -> set[int]:
        data = txt.data
        base = txt.sh_addr
        if vector.available():
            return self._xref_targets_indexed(
                get_index(data, bits, base), data, base, bits, pie=pie
            )
        out: set[int] = set()
        end = base + len(data)
        classes = {InsnClass.LEA} if pie else _XREF_CLASSES
        offset = 0
        while offset < len(data):
            try:
                insn = decode(data, offset, base + offset, bits)
            except DecodeError:
                offset += 1
                continue
            offset += insn.length
            if insn.klass in classes and insn.target is not None:
                if base <= insn.target < end \
                        and self._plausible_entry(data, insn.target - base,
                                                  bits):
                    out.add(insn.target)
        return out

    def _xref_targets_indexed(
        self, index, data: bytes, base: int, bits: int, *, pie: bool
    ) -> set[int]:
        """The xref sweep off the shared decode index (same outputs).

        The index gives the instructions the scalar loop decodes; a
        class mask picks the address-materializing ones, and
        only those sites are checked one by one.
        """
        out: set[int] = set()
        end = base + len(data)
        n = len(data)
        targets = index.targets
        offsets, klasses, _, _ = index.swept_insns()
        sites = klasses == _LEA
        if not pie:
            sites |= (klasses == _MOV_IMM) | (klasses == _PUSH_IMM)
        for off in offsets[sites].tolist():
            target = targets.get(off)
            if target is not None and base <= target < end \
                    and self._plausible_entry_indexed(
                        index, target - base, n):
                out.add(target)
        return out

    @staticmethod
    def _plausible_entry(data: bytes, offset: int, bits: int) -> bool:
        """IDA only creates a function at an xref if the bytes decode."""
        for _ in range(4):
            try:
                insn = decode(data, offset, offset, bits)
            except DecodeError:
                return False
            if insn.is_terminator:
                return True
            offset += insn.length
            if offset >= len(data):
                return False
        return True

    @staticmethod
    def _plausible_entry_indexed(index, offset: int, n: int) -> bool:
        lengths = index.lengths
        klasses = index.klasses
        for _ in range(4):
            length = lengths[offset]
            if length == 0:
                return False
            if klasses[offset] in _TERMINATORS:
                return True
            offset += length
            if offset >= n:
                return False
        return True
