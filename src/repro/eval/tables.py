"""Renderers that regenerate the paper's tables and figures.

Each ``table*`` / ``figure*`` function computes the experiment over a
corpus and returns (rendered_text, raw_results). The rendered text
shows measured values next to the paper's, so divergence is visible at
a glance. The raw results feed the shape assertions in ``benchmarks/``.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.analysis.endbr_locations import (
    EndbrDistribution,
    EndbrLocation,
    classify_endbr_locations,
)
from repro.analysis.function_props import (
    ALL_REGIONS,
    CALL,
    ENDBR,
    JMP,
    PropertyVenn,
    analyze_function_properties,
)
from repro.baselines import (
    FetchLikeDetector,
    FunSeekerDetector,
    GhidraLikeDetector,
    IdaLikeDetector,
)
from repro.core.funseeker import Config
from repro.elf.parser import ELFFile
from repro.eval import paper_values as paper
from repro.eval.runner import (
    ErrorBreakdown,
    EvalReport,
    analyze_errors,
    run_evaluation,
)
from repro.synth.corpus import CorpusEntry

SUITE_ORDER = ("coreutils", "binutils", "spec")


def _pct(value: float) -> str:
    return f"{100 * value:6.2f}"


def failure_summary(report: EvalReport) -> str:
    """Render the failed cells of a sweep, one line per cell.

    Returns an empty string for a clean report so renderers can append
    it unconditionally.
    """
    if not report.failures:
        return ""
    lines = [
        f"FAILED CELLS: {len(report.failures)} "
        f"(success rate {100 * report.success_rate():.2f}%)"
    ]
    for f in report.failures:
        lines.append(
            f"  {f.suite}/{f.program} [{f.compiler} x{f.bits} {f.opt}] "
            f"{f.tool}: {f.phase} {f.error_type}: {f.message} "
            f"(attempts={f.attempts})"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Table I
# ---------------------------------------------------------------------------


def table1(corpus: Iterable[CorpusEntry]) -> tuple[str, dict]:
    """Distribution of end-branch locations per compiler and suite."""
    groups: dict[tuple[str, str], EndbrDistribution] = {}
    for entry in corpus:
        key = (entry.profile.compiler, entry.suite)
        dist = classify_endbr_locations(
            ELFFile(entry.binary.data),
            entry.binary.ground_truth.function_starts,
        )
        groups.setdefault(key, EndbrDistribution()).merge(dist)

    lines = [
        "TABLE I: Distribution of end-branch instruction locations",
        "(measured | paper)",
        f"{'':22s} {'Func.Entry':>19s} {'IndirectRet':>19s} "
        f"{'Exception':>19s}",
    ]
    results: dict[tuple[str, str], tuple[float, float, float]] = {}
    for compiler in ("gcc", "clang"):
        for suite in SUITE_ORDER:
            dist = groups.get((compiler, suite))
            if dist is None:
                continue
            entry_f = dist.fraction(EndbrLocation.FUNCTION_ENTRY)
            indir_f = dist.fraction(EndbrLocation.INDIRECT_RETURN)
            exc_f = dist.fraction(EndbrLocation.EXCEPTION)
            results[(compiler, suite)] = (entry_f, indir_f, exc_f)
            ref = paper.TABLE1[(compiler, suite)]
            lines.append(
                f"{compiler:6s}{suite:16s}"
                f"{_pct(entry_f)}|{ref[0]:6.2f} "
                f"{_pct(indir_f)}|{ref[1]:6.2f} "
                f"{_pct(exc_f)}|{ref[2]:6.2f}"
            )
    return "\n".join(lines), results


# ---------------------------------------------------------------------------
# Figure 3
# ---------------------------------------------------------------------------

_REGION_LABEL = {
    frozenset(): "(none)",
    frozenset({ENDBR}): "EndBr only",
    frozenset({CALL}): "DirCall only",
    frozenset({JMP}): "DirJmp only",
    frozenset({ENDBR, CALL}): "EndBr+DirCall",
    frozenset({ENDBR, JMP}): "EndBr+DirJmp",
    frozenset({CALL, JMP}): "DirCall+DirJmp",
    frozenset({ENDBR, CALL, JMP}): "all three",
}


def figure3(corpus: Iterable[CorpusEntry]) -> tuple[str, PropertyVenn]:
    """Function syntactic-property Venn over the whole corpus."""
    venn = PropertyVenn()
    for entry in corpus:
        venn.merge(analyze_function_properties(
            ELFFile(entry.binary.data),
            entry.binary.ground_truth.function_starts,
        ))
    lines = [
        "FIGURE 3: Function syntactic properties "
        f"({venn.total} functions)",
        "(measured% | paper%)",
    ]
    for region in ALL_REGIONS:
        lines.append(
            f"  {_REGION_LABEL[region]:16s} "
            f"{_pct(venn.fraction(region))} | {paper.FIGURE3[region]:6.2f}"
        )
    lines.append(
        f"  {'EndBrAtHead total':16s} "
        f"{_pct(venn.with_property(ENDBR) / venn.total if venn.total else 0)}"
        f" | {89.31:6.2f}"
    )
    return "\n".join(lines), venn


# ---------------------------------------------------------------------------
# Table II
# ---------------------------------------------------------------------------


def table2(corpus: list[CorpusEntry]) -> tuple[str, EvalReport]:
    """FunSeeker under its four configurations."""
    detectors = {
        f"cfg{cfg.value}": FunSeekerDetector(cfg) for cfg in Config
    }
    report = run_evaluation(corpus, detectors)
    lines = [
        "TABLE II: FunSeeker precision/recall by configuration",
        "(measured | paper)",
    ]
    for compiler in ("gcc", "clang"):
        for suite in SUITE_ORDER:
            sub = report.filtered(compiler=compiler, suite=suite)
            if not sub.records:
                continue
            cells = []
            for cfg in Config:
                pooled = sub.filtered(tool=f"cfg{cfg.value}").pooled()
                ref = paper.TABLE2[(compiler, suite)][cfg.value]
                cells.append(
                    f"P{_pct(pooled.precision)}|{ref[0]:5.1f} "
                    f"R{_pct(pooled.recall)}|{ref[1]:5.1f}"
                )
            lines.append(f"{compiler:6s}{suite:10s} " + "  ".join(cells))
    total_cells = []
    for cfg in Config:
        pooled = report.filtered(tool=f"cfg{cfg.value}").pooled()
        ref = paper.TABLE2_TOTAL[cfg.value]
        total_cells.append(
            f"P{_pct(pooled.precision)}|{ref[0]:5.1f} "
            f"R{_pct(pooled.recall)}|{ref[1]:5.1f}"
        )
    lines.append(f"{'total':16s} " + "  ".join(total_cells))
    failures = failure_summary(report)
    if failures:
        lines.append(failures)
    return "\n".join(lines), report


# ---------------------------------------------------------------------------
# Table III
# ---------------------------------------------------------------------------

TABLE3_TOOLS = ("funseeker", "ida", "ghidra", "fetch")


def table3(corpus: list[CorpusEntry]) -> tuple[str, EvalReport]:
    """FunSeeker vs the state-of-the-art baselines, plus timing."""
    detectors = {
        "funseeker": FunSeekerDetector(),
        "ida": IdaLikeDetector(),
        "ghidra": GhidraLikeDetector(),
        "fetch": FetchLikeDetector(),
    }
    report = run_evaluation(corpus, detectors)
    lines = [
        "TABLE III: Function identification vs state-of-the-art tools",
        "(measured | paper)",
    ]
    for bits in (32, 64):
        for suite in SUITE_ORDER:
            sub = report.filtered(bits=bits, suite=suite)
            if not sub.records:
                continue
            cells = []
            for tool in TABLE3_TOOLS:
                pooled = sub.filtered(tool=tool).pooled()
                ref = paper.TABLE3[(bits, suite)][tool]
                cells.append(
                    f"{tool[:4]}: P{_pct(pooled.precision)}|{ref[0]:5.1f}"
                    f" R{_pct(pooled.recall)}|{ref[1]:5.1f}"
                )
            lines.append(f"x{bits:<3d}{suite:10s} " + " ".join(cells))
    total_cells = []
    for tool in TABLE3_TOOLS:
        pooled = report.filtered(tool=tool).pooled()
        ref = paper.TABLE3_TOTAL[tool]
        total_cells.append(
            f"{tool[:4]}: P{_pct(pooled.precision)}|{ref[0]:5.1f}"
            f" R{_pct(pooled.recall)}|{ref[1]:5.1f}"
        )
    lines.append(f"{'total':14s} " + " ".join(total_cells))

    fs_time = report.filtered(tool="funseeker").mean_time()
    fetch_time = report.filtered(tool="fetch").mean_time()
    ratio = fetch_time / fs_time if fs_time else 0.0
    lines.append(
        f"mean time/binary: funseeker {fs_time * 1000:.1f} ms, "
        f"fetch {fetch_time * 1000:.1f} ms "
        f"(fetch/funseeker = {ratio:.1f}x; paper: "
        f"{paper.TABLE3_TIME['funseeker']}s vs "
        f"{paper.TABLE3_TIME['fetch']}s = {paper.TABLE3_SPEEDUP}x)"
    )
    lines.append(
        "  (tools run in column order on one parse: funseeker pays for "
        "the shared decode index and sweep, ghidra for the .eh_frame "
        "parse, so fetch's time holds only its own passes)"
    )
    failures = failure_summary(report)
    if failures:
        lines.append(failures)
    return "\n".join(lines), report


# ---------------------------------------------------------------------------
# §V-C error breakdown
# ---------------------------------------------------------------------------


def error_breakdown(corpus: list[CorpusEntry]) -> tuple[str, ErrorBreakdown]:
    """FunSeeker's FN/FP categories over a corpus (paper §V-C)."""
    detector = FunSeekerDetector()
    total = ErrorBreakdown()
    for entry in corpus:
        detected = detector.detect_bytes(entry.stripped).functions
        total.merge(analyze_errors(entry, detected))
    lines = ["FunSeeker error analysis (paper §V-C)"]
    if total.fn_total:
        lines.append(
            f"  FN: {total.fn_total} — dead functions "
            f"{100 * total.fn_dead / total.fn_total:.1f}% (paper 93.3%), "
            f"tail targets "
            f"{100 * total.fn_tail_target / total.fn_total:.1f}% "
            f"(paper 6.7%)"
        )
    if total.fp_total:
        lines.append(
            f"  FP: {total.fp_total} — fragment references "
            f"{100 * total.fp_fragment / total.fp_total:.1f}% (paper 100%)"
        )
    return "\n".join(lines), total
