"""What every workload shares: the run context and the layer arithmetic."""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import time
from pathlib import Path

import pctl
from checks import Checker
from hostref import scale

ROOT = Path(__file__).resolve().parent.parent

#: Set-up is timed this many times per run; the median is reported.
SETUP_RUNS = 5

#: Span name -> per-layer metric (self seconds per MB analysed).
SPAN_LAYERS = {
    "elf.parse": "elf.parse_s",
    "x86.index": "x86.index_s",
    "core.funseeker": "core.funseeker_s",
    "baselines.fetch": "baselines.fetch_s",
    "baselines.ida": "baselines.ida_s",
    "baselines.ghidra": "baselines.ghidra_s",
    "baselines.naive": "baselines.naive_s",
    "cache.context": "cache.context_s",
    "eval.score": "eval.score_s",
    "eval.run": "eval.self_s",
    "ingest.discover": "ingest.discover_s",
    "ingest.admit": "ingest.admit_s",
    "ingest.journal": "ingest.journal_s",
}


def program_env() -> dict:
    """The program's environment: its sources, no inherited knobs."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _end_group(pgid: int, timeout: float = 5.0) -> None:
    """Kill whatever is left in a process group and wait until it is
    empty; a child killed hard can leave its own forked workers."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


class RunInvalid(Exception):
    """The run measured something other than what it claims."""


class Context:
    """What one run needs: where things are and what it must do."""

    def __init__(self, args, inputs: Path, scratch: Path,
                 reference: dict, expected: dict) -> None:
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.inputs = inputs
        self.scratch = scratch
        self.checker = Checker(reference, expected)
        self.metrics: dict[str, tuple[float, int]] = {}
        self.children: list[subprocess.Popen] = []

    def launch(self, argv: list[str]) -> subprocess.Popen:
        """Start a program process in its own process group."""
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                env=program_env(), cwd=str(ROOT),
                                start_new_session=True)
        self.children.append(proc)
        return proc

    def reap(self, proc: subprocess.Popen) -> tuple[int, float]:
        """Wait for ``proc``; returns (exit code, peak RSS in MB of it
        and every descendant it waited for)."""
        if proc.stdout is not None:
            proc.stdout.read()
            proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.children.remove(proc)
        _end_group(proc.pid)
        return proc.returncode, usage.ru_maxrss / 1024.0

    def stop_children(self) -> None:
        """Stop what is still running: SIGTERM, then SIGKILL the group."""
        for proc in list(self.children):
            if proc.poll() is None:
                proc.terminate()
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
            _end_group(proc.pid)
        self.children.clear()

    def put(self, name: str, value: float, n: int) -> None:
        self.metrics[name] = (float(value), int(n))

    def put_percentiles(self, prefix: str, samples_ms: list[float],
                        suffix: str = "_ms") -> None:
        for q in (50, 95):
            summary = pctl.summarize(samples_ms, q)
            if summary is None:
                raise RunInvalid(
                    f"{prefix}p{q}: {len(samples_ms)} samples leave fewer "
                    f"than {pctl.MIN_BEYOND} beyond the percentile")
            self.put(f"{prefix}p{q}{suffix}", *summary)


def put_timed(ctx: Context, units: list[dict], samples) -> None:
    """Throughput and latency percentiles of measured units of work.

    Each unit has its ``bytes``, its ``wall`` seconds and ``ref``, the
    reference loop's time beside it (see hostref.py); ``samples(unit)``
    gives its latencies in seconds. The end-to-end metrics are in
    reference time; the wall-time figures are shown beside them.
    """
    mb = sum(u["bytes"] for u in units) / 1e6
    ref_wall = sum(u["wall"] * scale(u["ref"]) for u in units)
    ctx.put("throughput_mb_rs", mb / ref_wall, len(units))
    ctx.put("throughput_mb_s", mb / sum(u["wall"] for u in units),
            len(units))
    ctx.put_percentiles("", [s * scale(u["ref"]) * 1e3 for u in units
                             for s in samples(u)], "_ref_ms")
    ctx.put_percentiles("", [s * 1e3 for u in units for s in samples(u)])
    ctx.put("host.ref_ms", 1e3 * statistics.median(
        u["ref"] for u in units), len(units))


def put_layers(ctx: Context, totals: dict, *, mb: float,
               images: int) -> None:
    """Span self times per MB analysed, index builds per image."""
    for span, metric in SPAN_LAYERS.items():
        agg = totals.get(span, [0, 0.0, 0.0])
        ctx.put(metric, agg[2] / mb if mb else 0.0, agg[0])
    builds = totals.get("x86.index", [0, 0.0, 0.0])[0]
    ctx.put("x86.index_builds", builds / images if images else 0.0, images)
    fetch = totals.get("baselines.fetch", [0, 0.0, 0.0])
    funseeker = totals.get("core.funseeker", [0, 0.0, 0.0])
    ratio = fetch[2] / funseeker[2] if fetch[2] and funseeker[2] else 0.0
    ctx.put("baselines.fetch_over_funseeker", ratio, fetch[0])


def put_overhead(ctx: Context, untraced: list[float],
                 traced: list[float]) -> None:
    """Traced vs untraced median wall of the same unit of work, in %."""
    ratio = statistics.median(traced) / statistics.median(untraced)
    pct = 100.0 * (ratio - 1.0)
    ctx.put("trace.overhead_pct", pct, len(untraced) + len(traced))
