"""The workload process for table3-serial and fleet-scan.

Usage: ``python3 perfbench/child.py <table3|fleet> <config.json>``

It imports ``repro``, reads the already-generated inputs, prints
``ready`` on stdout (the end of set-up), then drives the program for
the configured seconds and writes what it saw to ``config["out"]``. In
probe mode it exits right after ``ready``, so the parent can time
set-up several times. With ``trace`` set, units of work alternate untraced
and traced, so the trace overhead is measured on the same inputs in the
same process at the same time.
"""

from __future__ import annotations

import json
import math
import pickle
import shutil
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pctl  # noqa: E402
from corpus_inputs import function_digest  # noqa: E402
from hostref import ReferencePair, time_reference  # noqa: E402
from ledger import Tracer  # noqa: E402


def _ready() -> None:
    print("ready", flush=True)


class _Recording:
    """A detector that also keeps the entry set it returned."""

    def __init__(self, detector, sink: dict) -> None:
        self._detector = detector
        self._sink = sink
        self.name = detector.name

    def detect(self, elf):
        result = self._detector.detect(elf)
        self._sink[self.name] = result.functions
        return result


class _Window:
    """The measurement window. When tracing, units alternate untraced
    and traced, starting untraced, so both sides see the same machine."""

    def __init__(self, seconds: float, trace: bool, spans_dir,
                 samples_per_unit: int) -> None:
        self.end = time.perf_counter() + seconds
        self.tracer = Tracer(spans_dir) if trace else None
        # Enough units after the warm-up unit for a p95 even when the
        # window is short, and when tracing, at least one traced and one
        # untraced after it.
        self.minimum = 1 + max(2 if trace else 1, math.ceil(
            pctl.MIN_SAMPLES_P95 / max(1, samples_per_unit)))

    def next_unit(self, done: int) -> bool | None:
        """``None`` once the window is over and the minimum number of
        units ran, else whether the next unit is traced."""
        if time.perf_counter() >= self.end and done >= self.minimum:
            return None
        if self.tracer is None:
            return False
        traced = done % 2 == 1
        if traced:
            self.tracer.install()
        else:
            self.tracer.uninstall()
        return traced

    def close(self) -> None:
        if self.tracer is not None:
            self.tracer.uninstall()
            self.tracer.flush()


def table3(cfg: dict) -> dict | None:
    from repro.baselines import ALL_DETECTORS
    from repro.eval import runner
    from repro.x86.superset import clear_index_memo

    with open(Path(cfg["inputs"]) / "table3.pkl", "rb") as f:
        entries = pickle.load(f)
    _ready()
    if cfg["probe"]:
        return None

    sink: dict = {}
    detectors = {name: _Recording(cls(), sink)
                 for name, cls in ALL_DETECTORS.items()}
    size = sum(len(e.stripped) for e in entries)
    window = _Window(cfg["seconds"], cfg["trace"], cfg["spans"],
                     len(entries))
    passes = []
    while (traced := window.next_unit(len(passes))) is not None:
        # Each pass is a fresh `funseeker evaluate`: no memoized index
        # survives from the previous pass.
        clear_index_memo()
        latencies, refs, outputs = [], [], []
        for entry in entries:
            t0 = time.perf_counter()
            report = runner.run_evaluation([entry], detectors)
            latencies.append(time.perf_counter() - t0)
            outputs.append((entry.label, report, dict(sink)))
            sink.clear()
            # The host's speed on this core, right after the image.
            refs.append(time_reference())
        wall = sum(latencies)
        cells = {}
        for label, report, found in outputs:
            ok = {r.tool for r in report.records}
            cells[label] = {
                tool: (function_digest(found[tool])
                       if tool in ok and tool in found else None)
                for tool in detectors}
        passes.append({"wall": wall, "bytes": size, "traced": traced,
                       "ref": statistics.median(refs),
                       "latencies": latencies, "cells": cells})
    window.close()
    return {"passes": passes}


def fleet(cfg: dict) -> dict | None:
    from repro.ingest.pipeline import run_scan

    inputs = Path(cfg["inputs"])
    fleet_dir = inputs / "fleet"
    meta = json.loads((inputs / "fleet.json").read_text())
    size = sum((fleet_dir / rel).stat().st_size for rel in meta["files"])
    _ready()
    if cfg["probe"]:
        return None

    runs = Path(cfg["run_dir"])
    window = _Window(cfg["seconds"], cfg["trace"], cfg["spans"],
                     sum(info["kind"] == "elf"
                         for info in meta["files"].values()))
    scans = []
    # The scan runs on both CPUs, so the host's speed is taken on both,
    # between scans, while the program is idle.
    with ReferencePair() as pair:
        before = pair.measure()
        while (traced := window.next_unit(len(scans))) is not None:
            run_dir = runs / f"scan{len(scans)}"
            started = time.perf_counter()
            result = run_scan(run_dir, roots=[str(fleet_dir)], workers=2)
            wall = time.perf_counter() - started
            after = pair.measure()
            state = result.state

            def rel(path: str) -> str:
                return str(Path(path).relative_to(fleet_dir))

            analyses = {}
            for path, doc in state.analyses.items():
                tools = doc.get("tools") or {}
                analyses[rel(path)] = {
                    "status": doc.get("status"),
                    "elapsed": doc.get("elapsed_seconds", 0.0),
                    "size": doc.get("size", 0),
                    "funseeker": (tools.get("funseeker")
                                  or {}).get("functions"),
                    "jaccard": (doc.get("agreement") or {}).get(
                        "funseeker|naive-endbr"),
                }
            scans.append({
                "wall": wall, "bytes": size, "traced": traced,
                "ref": (before + after) / 2,
                "analyses": analyses,
                "triage": {rel(p): d.get("decision")
                           for p, d in state.triage.items()},
                "failures": {rel(p): d.get("error_type")
                             for p, d in state.failures.items()},
                "lost_workers": result.stats.lost_workers,
            })
            shutil.rmtree(run_dir, ignore_errors=True)
            before = after
    window.close()
    return {"scans": scans}


WORKLOADS = {"table3": table3, "fleet": fleet}


def main(argv: list[str]) -> int:
    kind, config = argv
    cfg = json.loads(Path(config).read_text())
    result = WORKLOADS[kind](cfg)
    if result is not None:
        Path(cfg["out"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
