"""The repo benchmark: one command per (workload, seed).

    python3 perfbench/run.py --workload table3-serial --seed 2022 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --write-spec      # regenerate BENCHMARK.json

It generates (or reuses) the seed's inputs, drives the program only
through its public entry points, checks every output, prints each
metric with its unit and sample count, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` gives
the end-to-end metrics, timed ones in reference time (hostref.py);
``--trace 1`` a traced run's per-layer metrics.
It exits 1 when an output check fails or the run is invalid, and 2 when
the program's sources are missing. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402
from checks import load_expected  # noqa: E402
from harness import (  # noqa: E402
    SETUP_RUNS,
    Context,
    RunInvalid,
    program_env,
    put_layers,
    put_overhead,
    put_timed,
)
from ledger import read_totals  # noqa: E402

DEFAULT_SEED = 2022

#: Whole-run guard: a run must end within 180 s.
RUN_TIMEOUT = 170

#: table3-serial's self times must cover its traced wall this closely.
LEDGER_TOLERANCE_PCT = 5.0


# -- table3-serial and fleet-scan ---------------------------------------------


def run_child(ctx: Context, kind: str) -> dict:
    """Time set-up SETUP_RUNS times, then measure one full child run."""
    setups = []
    result = None
    for i in range(SETUP_RUNS):
        probe = i < SETUP_RUNS - 1
        cfg = {
            "inputs": str(ctx.inputs), "seconds": ctx.seconds,
            "trace": ctx.trace, "probe": probe,
            "spans": str(ctx.scratch / "spans"),
            "run_dir": str(ctx.scratch / "runs"),
            "out": str(ctx.scratch / f"{kind}.json"),
        }
        config = ctx.scratch / f"{kind}-config.json"
        config.write_text(json.dumps(cfg))
        started = time.perf_counter()
        proc = ctx.launch([sys.executable, str(HERE / "child.py"), kind,
                           str(config)])
        line = proc.stdout.readline()
        setups.append(time.perf_counter() - started)
        code, rss = ctx.reap(proc)
        if line.strip() != b"ready" or code != 0:
            raise RuntimeError(f"{kind} workload process failed "
                               f"(exit {code})")
        if not probe:
            result = json.loads(Path(cfg["out"]).read_text())
    ctx.put("setup_s", statistics.median(setups), len(setups))
    ctx.put("peak_rss_mb", rss, 1)
    return result


def table3_serial(ctx: Context) -> None:
    passes = run_child(ctx, "table3")["passes"]
    for p in passes:
        for label, tools in p["cells"].items():
            for tool, digest in tools.items():
                ctx.checker.cell(label, tool, digest)
    if not ctx.trace:
        put_timed(ctx, passes[1:], lambda p: p["latencies"])
    else:
        traced = [p for p in passes if p["traced"]]
        totals = read_totals(ctx.scratch / "spans")
        wall = sum(p["wall"] for p in traced)
        attributed = sum(agg[2] for agg in totals.values())
        unattributed = 100.0 * (wall - attributed) / wall
        ctx.put("ledger.unattributed_pct", unattributed, len(traced))
        if abs(unattributed) > LEDGER_TOLERANCE_PCT:
            raise RunInvalid(
                f"layer self times cover {attributed:.3f}s of a "
                f"{wall:.3f}s traced wall")
        put_layers(ctx, totals,
                   mb=sum(p["bytes"] for p in traced) / 1e6,
                   images=sum(len(p["cells"]) for p in traced))
        put_overhead(ctx, *_walls(passes))


def fleet_scan(ctx: Context) -> None:
    files = json.loads((ctx.inputs / "fleet.json").read_text())["files"]
    scans = run_child(ctx, "fleet")["scans"]
    for scan in scans:
        for rel, info in files.items():
            if info["kind"] == "elf":
                ctx.checker.scanned(info["label"], scan["analyses"].get(rel))
            elif info["kind"] == "noise":
                decision = scan["triage"].get(rel)
                ctx.checker.expect(decision == "reject",
                                   f"{rel}: triage {decision}, not reject")
            else:
                ctx.checker.expect(
                    rel in scan["analyses"] or rel in scan["triage"],
                    f"{rel}: undecided ({scan['failures'].get(rel)})")
    if not ctx.trace:
        put_timed(ctx, scans[1:], lambda s: [
            a["elapsed"] for a in s["analyses"].values()])
    else:
        traced = [s for s in scans if s["traced"]]
        mb = sum(s["bytes"] for s in traced) / 1e6
        analyze = sum(a["elapsed"] for s in traced
                      for a in s["analyses"].values())
        wall = sum(s["wall"] for s in traced)
        put_layers(ctx, read_totals(ctx.scratch / "spans"), mb=mb,
                   images=sum(len(s["analyses"]) for s in traced))
        ctx.put("ingest.analyze_s", analyze / mb, len(traced))
        ctx.put("ingest.worker_busy", analyze / (2 * wall), len(traced))
        # The inputs fix both counts, so they are shown, and what the
        # ledger reports is how far admission strayed from them.
        ctx.put("ingest.admitted", statistics.median(
            len(s["analyses"]) for s in traced), len(traced))
        ctx.put("ingest.rejected", statistics.median(
            sum(1 for d in s["triage"].values() if d == "reject")
            for s in traced), len(traced))
        ctx.put("ingest.triage_errors",
                sum(_triage_errors(s, files) for s in scans), len(scans))
        ctx.put("ingest.lost_workers",
                sum(s["lost_workers"] for s in scans), len(scans))
        put_overhead(ctx, *_walls(scans))


def _triage_errors(scan: dict, files: dict) -> int:
    """Images not admitted plus noise files not rejected in one scan."""
    return sum(
        1 for rel, info in files.items()
        if (info["kind"] == "elf" and rel not in scan["analyses"])
        or (info["kind"] == "noise" and scan["triage"].get(rel) != "reject"))


def _walls(units: list[dict]) -> tuple[list[float], list[float]]:
    """Untraced and traced walls of alternating units, leaving out the
    first (warm-up) unit."""
    rest = units[1:]
    return ([u["wall"] for u in rest if not u["traced"]],
            [u["wall"] for u in rest if u["traced"]])


def _service_mix(ctx: Context) -> None:
    import service_mix

    service_mix.run(ctx)


WORKLOADS = {
    "table3-serial": table3_serial,
    "fleet-scan": fleet_scan,
    "service-mix": _service_mix,
}


# -- reporting ----------------------------------------------------------------


def _cpu_ticks() -> tuple[int, int]:
    """(steal, total) CPU ticks of the whole machine, from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return fields[7], sum(fields)


def _steal_pct(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of CPU time the host took from this VM between two reads."""
    total = after[1] - before[1]
    return 100.0 * (after[0] - before[0]) / total if total > 0 else 0.0


def report(ctx: Context, valid: bool) -> dict:
    names = (spec.PER_LAYER if ctx.trace else spec.END_TO_END)
    metrics = {}
    print(f"{'metric':34} {'value':>14} {'unit':8} {'n':>6}  maps to")
    for name, info in names.items():
        unit = info[0]
        value, n = ctx.metrics.get(name, (0.0, 0))
        metrics[name] = {"value": value, "unit": unit}
        tag = "end to end" if not ctx.trace else info[2]
        print(f"{name:34} {value:14.6g} {unit:8} {n:6d}  {tag}")
    for name, (value, n) in sorted(ctx.metrics.items()):
        if name not in names:
            print(f"{name:34} {value:14.6g} {'':8} {n:6d}  (shown only)")
    checker = ctx.checker
    for problem in checker.problems:
        print(f"check failed: {problem}")
    return {
        "correct": valid and checker.failed == 0 and checker.attempted > 0,
        "attempted": max(1, checker.attempted),
        "failed": checker.failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json at the repo root")
    args = parser.parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(spec.benchmark_json(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    def _expired(signum, frame):
        raise TimeoutError(f"run exceeded {RUN_TIMEOUT}s")

    signal.signal(signal.SIGALRM, _expired)
    signal.alarm(RUN_TIMEOUT)
    scratch = ROOT / ".perfbench" / "runs" / str(os.getpid())
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    ctx = None
    try:
        prepared = subprocess.run(
            [sys.executable, str(HERE / "corpus_inputs.py"), str(args.seed)],
            env=program_env(), cwd=str(ROOT), stdout=subprocess.PIPE,
            text=True, check=True)
        paths = json.loads(prepared.stdout.splitlines()[-1])
        reference = json.loads(Path(paths["reference"]).read_text())
        # Write back what input generation and earlier runs left dirty
        # now, not during the measurement.
        os.sync()
        ctx = Context(args, Path(paths["inputs"]), scratch, reference,
                      load_expected(args.seed))
        valid = True
        steal_before = _cpu_ticks()
        try:
            WORKLOADS[args.workload](ctx)
        except RunInvalid as exc:
            print(f"run invalid: {exc}")
            valid = False
        ctx.put("host.steal_pct", _steal_pct(steal_before, _cpu_ticks()), 1)
        ctx.put("success_rate", ctx.checker.success_rate,
                ctx.checker.attempted)
        result = report(ctx, valid)
    finally:
        signal.alarm(0)
        if ctx is not None:
            ctx.stop_children()
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
