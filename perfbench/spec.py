"""The benchmark's workloads and metrics: the one source of BENCHMARK.json.

Every workload reports every metric, as the BENCHMARK.json format asks;
a layer a workload does not run reads 0 there. ``maps_to`` names the
end-to-end metric a per-layer metric should move, and on which workload.
A count the inputs fix (files admitted, cache entries written) has no
better direction, so it is reported as its deviation from that count.
"""

from __future__ import annotations

RUN_SECONDS = 20

WORKLOADS = {
    "table3-serial": (
        "run_evaluation of all five detectors over 48 seeded images, serial "
        "and uncached: parse, decode and detector passes with no "
        "dispatch, cache, journal or HTTP"),
    "fleet-scan": (
        "run_scan with 2 workers over 96 images, 24 non-ELF files and the "
        "hostile corpus: dispatch, shm staging, triage and the scan "
        "journal take a large share"),
    "service-mix": (
        "funseeker serve, 2 supervised workers: open-loop cold, warm and "
        "duplicate jobs, then batch bursts; the only HTTP, supervisor "
        "and cache-read path"),
}

#: name -> (unit, better, bound)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "success_rate": ("ratio", "higher", 0.01),
    "throughput_mb_rs": ("MB/ref-s", "higher", 0.25),
    "p50_ref_ms": ("ref-ms", "lower", 0.25),
    "p95_ref_ms": ("ref-ms", "lower", 0.25),
}

#: name -> (unit, better, maps_to)
PER_LAYER = {
    "elf.parse_s": ("s/MB", "lower",
        "throughput_mb_rs on table3-serial"),
    "x86.index_s": ("s/MB", "lower",
        "throughput_mb_rs on table3-serial and fleet-scan"),
    "x86.index_builds": ("1/image", "lower",
        "throughput_mb_rs on table3-serial and fleet-scan"),
    "core.funseeker_s": ("s/MB", "lower",
        "throughput_mb_rs on fleet-scan, then table3-serial"),
    "baselines.fetch_s": ("s/MB", "lower",
        "throughput_mb_rs on table3-serial, p50_ref_ms on service-mix"),
    "baselines.ida_s": ("s/MB", "lower",
        "throughput_mb_rs on table3-serial, p50_ref_ms on service-mix"),
    "baselines.ghidra_s": ("s/MB", "lower",
        "throughput_mb_rs on table3-serial, p50_ref_ms on service-mix"),
    "baselines.naive_s": ("s/MB", "lower",
        "throughput_mb_rs on table3-serial"),
    "cache.context_s": ("s/MB", "lower",
        "throughput_mb_rs on fleet-scan and table3-serial (holds "
        "FunSeeker's sweep)"),
    "baselines.fetch_over_funseeker": ("ratio", "lower",
        "guards the Table III timing claim in EXPERIMENTS.md"),
    "eval.score_s": ("s/MB", "lower",
        "throughput_mb_rs on table3-serial"),
    "eval.self_s": ("s/MB", "lower",
        "throughput_mb_rs on table3-serial"),
    "ledger.unattributed_pct": ("%", "lower",
        "validity: table3-serial self times must sum to the traced "
        "wall within 5%"),
    "ingest.discover_s": ("s/MB", "lower",
        "throughput_mb_rs on fleet-scan"),
    "ingest.admit_s": ("s/MB", "lower",
        "throughput_mb_rs on fleet-scan"),
    "ingest.journal_s": ("s/MB", "lower",
        "throughput_mb_rs on fleet-scan"),
    "ingest.analyze_s": ("s/MB", "lower",
        "throughput_mb_rs on fleet-scan"),
    "ingest.worker_busy": ("ratio", "higher",
        "throughput_mb_rs on fleet-scan"),
    "ingest.triage_errors": ("count", "lower",
        "success_rate on fleet-scan"),
    "ingest.lost_workers": ("count", "lower",
        "success_rate on fleet-scan"),
    "service.submit_ms": ("ms", "lower",
        "p50_ref_ms on service-mix"),
    "service.execute_ms": ("ms", "lower",
        "p50_ref_ms and throughput_mb_rs on service-mix"),
    "service.queue_ms": ("ms", "lower",
        "p95_ref_ms on service-mix"),
    "service.warm_p50_ms": ("ms", "lower",
        "warm answers on service-mix"),
    "service.warm_p95_ms": ("ms", "lower",
        "warm answers on service-mix"),
    "service.warm_server_ms": ("ms", "lower",
        "service.warm_p50_ms on service-mix"),
    "service.http_ms": ("ms", "lower",
        "service.warm_p50_ms on service-mix"),
    "service.batch_jobs_s": ("1/s", "higher",
        "throughput_mb_rs on service-mix"),
    "cache.hit_ratio": ("ratio", "higher",
        "service.warm_p50_ms on service-mix"),
    "cache.state_errors": ("count", "lower",
        "success_rate on service-mix"),
    "service.dedup_share": ("ratio", "higher",
        "success_rate on service-mix"),
    "service.queue_rejections": ("count", "lower",
        "success_rate on service-mix"),
    "supervisor.respawns": ("count", "lower",
        "success_rate on service-mix"),
    "load.late_ms": ("ms", "lower",
        "validity of the service-mix open loop"),
    "host.steal_pct": ("%", "lower",
        "validity: CPU time the host took from the VM during the run"),
    "trace.overhead_pct": ("%", "lower",
        "validity: traced vs untraced wall"),
}


def benchmark_json() -> dict:
    """The BENCHMARK.json document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, (u, b, bound) in END_TO_END.items()],
        "per_layer": [
            {"name": n, "unit": u, "better": b}
            for n, (u, b, _maps) in PER_LAYER.items()],
    }

