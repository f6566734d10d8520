"""service-mix: ``funseeker serve`` under an open-loop job mix.

The server runs as the CLI starts it by default (supervised worker
subprocesses, 2 workers) with the four cacheable detectors;
naive-endbr is left out because it bypasses the disk cache, so no
submission that asks for it could ever be answered warm.

One client process (this one) drives it over at most 2 connections:

1. Set-up is timed on SETUP_RUNS server launches. Each server but the
   measured one analyses the 200 pool images in batches of
   WARMUP_BATCH, under a tenant of its own; the first one's tenant is
   ``warm``, whose cache namespace that fills. The measured server
   starts on a fresh run directory over the same cache root, so those
   images are novel jobs it answers from cache.
2. Open loop: 200 cold submissions (tenant ``cold``, which writes a
   blob, journal lines and cache entries), 200 warm submissions and 40
   duplicate resubmissions of earlier cold images (the dedup path),
   evenly spaced over the run's seconds in a seeded order: 22
   requests/s at 20 s, with cold jobs taking about a quarter of two
   workers' capacity.
3. BATCHES ``POST /v1/batch`` bursts of 30 novel images, one tenant each.

These shares are assumptions, not observed traffic; perfbench/README.md
says why each was chosen. Cold latency runs from a job's due time to
the server-stamped ``completed_at``, read after the schedule ends, so
polling neither quantizes it nor loads the two cores. Warm latency runs
from the due time to the ``POST`` answer. Cold latencies and batch
times are also given in reference time (hostref.py), from readings
taken while the server is idle: around each batch and the open loop.
"""

from __future__ import annotations

import base64
import http.client
import json
import os
import pickle
import re
import signal
import statistics
import sys
import time
from pathlib import Path

import pctl
from corpus_inputs import function_digest
from harness import SETUP_RUNS, RunInvalid, put_layers, put_overhead
from hostref import ReferencePair, scale
from ledger import read_totals
from openloop import run_open_loop, schedule

HERE = Path(__file__).resolve().parent

TOOLS = ("funseeker", "ida", "ghidra", "fetch")
COLD, WARM, DUP = 200, 200, 40
BATCHES, BATCH_SIZE = 5, 30

#: Warm-up batch size; the server's job queue holds 64.
WARMUP_BATCH = 40

#: The run is invalid when more than this share of requests went out
#: later than one inter-arrival gap after they were due.
LATE_SHARE = 0.10

POLL_SECONDS = 0.02
JOB_TIMEOUT = 60.0
START_TIMEOUT = 30.0


class Server:
    """One ``funseeker serve`` process, started and ready."""

    def __init__(self, ctx, name: str, traced: bool = False) -> None:
        self.ctx = ctx
        args = ["serve", "--run-dir", str(ctx.scratch / name),
                "--cache-dir", str(ctx.scratch / "cache"),
                "--tools", ",".join(TOOLS), "--workers", "2",
                "--port", "0"]
        if traced:
            argv = [sys.executable, str(HERE / "traced_serve.py"),
                    str(ctx.scratch / "spans"), *args]
        else:
            argv = [sys.executable, "-m", "repro", *args]
        started = time.perf_counter()
        self.proc = ctx.launch(argv)
        line = self.proc.stdout.readline().decode("utf-8", "replace")
        match = re.search(r"serving on http://([0-9.]+):(\d+)", line)
        if match is None:
            raise RuntimeError(f"serve did not start: {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))
        deadline = started + START_TIMEOUT
        while True:
            try:
                if self.request("GET", "/v1/healthz")[0] == 200:
                    break
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("serve never answered /v1/healthz")
            time.sleep(0.002)
        self.setup = time.perf_counter() - started

    def request(self, method: str, path: str, body: bytes | None = None,
                tenant: str | None = None) -> tuple[int, dict]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            headers = {"X-Tenant": tenant} if tenant else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, json.loads(response.read() or b"{}")
        finally:
            conn.close()

    def stop(self) -> float:
        """SIGTERM (graceful); returns the peak RSS of the server and
        its supervised workers in MB."""
        self.proc.send_signal(signal.SIGTERM)
        code, rss = self.ctx.reap(self.proc)
        if code != 0:
            raise RuntimeError(f"serve exited {code}")
        return rss

    def wait_jobs(self, job_ids) -> dict[str, dict]:
        """Poll until every job is terminal; returns id -> job doc."""
        pending = set(job_ids)
        docs: dict[str, dict] = {}
        deadline = time.perf_counter() + JOB_TIMEOUT
        while pending and time.perf_counter() < deadline:
            for job_id in sorted(pending):
                status, doc = self.request("GET", f"/v1/jobs/{job_id}")
                job = doc.get("job") or {}
                if status == 200 and job.get("status") not in (
                        "queued", "running"):
                    docs[job_id] = job
                    pending.discard(job_id)
            if pending:
                time.sleep(POLL_SECONDS)
        return docs

    def result(self, job_id: str) -> dict | None:
        status, doc = self.request("GET", f"/v1/jobs/{job_id}/result")
        return doc if status == 200 and doc.get("status") == "done" else None

    def burst(self, images, tenant: str) -> dict:
        """One batch POST; timed to the last job's ``completed_at``."""
        body = json.dumps({"binaries": [
            base64.b64encode(data).decode() for _label, data in images]})
        sent = time.time()
        status, doc = self.request("POST", "/v1/batch", body.encode(),
                                   tenant=tenant)
        if status not in (200, 202):
            return {"ok": False, "error": f"batch POST {status}: {doc}"}
        ids = [j["job_id"] for j in doc["jobs"]]
        jobs = self.wait_jobs(ids)
        ends = [j["completed_at"] for j in jobs.values()
                if j.get("completed_at")]
        wall = max(ends) - sent if len(ends) == len(ids) else None
        return {"ok": wall is not None, "ids": ids, "jobs": jobs,
                "wall": wall, "bytes": sum(len(d) for _l, d in images)}


def _digests(result: dict) -> dict[str, str | None]:
    return {name: (function_digest(t["functions"])
                   if t.get("functions") is not None else None)
            for name, t in result["analysis"]["tools"].items()}


def run(ctx) -> None:
    with open(ctx.inputs / "service.pkl", "rb") as f:
        images = pickle.load(f)
    with ReferencePair() as pair:
        _run(ctx, pair, images)


def _run(ctx, pair: ReferencePair, images) -> None:
    pool = images[:COLD]
    # Every burst gets images of its own: a worker's index memo would
    # otherwise serve a repeated image without decoding it again.
    bursts = [images[COLD + k * BATCH_SIZE:COLD + (k + 1) * BATCH_SIZE]
              for k in range(BATCHES)]

    setups, fills, calib = [], [], []
    for i in range(SETUP_RUNS - 1):
        server = Server(ctx, f"probe{i}")
        setups.append(server.setup)
        # The first server fills the warm tenant's cache. Each analyses
        # the pool as batches of novel images on fresh workers, which
        # the batch throughput counts with the measured bursts.
        fills += _fill(server, pair, pool, "warm" if i == 0 else f"fill{i}",
                       warmup=bursts[-1][-1][1])
        if i == 0 and ctx.trace:
            # The untraced side of trace.overhead_pct: the same bursts
            # the traced server runs later.
            calib = [server.burst(images, f"calib{k}")
                     for k, images in enumerate(bursts)]
        server.stop()

    # The warm-up wrote hundreds of cache entries; flush them before the
    # measurement rather than during it.
    os.sync()
    server = Server(ctx, "measured", traced=ctx.trace)
    setups.append(server.setup)
    try:
        measure = _measure(ctx, server, pair, pool, bursts)
    finally:
        rss = server.stop() if server.proc.poll() is None else 0.0
    ctx.put("setup_s", statistics.median(setups), len(setups))
    ctx.put("peak_rss_mb", rss, 1)

    if measure["late_share"] > LATE_SHARE:
        raise RunInvalid(
            f"{100 * measure['late_share']:.1f}% of requests were sent more "
            f"than one gap late")
    # No reading can be taken while the open loop runs, and one taken
    # while the server idles says more about the stretch of the run
    # around it than about one job. So every cold latency is scaled by
    # the median of all the run's readings.
    refs = measure["refs"] + [b["ref"] for b in fills + measure["bursts"]]
    ref = statistics.median(refs)
    ctx.put("host.ref_ms", 1e3 * ref, len(refs))
    ctx.put_percentiles("", [x * scale(ref) for x in measure["cold_ms"]],
                        "_ref_ms")
    ctx.put_percentiles("", measure["cold_ms"])
    ctx.put_percentiles("service.warm_", measure["warm_ms"])
    batches = fills + measure["bursts"]
    mb = sum(b["bytes"] for b in batches) / 1e6
    ctx.put("throughput_mb_rs", mb / sum(b["wall"] * scale(b["ref"])
                                         for b in batches), len(batches))
    ctx.put("throughput_mb_s", mb / sum(b["wall"] for b in batches),
            len(batches))
    if ctx.trace:
        put_layers(ctx, read_totals(ctx.scratch / "spans"),
                   mb=measure["executed_bytes"] / 1e6,
                   images=measure["executed"])
        untraced = [b["wall"] for b in calib if b["ok"]]
        traced = [b["wall"] for b in measure["bursts"]]
        if untraced and traced:
            put_overhead(ctx, untraced, traced)


def _fill(server: Server, pair: ReferencePair, pool, tenant: str,
          warmup: bytes) -> list[dict]:
    """The pool under ``tenant`` in timed batches of WARMUP_BATCH.

    Workers fork on a server's first job, so one job of another tenant
    (``warmup``) runs first, outside the timed batches.
    """
    status, doc = server.request("POST", "/v1/jobs", warmup, tenant="warmup")
    if status not in (200, 202):
        raise RuntimeError(f"warm-up job refused: {status}")
    server.wait_jobs([doc["job"]["job_id"]])
    batches = []
    for start in range(0, len(pool), WARMUP_BATCH):
        burst = _timed_burst(server, pair, pool[start:start + WARMUP_BATCH],
                             tenant)
        if not burst["ok"] or any(j.get("status") != "done"
                                  for j in burst["jobs"].values()):
            raise RuntimeError(f"a batch of the {tenant} tenant failed")
        batches.append(burst)
    return batches


def _timed_burst(server: Server, pair: ReferencePair, images,
                 tenant: str) -> dict:
    """One batch, with the reference time around it."""
    before = pair.measure()
    burst = server.burst(images, tenant)
    burst["ref"] = (before + pair.measure()) / 2
    return burst


def _measure(ctx, server: Server, pair: ReferencePair, pool,
             burst_images) -> dict:
    checker = ctx.checker
    slots = schedule(COLD, WARM, DUP, ctx.seconds, ctx.seed)
    gap = ctx.seconds / len(slots)

    def send(slot):
        tenant = "warm" if slot.kind == "warm" else "cold"
        return server.request("POST", "/v1/jobs", pool[slot.item][1],
                              tenant=tenant)

    refs = [pair.measure()]
    load = run_open_loop(slots, send, connections=2)

    late = [o.late for o in load.outcomes]
    cold: dict[int, tuple[str, float, float]] = {}  # item -> id, due, rtt
    warm_ms, warm_server, http_ms, warm_ids = [], [], [], []
    dups = []
    for o in load.outcomes:
        slot, value = o.slot, o.value
        ok = isinstance(value, tuple) and value[0] in (200, 202)
        job = value[1].get("job", {}) if ok else {}
        if slot.kind == "dup":
            dups.append((slot, ok and value[1].get("created") is False,
                         job.get("job_id")))
            continue
        if not ok or "job_id" not in job:
            checker.expect(False, f"{slot.kind} POST #{slot.index}: {value}")
            continue
        if slot.kind == "cold":
            cold[slot.item] = (job["job_id"], load.start_wall + slot.due,
                               o.done - o.sent)
        elif value[0] == 200 and job.get("status") == "done":
            server_s = job["completed_at"] - job["submitted_at"]
            warm_ms.append(o.latency * 1e3)
            warm_server.append(server_s * 1e3)
            http_ms.append((o.done - o.sent - server_s) * 1e3)
            warm_ids.append((slot.item, job["job_id"]))
        else:
            checker.expect(False, f"warm POST #{slot.index} was not "
                                  f"answered from cache: {value}")
    for slot, ok, job_id in dups:
        original = cold.get(slot.item, (None,))[0]
        checker.expect(ok and job_id == original,
                       f"dup #{slot.index}: not deduplicated")

    done = server.wait_jobs(job_id for job_id, _d, _r in cold.values())
    refs.append(pair.measure())
    cold_ms, execute_ms, queue_ms = [], [], []
    # Per tool result: a cold job computes and stores, a warm one reads.
    states: list[str] = []
    state_errors = 0
    executed = executed_bytes = 0
    for item, (job_id, due_wall, _rtt) in sorted(cold.items()):
        label, data = pool[item]
        job = done.get(job_id)
        result = server.result(job_id) if job else None
        if result is None:
            checker.expect(False, f"cold {label}: job did not finish")
            continue
        checker.job(label, _digests(result))
        tool_states = _cache_states(result)
        states += tool_states
        state_errors += sum(x != "miss" for x in tool_states)
        cold_ms.append((job["completed_at"] - due_wall) * 1e3)
        execute = result["analysis"]["elapsed_seconds"]
        execute_ms.append(execute * 1e3)
        queue_ms.append((job["completed_at"] - job["submitted_at"]
                         - execute) * 1e3)
        executed += 1
        executed_bytes += len(data)
    for item, job_id in warm_ids:
        label = pool[item][0]
        result = server.result(job_id)
        if result is None:
            checker.expect(False, f"warm {label}: no result")
            continue
        checker.job(label, _digests(result))
        tool_states = _cache_states(result)
        states += tool_states
        state_errors += sum(x != "hit" for x in tool_states)
    hits, misses = states.count("hit"), states.count("miss")

    bursts = []
    for k, images in enumerate(burst_images):
        burst = _timed_burst(server, pair, images, f"batch{k}")
        if not burst["ok"]:
            checker.expect(False, f"batch {k}: {burst.get('error')}")
            continue
        for job_id, (label, data) in zip(burst["ids"], images):
            result = server.result(job_id)
            if result is None:
                checker.expect(False, f"batch {k} {label}: no result")
                continue
            checker.job(label, _digests(result))
            executed += 1
            executed_bytes += len(data)
        bursts.append(burst)

    _status, metrics = server.request("GET", "/v1/metrics")
    stats = metrics.get("service", {})
    submitted, deduped = stats.get("submitted", 0), stats.get("deduped", 0)

    put = ctx.put
    if bursts:
        put("service.batch_jobs_s", sum(len(b["ids"]) for b in bursts)
            / sum(b["wall"] for b in bursts), len(bursts))
    for name, values in (("service.submit_ms",
                          [r * 1e3 for _j, _d, r in cold.values()]),
                         ("service.execute_ms", execute_ms),
                         ("service.queue_ms", queue_ms),
                         ("service.warm_server_ms", warm_server),
                         ("service.http_ms", http_ms)):
        put(name, statistics.median(values) if values else 0.0, len(values))
    put("cache.hit_ratio", hits / (hits + misses) if hits + misses else 0.0,
        hits + misses)
    put("cache.puts", misses, misses)
    put("cache.state_errors", state_errors, len(states))
    put("service.dedup_share",
        deduped / (submitted + deduped) if submitted + deduped else 0.0,
        submitted + deduped)
    put("service.queue_rejections", stats.get("rejected_queue_full", 0), 1)
    put("supervisor.respawns",
        metrics.get("supervisor", {}).get("respawns", 0), 1)
    late_ms = [x * 1e3 for x in late]
    summary = pctl.summarize(late_ms, 95)
    put("load.late_ms", *(summary or (max(late_ms), len(late_ms))))
    return {
        "cold_ms": cold_ms, "warm_ms": warm_ms,
        "late_share": sum(1 for x in late if x > gap) / len(late),
        "executed": executed, "executed_bytes": executed_bytes,
        "bursts": bursts,
        # Readings before and after the open loop (once its cold jobs
        # are done), when the server is idle.
        "refs": refs,
    }


def _cache_states(result: dict) -> list[str]:
    """Per-tool cache attribution of one job result."""
    return [t.get("cache") for t in result["analysis"]["tools"].values()]
