"""Multi-process corpus evaluation.

The paper's full matrix is thousands of binaries; evaluation is
embarrassingly parallel across them. This runner fans corpus entries
out over supervised worker subprocesses
(:mod:`repro.eval.supervisor`, the same engine that runs ``scan`` and
``serve``) and reassembles an :class:`EvalReport` identical (up to
timing jitter) to the serial one.

Detectors are addressed by registry name (``repro.baselines``), not by
instance — worker processes construct their own, so nothing stateful
crosses the fork boundary. Each worker parses its job's binary once
and runs every tool against that one ``ELFFile``, so the per-binary
analysis context (:mod:`repro.cache`) is built once per job and shared
across the job's tools; the opt-in disk cache crosses the fork
boundary through the inherited ``REPRO_CACHE_DIR`` environment (and the
fault plan through ``REPRO_FAULT_PLAN``).

Fault isolation mirrors the serial runner: each (binary, tool) cell is
guarded in the worker (exceptions and ``timeout`` become
:class:`~repro.eval.isolation.FailureRecord` entries, the watchdog
armed on the worker's main thread), and the supervisor guards against
the worker itself dying. A crashed worker is seen at pipe EOF, a
frozen one after 15 s of heartbeat silence, and a wedged one past its
job's budget plus the executor's backstop; either way its own job
becomes ``WorkerLost`` failure records, not a failed sweep, and a
fresh worker takes the remaining jobs. ``max_rss_mb`` arms an
address-space rlimit in every worker, so a cell that balloons is
killed by its own ``MemoryError`` (a permanent, non-retried failure
record) instead of taking the host down.

Jobs are dispatched **lazily** (a bounded window of in-flight tasks)
and collected **out of order** by :func:`repro.eval.supervisor.drive`.
Lazy dispatch is also what gives the per-tool circuit ``breaker`` its
teeth: cells of a tool whose circuit opened mid-sweep are skipped at
dispatch time, before they can burn a worker's budget.

Crash-safety hooks run in the **parent**, which is the single writer:
every absorbed cell outcome is appended (fsync'd) to the optional
``journal`` the moment it is learned, ``completed`` cell keys from a
prior journal are never dispatched at all, and failing inputs are
captured into the optional ``quarantine`` store.

When ``trace_dir`` is given, each worker installs its own
observability recorder (:mod:`repro.obs`) and appends its spans and
counters to a per-worker JSONL part file after every job; the parent
(or CLI) merges the parts into one trace with
:func:`repro.obs.merge_traces`.
"""

from __future__ import annotations

import os
from collections.abc import Iterable
from contextlib import nullcontext
from pathlib import Path

from repro import faults, obs
from repro.baselines import ALL_DETECTORS
from repro.cache.disk import default_cache
from repro.elf.parser import ELFFile
from repro.errors import EvaluationAborted
from repro.eval import shm
from repro.eval.breaker import CircuitBreaker
from repro.eval.isolation import (
    PHASE_DETECT,
    PHASE_PARSE,
    PHASE_WORKER,
    FailureRecord,
    run_cell,
)
from repro.eval.metrics import score
from repro.eval.runner import EvalReport, RunRecord, _breaker_failure
from repro.eval.supervisor import drive
from repro.synth.corpus import CorpusEntry


def run_evaluation_parallel(
    corpus: Iterable[CorpusEntry],
    tool_names: list[str],
    *,
    workers: int | None = None,
    timeout: float | None = None,
    retries: int = 0,
    keep_going: bool = True,
    trace_dir: str | os.PathLike | None = None,
    backoff: float = 0.0,
    journal=None,
    completed: set | None = None,
    breaker: CircuitBreaker | None = None,
    quarantine=None,
    max_rss_mb: int | None = None,
) -> EvalReport:
    """Evaluate ``tool_names`` over ``corpus`` on supervised workers.

    ``tool_names`` must be keys of
    :data:`repro.baselines.ALL_DETECTORS`. ``workers`` defaults to the
    CPU count; ``workers=1`` degrades to in-process execution (useful
    under debuggers).

    ``timeout`` bounds each (binary, tool) cell in wall-clock seconds
    (enforced inside the worker; the supervisor kills a worker that
    outlives its job's whole budget plus a backstop, and with no
    ``timeout`` never kills a live, heartbeating worker); ``retries``
    re-runs transiently failing cells with ``backoff``-based
    exponential delays. With ``keep_going=False`` the first failed cell
    aborts the sweep via :class:`~repro.errors.EvaluationAborted`,
    killing in-flight jobs instead of waiting for them. ``trace_dir``
    (optional) enables per-worker observability traces, written as
    JSONL part files into that directory.

    ``journal``/``completed``/``breaker``/``quarantine``/``max_rss_mb``
    are the crash-safety hooks described in the module docstring; all
    default to off.
    """
    unknown = [t for t in tool_names if t not in ALL_DETECTORS]
    if unknown:
        raise ValueError(f"unknown detectors: {unknown}")
    completed = completed or set()
    jobs = []
    skipped_cells = 0
    for entry in corpus:
        todo = [t for t in tool_names
                if _entry_key(entry, t) not in completed]
        skipped_cells += len(tool_names) - len(todo)
        if todo:
            jobs.append(_job_payload(entry, todo))
    if skipped_cells:
        obs.add("eval.cells_skipped", skipped_cells)
    report = EvalReport()

    def _absorb(records: list[RunRecord],
                failures: list[FailureRecord],
                job: tuple | None = None) -> None:
        if breaker is not None:
            for record in records:
                breaker.record_success(record.tool)
            for failure in failures:
                if failure.phase == PHASE_DETECT:
                    breaker.record_failure(failure.tool)
        report.records.extend(records)
        report.failures.extend(failures)
        if journal is not None:
            for record in records:
                journal.append_record(record)
            for failure in failures:
                journal.append_failure(failure)
        if quarantine is not None and failures and job is not None:
            stripped = _image_bytes(job[0])
            for failure in failures:
                quarantine.capture(stripped, failure)
        if failures and not keep_going:
            f = failures[0]
            raise EvaluationAborted(
                f"[{f.suite}/{f.program}/{f.tool}] {f.phase}: "
                f"{f.error_type}: {f.message}"
            )

    def _breaker_filter(job: tuple) -> tuple | None:
        """Strip open-circuit tools from a job before dispatch."""
        if breaker is None:
            return job
        allowed, denied = [], []
        for name in job[-1]:
            (allowed if breaker.allow(name) else denied).append(name)
        if denied:
            prov = _job_provenance(job)
            _absorb([], [_breaker_failure(prov, name) for name in denied],
                    job)
        if not allowed:
            return None
        return job[:-1] + (tuple(allowed),)

    if workers == 1:
        for job in jobs:
            job = _breaker_filter(job)
            if job is None:
                continue
            faults.hit(faults.SITE_WORKER_DISPATCH)
            records, failures = _evaluate_job(job, timeout, retries,
                                              trace_dir, backoff)
            _absorb(records, failures, job)
        return report

    # Ship images through a shared-memory arena instead of pickling
    # them into every dispatch: jobs carry a small ImageRef and workers
    # slice the mapped segment, so the job pipe stops being the
    # bottleneck on large corpora.
    arena = None
    if shm.available() and jobs:
        arena, refs = shm.share_images([job[0] for job in jobs])
        jobs = [(ref,) + job[1:] for job, ref in zip(jobs, refs)]

    trace = None if trace_dir is None else str(trace_dir)

    def _prepare(job):
        job = _breaker_filter(job)
        if job is None:
            return None
        faults.hit(faults.SITE_WORKER_DISPATCH)
        return job, _worker_job, (job, timeout, retries, trace, backoff)

    def _collect(job, result):
        records, failures = result
        _absorb(records, failures, job)

    def _lost(job, message):
        _absorb([], _lost_worker_failures(job, message), job)

    # The worker enforces every cell's deadline; the supervisor's
    # budget covers a whole job: each tool plus the shared parse, each
    # with all its attempts.
    budget = None
    if timeout is not None:
        budget = timeout * (retries + 1) * (len(tool_names) + 1)
    try:
        drive(jobs, _prepare, _collect, _lost, workers=workers,
              budget=budget, max_rss_mb=max_rss_mb)
    finally:
        if arena is not None:
            arena.destroy()
    return report


def _worker_job(job: tuple, timeout: float | None, retries: int,
                trace_dir: str | None, backoff: float):
    """:func:`_evaluate_job` in a supervised worker process.

    Traced runs record into a fresh per-worker recorder (the worker
    starts with a counters-only one), flushed to the worker's part
    file after every job.
    """
    if trace_dir is not None and not obs.enabled():
        obs.set_recorder(obs.TraceRecorder())
    return _evaluate_job(job, timeout, retries, trace_dir, backoff)


def _flush_job_trace(trace_dir: str) -> None:
    """Append this process's accumulated spans/counters to its part file."""
    recorder = obs.recorder()
    if not recorder.enabled:
        return
    path = Path(trace_dir) / f"worker-{os.getpid()}.jsonl"
    try:
        obs.append_payload(path, recorder.drain())
    except OSError:
        pass  # tracing is an accelerant, never a point of failure


def _image_bytes(stripped) -> bytes:
    """Resolve a job's image: raw bytes, or a shared-memory ref."""
    if isinstance(stripped, shm.ImageRef):
        return stripped.fetch()
    return stripped


def _entry_key(entry: CorpusEntry, tool: str) -> tuple:
    profile = entry.profile
    return (entry.suite, entry.program, profile.compiler, profile.bits,
            profile.pie, profile.opt, tool)


def _job_payload(entry: CorpusEntry, tool_names: list[str]) -> tuple:
    profile = entry.profile
    return (
        entry.stripped,
        frozenset(entry.binary.ground_truth.function_starts),
        entry.suite,
        entry.program,
        profile.compiler,
        profile.bits,
        profile.pie,
        profile.opt,
        tuple(tool_names),
    )


def _job_provenance(job: tuple) -> dict:
    (_stripped, _gt, suite, program, compiler, bits, pie, opt,
     _tool_names) = job
    return {
        "suite": suite,
        "program": program,
        "compiler": compiler,
        "bits": bits,
        "pie": pie,
        "opt": opt,
    }


def _lost_worker_failures(job: tuple, message: str) -> list[FailureRecord]:
    """Failure records for every cell of a job whose worker was lost."""
    prov = _job_provenance(job)
    tool_names = job[-1]
    return [
        FailureRecord(
            **prov,
            tool=name,
            phase=PHASE_WORKER,
            error_type="WorkerLost",
            message=message,
        )
        for name in tool_names
    ]


def _evaluate_job(
    job: tuple,
    timeout: float | None = None,
    retries: int = 0,
    trace_dir: str | None = None,
    backoff: float = 0.0,
) -> tuple[list[RunRecord], list[FailureRecord]]:
    """Evaluate one corpus entry; never raises.

    Runs in a worker process (or in-process for ``workers=1``). Every
    cell failure is returned as data so nothing propagates across the
    process boundary as an exception.
    """
    try:
        return _evaluate_job_inner(job, timeout, retries, backoff)
    finally:
        if trace_dir is not None:
            _flush_job_trace(trace_dir)


def _evaluate_job_inner(
    job: tuple, timeout: float | None, retries: int, backoff: float = 0.0
) -> tuple[list[RunRecord], list[FailureRecord]]:
    (stripped, gt, suite, program, compiler, bits, pie, opt,
     tool_names) = job
    prov = _job_provenance(job)
    records: list[RunRecord] = []
    failures: list[FailureRecord] = []

    def _fail(tool: str, phase: str, error: BaseException,
              attempts: int, elapsed: float) -> None:
        failures.append(FailureRecord(
            **prov,
            tool=tool,
            phase=phase,
            error_type=type(error).__name__,
            message=str(error),
            attempts=attempts,
            elapsed_seconds=elapsed,
        ))

    with obs.span("entry", suite=suite, program=program):
        # Resolving inside the guarded cell means a torn-down arena
        # surfaces as an ordinary parse failure, not a worker crash.
        elf, error, attempts, elapsed = run_cell(
            faults.guarded(faults.SITE_CELL_EXECUTE,
                           lambda: ELFFile(_image_bytes(stripped))),
            timeout=timeout, retries=retries, backoff=backoff)
        if error is not None:
            for name in tool_names:
                _fail(name, PHASE_PARSE, error, attempts, elapsed)
            return records, failures

        gt_set = set(gt)
        cache = default_cache()
        with cache.batch() if cache is not None else nullcontext():
            for name in tool_names:
                cell_mark = obs.mark()
                result, error, attempts, elapsed = run_cell(
                    faults.guarded(
                        faults.SITE_CELL_EXECUTE,
                        lambda n=name: ALL_DETECTORS[n]().detect(elf)),
                    timeout=timeout, retries=retries, backoff=backoff)
                if error is not None:
                    _fail(name, PHASE_DETECT, error, attempts, elapsed)
                    continue
                with obs.span("score", tool=name):
                    confusion = score(gt_set, result.functions)
                phases = obs.phase_totals(cell_mark) or None
                records.append(RunRecord(
                    suite=suite,
                    program=program,
                    compiler=compiler,
                    bits=bits,
                    pie=pie,
                    opt=opt,
                    tool=name,
                    confusion=confusion,
                    elapsed_seconds=result.elapsed_seconds,
                    phase_seconds=phases,
                ))
    return records, failures
