"""Crash-recovery acceptance: faulted runs resume to the fault-free report.

Every test here follows the same shape as the ``funseeker chaos``
command: run a sweep with a deterministic fault plan journaling into a
run directory, crash (or finish degraded), then resume with the plan
cleared and assert the recovered report is identical to an
uninterrupted run once timing fields are normalized away.
"""

import json

import pytest

from repro import faults
from repro.cache import DiskCache, set_default_cache
from repro.errors import JournalWriteError
from repro.eval.export import report_to_json
from repro.eval.journal import (
    JOURNAL_NAME,
    RunJournal,
    build_manifest,
    read_journal,
    merge_resumed_report,
)
from repro.eval.parallel import run_evaluation_parallel
from repro.faults.chaos import (
    ChaosScenario,
    normalize_report_doc,
    run_chaos,
)

TOOLS = ["funseeker"]


def _normalized(report) -> dict:
    return normalize_report_doc(json.loads(report_to_json(report)))


@pytest.fixture()
def corpus(tiny_corpus):
    return tiny_corpus[:3]


@pytest.fixture()
def baseline(corpus):
    faults.clear()
    return _normalized(run_evaluation_parallel(corpus, TOOLS, workers=1))


def _faulted_then_resumed(tmp_path, corpus, plan, *, workers=1,
                          timeout=5.0, tear_tail_bytes=0):
    """Run the faulted sweep, then a clean resume; return the pieces."""
    run_dir = tmp_path / "run"
    journal = RunJournal.create(
        run_dir, build_manifest(corpus, TOOLS, timeout=timeout))
    crash = None
    faults.install(plan)
    try:
        run_evaluation_parallel(
            corpus, TOOLS, workers=workers, timeout=timeout,
            journal=journal)
    except JournalWriteError as exc:
        crash = exc
    finally:
        faults.clear()
        journal.close()

    if tear_tail_bytes:
        path = run_dir / JOURNAL_NAME
        path.write_bytes(path.read_bytes()[:-tear_tail_bytes])

    state = read_journal(run_dir)
    resume_journal = RunJournal.resume(run_dir)
    try:
        fresh = run_evaluation_parallel(
            corpus, TOOLS, workers=1, timeout=timeout,
            journal=resume_journal, completed=state.completed)
    finally:
        resume_journal.close()
    return crash, state, merge_resumed_report(corpus, TOOLS, state, fresh)


@pytest.mark.chaos_smoke
def test_worker_kill_resumes_to_identical_report(tmp_path, corpus,
                                                 baseline):
    # One worker is SIGKILLed mid-sweep (its 3rd cell = second job's
    # parse); the supervisor sees the pipe close and declares the job
    # lost, the journal keeps the rest, and the resume heals the lost
    # cells.
    crash, state, final = _faulted_then_resumed(
        tmp_path, corpus, "kill@cell.execute#3", workers=2)
    assert crash is None                       # sweep itself survived
    assert final.failures == []
    assert _normalized(final) == baseline


@pytest.mark.chaos_smoke
def test_torn_journal_tail_resumes_to_identical_report(tmp_path, corpus,
                                                       baseline):
    # The torn line is written for real (half the bytes reach disk)
    # before the injected crash aborts the sweep.
    crash, state, final = _faulted_then_resumed(
        tmp_path, corpus, "truncate@journal.append#2")
    assert isinstance(crash, JournalWriteError)
    assert state.torn_tail
    assert len(state.records) == 1
    assert final.failures == []
    assert _normalized(final) == baseline


@pytest.mark.chaos_smoke
def test_raw_tail_truncation_resumes_to_identical_report(tmp_path, corpus,
                                                         baseline):
    # A crash can also tear the file at an arbitrary byte boundary
    # (simulated by chopping the completed journal's tail).
    crash, state, final = _faulted_then_resumed(
        tmp_path, corpus, "", tear_tail_bytes=25)
    assert crash is None
    assert state.torn_tail
    assert final.failures == []
    assert _normalized(final) == baseline


@pytest.mark.chaos_smoke
def test_journal_enospc_aborts_then_resumes(tmp_path, corpus, baseline):
    crash, state, final = _faulted_then_resumed(
        tmp_path, corpus, "enospc@journal.append#2")
    assert isinstance(crash, JournalWriteError)
    assert "injected disk-full" in str(crash)
    assert len(state.records) == 1             # appends before the fault
    assert final.failures == []
    assert _normalized(final) == baseline


@pytest.mark.chaos_smoke
def test_injected_hang_times_out_then_resumes(tmp_path, corpus, baseline):
    crash, state, final = _faulted_then_resumed(
        tmp_path, corpus, "hang@cell.execute#2", timeout=1.0)
    assert crash is None
    # The hung cell was journaled as a timeout failure, then healed.
    assert any(f.is_timeout for f in state.failures)
    assert final.failures == []
    assert _normalized(final) == baseline


@pytest.mark.chaos_smoke
def test_corrupted_cache_entries_recover_in_run(tmp_path, corpus,
                                                baseline):
    # Warm a disk cache, corrupt every subsequent read, and assert the
    # malformed-entry path (treat as miss, recompute) keeps the report
    # identical — no resume needed for this one.
    previous = None
    set_default_cache(DiskCache(tmp_path / "cache"))
    try:
        run_evaluation_parallel(corpus, TOOLS, workers=1)   # warm
        faults.install("corrupt@cache.get#*", env=False)
        try:
            report = run_evaluation_parallel(corpus, TOOLS, workers=1)
        finally:
            faults.clear()
    finally:
        set_default_cache(previous)
    assert report.failures == []
    assert _normalized(report) == baseline


@pytest.mark.chaos_smoke
def test_chaos_harness_end_to_end(tmp_path, corpus):
    # The harness the CLI runs, on a reduced scenario set for speed.
    scenarios = [
        ChaosScenario(name="torn-journal",
                      plan="truncate@journal.append#2"),
        ChaosScenario(name="cell-hang", plan="hang@cell.execute#2",
                      timeout=1.0),
    ]
    report = run_chaos(corpus, TOOLS, tmp_path / "chaos",
                       scenarios=scenarios)
    assert report.ok, report.render()
    assert report.baseline_cells == len(corpus) * len(TOOLS)
    rendered = report.render()
    assert "torn-journal" in rendered and "cell-hang" in rendered


def test_resume_skips_completed_cells(tmp_path, corpus):
    run_dir = tmp_path / "run"
    journal = RunJournal.create(run_dir,
                                build_manifest(corpus, TOOLS))
    try:
        run_evaluation_parallel(corpus, TOOLS, workers=1,
                                journal=journal)
    finally:
        journal.close()
    state = read_journal(run_dir)
    assert len(state.completed) == len(corpus)
    fresh = run_evaluation_parallel(corpus, TOOLS, workers=1,
                                    completed=state.completed)
    assert fresh.records == [] and fresh.failures == []
    merged = merge_resumed_report(corpus, TOOLS, state, fresh)
    assert len(merged.records) == len(corpus)
