"""Error taxonomy and structured diagnostics for the analysis pipeline.

Every exception this project raises on malformed input derives from
:class:`ReproError`, so callers can distinguish *documented* failure
modes (a truncated ``.eh_frame``, an out-of-range string-table index)
from genuine bugs (``IndexError`` escaping a parser).

The second half of the module is the degraded-mode machinery: instead
of aborting on a structure-level error, a parser may record a
:class:`Diagnostic` into a :class:`Diagnostics` collector and continue
with partial results. The collector is threaded through
:class:`~repro.elf.parser.ELFFile`, the exception-metadata parsers, and
:class:`~repro.core.funseeker.FunSeeker`, and surfaces on
``FunSeekerResult.diagnostics``.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator
from dataclasses import dataclass, field


class ReproError(Exception):
    """Base class of every documented analysis-pipeline error."""


class MalformedELFError(ReproError):
    """Structural corruption of an analyzed binary image.

    Base of every *permanent* parse rejection: the input itself is
    broken, so re-running the same cell deterministically fails again.
    The retry machinery (:func:`repro.eval.isolation.run_cell`) fails
    fast on this branch of the taxonomy instead of burning attempts.
    """


class EvaluationError(ReproError):
    """Raised by the evaluation harness itself (not by parsers)."""


class CellTimeoutError(EvaluationError):
    """One (binary, tool) evaluation cell exceeded its wall-clock budget."""


class EvaluationAborted(EvaluationError):
    """A fail-fast evaluation sweep stopped at its first failure."""


class JournalError(EvaluationError):
    """A run journal could not be read, written, or matched."""


class JournalWriteError(JournalError):
    """An append to the run journal failed (e.g. disk full).

    The journal is the crash-safety substrate: silently dropping an
    append would turn the next ``--resume`` into silent recomputation
    loss, so write failures abort the sweep instead of degrading.
    """


class ManifestMismatchError(JournalError):
    """``--resume`` pointed at a journal of a *different* run.

    Raised when the resumed run's corpus fingerprint or tool set does
    not match the manifest recorded at journal-creation time.
    """


class ManifestCorruptError(JournalError):
    """A run directory's manifest exists but cannot be parsed.

    Distinct from :class:`ManifestMismatchError` — a mismatch means the
    journal describes a *different, valid* run (the corpus or tool set
    changed, an actionable operator error), while corruption means the
    run directory itself is damaged and resuming is impossible. The
    service resume path and ``evaluate --resume`` report the two
    differently.
    """


class ServiceError(ReproError):
    """Raised by the analysis service (:mod:`repro.service`)."""


class QueueFullError(ServiceError):
    """The bounded job queue cannot admit another submission.

    Carries ``retry_after`` (seconds) — the HTTP layer surfaces it as
    a ``429`` with a ``Retry-After`` header.
    """

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class ServiceUnavailableError(ServiceError):
    """The service is degraded (read-only) or draining.

    Raised on write-path admission while the manager cannot make new
    durability guarantees (e.g. the journal or blob store hit ENOSPC).
    The HTTP layer surfaces it as ``503`` with a ``Retry-After``
    header; reads keep being served.
    """

    def __init__(self, message: str, retry_after: float = 30.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class WorkerLostError(ServiceError):
    """A supervised worker process died or was killed mid-task.

    ``reason`` distinguishes how the worker was lost: ``"crash"`` (the
    child exited/was SIGKILLed), ``"deadline"`` (the supervisor's
    backstop killed a wedged worker), ``"unresponsive"`` (heartbeats
    stopped), ``"shutdown"`` (the executor was being torn down). The loss
    is *transient by classification* — the job manager retries the job
    on a fresh worker and escalates to poison-quarantine only after
    repeated losses, so this must never be journaled as a permanent
    ``job-failed``.
    """

    def __init__(self, message: str, *, reason: str = "crash",
                 exitcode: int | None = None) -> None:
        super().__init__(message)
        self.reason = reason
        self.exitcode = exitcode


class InjectedFaultError(ReproError):
    """Base of faults raised by the :mod:`repro.faults` registry."""


class TransientFaultError(InjectedFaultError):
    """An injected *transient* fault: retrying is expected to succeed."""


class PermanentFaultError(InjectedFaultError, MalformedELFError):
    """An injected *permanent* fault: retrying must not be attempted."""


class FuzzInvariantError(ReproError):
    """The fault-injection harness observed an invariant violation."""


#: Error taxonomy branches considered *transient* by the retry
#: machinery: re-running the cell has a real chance of succeeding.
#: Everything on the permanent list below deterministically recurs.
#: A lost supervised worker is transient: the poison-threshold
#: accounting in the job manager — not the taxonomy — decides when
#: repeated losses become a permanent failure.
TRANSIENT_ERROR_TYPES = (OSError, TransientFaultError, WorkerLostError)


def is_permanent_failure(error: BaseException) -> bool:
    """Whether a cell failure is deterministic and must not be retried.

    Permanent: structural input corruption (:class:`MalformedELFError`
    and every other documented parse rejection under
    :class:`ReproError`), injected permanent faults, and
    :class:`MemoryError` (an RSS-ceiling kill recurs at the same
    allocation). Transient: I/O-level :class:`OSError`\\ s and injected
    transient faults. Anything undocumented (a genuine bug escaping
    the pipeline) stays retryable, preserving the historical behavior
    for unknown exception types.
    """
    if isinstance(error, MemoryError):
        return True
    if isinstance(error, TRANSIENT_ERROR_TYPES):
        return False
    if isinstance(error, ReproError):
        # Documented rejections are deterministic — except the
        # harness's own control-flow errors, which never reach the
        # retry loop anyway.
        return not isinstance(error, EvaluationError)
    return False


class Severity(enum.Enum):
    """How badly a recorded anomaly degrades the analysis."""

    #: Harmless irregularity; results unaffected.
    INFO = "info"
    #: Partial results: some structure was skipped or truncated.
    WARNING = "warning"
    #: A whole analysis stage was abandoned.
    ERROR = "error"


@dataclass(frozen=True)
class Diagnostic:
    """One structured record of a tolerated parse anomaly.

    Parameters
    ----------
    source:
        The subsystem that observed the anomaly (``"elf"``,
        ``"eh_frame"``, ``"eh_frame_hdr"``, ``"lsda"``,
        ``"gnu_property"``, ``"plt"``, ``"funseeker"``, ``"eval"``).
    message:
        Human-readable description.
    severity:
        Impact classification.
    address:
        Virtual address or file offset the anomaly was observed at,
        when one is meaningful.
    error_type:
        Class name of the exception that was tolerated, if any.
    """

    source: str
    message: str
    severity: Severity = Severity.WARNING
    address: int | None = None
    error_type: str | None = None

    def to_dict(self) -> dict:
        """JSON-ready representation (the documented diagnostics schema)."""
        return {
            "source": self.source,
            "message": self.message,
            "severity": self.severity.value,
            "address": self.address,
            "error_type": self.error_type,
        }


@dataclass
class Diagnostics:
    """Append-only collector of :class:`Diagnostic` records.

    One collector instance is shared across all parsing stages of a
    single binary, so the final result carries the complete account of
    everything that was tolerated along the way.
    """

    records: list[Diagnostic] = field(default_factory=list)

    def record(
        self,
        source: str,
        message: str,
        *,
        severity: Severity = Severity.WARNING,
        address: int | None = None,
        error: BaseException | None = None,
    ) -> Diagnostic:
        """Append one diagnostic and return it."""
        diag = Diagnostic(
            source=source,
            message=message,
            severity=severity,
            address=address,
            error_type=type(error).__name__ if error is not None else None,
        )
        self.records.append(diag)
        return diag

    def merge(self, other: "Diagnostics") -> None:
        self.records.extend(other.records)

    def by_source(self, source: str) -> list[Diagnostic]:
        return [d for d in self.records if d.source == source]

    @property
    def has_errors(self) -> bool:
        return any(d.severity is Severity.ERROR for d in self.records)

    def __len__(self) -> int:
        return len(self.records)

    def __bool__(self) -> bool:
        # Truthiness means "collector exists", not "non-empty": parsers
        # test ``if diagnostics:`` to pick degraded vs strict behavior
        # and must not flip modes once the first record lands.
        return True

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.records)

    def to_dicts(self) -> list[dict]:
        return [d.to_dict() for d in self.records]
