"""The process-wide fault registry: plan resolution and injection.

Instrumented code calls :func:`hit` at each named fault point. With no
plan installed (the default) a hit is one cached-attribute check and a
``None`` return — the registry is free in production. With a plan
installed (directly, or through the :data:`ENV_FAULT_PLAN` environment
variable, which forked evaluation workers inherit), the hit counts the
site's per-process ordinal and executes the first matching spec:

- behavioral kinds act right here (raise an :class:`OSError` or an
  injected-fault error, ``SIGKILL`` the process, busy-spin until the
  cell watchdog fires);
- data kinds (``truncate``, ``corrupt``) are *returned* to the call
  site, which applies the corruption to its own artifact — that way
  the production error-handling path under test is the real one.
"""

from __future__ import annotations

import errno
import os
import signal
import time

from repro import obs
from repro.errors import PermanentFaultError, TransientFaultError
from repro.faults.plan import (
    KIND_CORRUPT,
    KIND_ENOSPC,
    KIND_HANG,
    KIND_IO,
    KIND_KILL,
    KIND_PERMANENT,
    KIND_TRANSIENT,
    KIND_TRUNCATE,
    FaultPlan,
)

#: Environment variable carrying the active plan across fork/spawn.
ENV_FAULT_PLAN = "REPRO_FAULT_PLAN"

#: Upper bound on an injected hang: long enough that any realistic cell
#: watchdog fires first, short enough that a mis-configured test run
#: (hang injected with no timeout armed) eventually frees itself.
HANG_SECONDS = 30.0

_UNSET = object()
_plan: FaultPlan | None | object = _UNSET
_counts: dict[str, int] = {}


def active_plan() -> FaultPlan | None:
    """The installed plan, lazily resolved from the environment."""
    global _plan
    if _plan is _UNSET:
        text = os.environ.get(ENV_FAULT_PLAN)
        _plan = FaultPlan.parse(text) if text else None
    return _plan  # type: ignore[return-value]


def install(plan: FaultPlan | str | None, *, env: bool = True) -> None:
    """Install a plan (and optionally export it for child processes).

    ``None`` clears the plan. With ``env=True`` (default) the canonical
    text form is written to :data:`ENV_FAULT_PLAN` so worker processes
    forked later inherit the same plan.
    """
    global _plan
    if isinstance(plan, str):
        plan = FaultPlan.parse(plan)
    _plan = plan
    reset_counts()
    if env:
        if plan:
            os.environ[ENV_FAULT_PLAN] = str(plan)
        else:
            os.environ.pop(ENV_FAULT_PLAN, None)


def clear() -> None:
    """Remove any installed plan (including the environment export)."""
    install(None)


def reset_counts() -> None:
    """Zero the per-site hit counters (workers call this at spawn)."""
    _counts.clear()


def hit(site: str) -> str | None:
    """Pass through a named fault point; inject if the plan says so.

    Returns ``None`` (no injection) or a *data* kind the caller must
    apply. Behavioral kinds never return: they raise, kill, or spin.
    """
    plan = active_plan()
    if plan is None:
        return None
    count = _counts.get(site, 0) + 1
    _counts[site] = count
    spec = plan.first_match(site, count)
    if spec is None:
        return None
    obs.add("faults.injected", 1)
    obs.add(f"faults.{spec.kind}", 1)
    return _execute(spec.kind, site)


def _execute(kind: str, site: str) -> str | None:
    if kind in (KIND_TRUNCATE, KIND_CORRUPT):
        return kind
    if kind == KIND_IO:
        raise OSError(errno.EIO, f"injected I/O fault at {site}")
    if kind == KIND_ENOSPC:
        raise OSError(errno.ENOSPC, f"injected disk-full fault at {site}")
    if kind == KIND_TRANSIENT:
        raise TransientFaultError(f"injected transient fault at {site}")
    if kind == KIND_PERMANENT:
        raise PermanentFaultError(f"injected permanent fault at {site}")
    if kind == KIND_KILL:
        os.kill(os.getpid(), signal.SIGKILL)
        return None  # pragma: no cover — the signal is immediate
    if kind == KIND_HANG:
        # A pure-Python spin: interruptible by the SIGALRM watchdog,
        # which is exactly the recovery path the injection validates.
        end = time.monotonic() + HANG_SECONDS
        while time.monotonic() < end:
            pass
        return None
    raise ValueError(f"unknown fault kind {kind!r}")  # pragma: no cover


def guarded(site: str, body):
    """Wrap a zero-argument callable with a leading fault point."""
    def _run():
        hit(site)
        return body()
    return _run
