"""Deterministic fault plans: *what* to inject, *where*, and *when*.

A fault plan is a list of :class:`FaultSpec` triples
``(kind, site, ordinal)``: inject fault *kind* at the *ordinal*-th hit
of named fault point *site* in a process. Plans have a canonical
one-line text form so they can cross process boundaries through an
environment variable (forked worker processes inherit the parent's plan)
and be typed on a command line::

    enospc@journal.append#2,kill@cell.execute#5,corrupt@cache.get#*

``#*`` fires on *every* hit of the site; a numeric ordinal fires
exactly once (1-based). Ordinals are counted per process, and pool
workers reset their counters at spawn, so a plan is a reproducible
recipe: the same plan against the same corpus injects the same faults.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Named fault points (the catalog is documented in docs/robustness.md).
SITE_ELF_READ = "elf.read"
SITE_BLOB_READ = "blob.read"
SITE_CACHE_GET = "cache.get"
SITE_CACHE_PUT = "cache.put"
SITE_JOURNAL_APPEND = "journal.append"
SITE_WORKER_DISPATCH = "worker.dispatch"
SITE_CELL_EXECUTE = "cell.execute"
SITE_INGEST_WALK = "ingest.walk"
SITE_INGEST_ADMIT = "ingest.admit"
SITE_INGEST_ANALYZE = "ingest.analyze"

ALL_SITES = (
    SITE_ELF_READ,
    SITE_BLOB_READ,
    SITE_CACHE_GET,
    SITE_CACHE_PUT,
    SITE_JOURNAL_APPEND,
    SITE_WORKER_DISPATCH,
    SITE_CELL_EXECUTE,
    SITE_INGEST_WALK,
    SITE_INGEST_ADMIT,
    SITE_INGEST_ANALYZE,
)

#: Fault kinds. Behavioral kinds act inside the registry (raise, kill,
#: spin); data kinds are returned to the instrumented call site, which
#: applies the site-specific corruption itself.
KIND_IO = "io"                # raise OSError(EIO)
KIND_ENOSPC = "enospc"        # raise OSError(ENOSPC)
KIND_TRANSIENT = "transient"  # raise TransientFaultError (retryable)
KIND_PERMANENT = "permanent"  # raise PermanentFaultError (fail-fast)
KIND_KILL = "kill"            # SIGKILL the current process
KIND_HANG = "hang"            # busy-spin until the watchdog fires
KIND_TRUNCATE = "truncate"    # data kind: caller truncates its read
KIND_CORRUPT = "corrupt"      # data kind: caller corrupts its artifact

BEHAVIORAL_KINDS = (
    KIND_IO, KIND_ENOSPC, KIND_TRANSIENT, KIND_PERMANENT, KIND_KILL,
    KIND_HANG,
)
DATA_KINDS = (KIND_TRUNCATE, KIND_CORRUPT)
ALL_KINDS = BEHAVIORAL_KINDS + DATA_KINDS

#: Ordinal sentinel for "every hit".
EVERY = 0


@dataclass(frozen=True)
class FaultSpec:
    """One planned injection: ``kind`` at the ``ordinal``-th ``site`` hit.

    ``ordinal`` is 1-based; :data:`EVERY` (spelled ``*`` in text form)
    fires on every hit.
    """

    kind: str
    site: str
    ordinal: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ALL_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; pick from {ALL_KINDS}")
        if self.site not in ALL_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; pick from {ALL_SITES}")
        if self.ordinal < 0:
            raise ValueError(f"fault ordinal must be >= 0: {self.ordinal}")

    def matches(self, site: str, count: int) -> bool:
        """Whether this spec fires at the ``count``-th hit of ``site``."""
        return self.site == site and (
            self.ordinal == EVERY or self.ordinal == count)

    def __str__(self) -> str:
        ordinal = "*" if self.ordinal == EVERY else str(self.ordinal)
        return f"{self.kind}@{self.site}#{ordinal}"


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, ordered collection of :class:`FaultSpec`."""

    specs: tuple[FaultSpec, ...] = ()

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the canonical ``kind@site#ordinal[,...]`` form."""
        specs = []
        for item in text.split(","):
            item = item.strip()
            if not item:
                continue
            try:
                kind, rest = item.split("@", 1)
                site, ordinal_text = rest.split("#", 1)
            except ValueError:
                raise ValueError(
                    f"malformed fault spec {item!r} "
                    "(expected kind@site#ordinal)") from None
            ordinal = (EVERY if ordinal_text.strip() == "*"
                       else int(ordinal_text))
            specs.append(FaultSpec(kind.strip(), site.strip(), ordinal))
        return cls(tuple(specs))

    @classmethod
    def seeded(
        cls,
        seed: int,
        *,
        n: int = 3,
        sites: tuple[str, ...] = ALL_SITES,
        kinds: tuple[str, ...] = (KIND_IO, KIND_TRANSIENT, KIND_PERMANENT),
        max_ordinal: int = 8,
    ) -> "FaultPlan":
        """A reproducible random plan: same seed, same injections."""
        rng = random.Random(f"fault-plan:{seed}")
        specs = tuple(
            FaultSpec(rng.choice(kinds), rng.choice(sites),
                      rng.randrange(1, max_ordinal + 1))
            for _ in range(n)
        )
        return cls(specs)

    def first_match(self, site: str, count: int) -> FaultSpec | None:
        for spec in self.specs:
            if spec.matches(site, count):
                return spec
        return None

    def __bool__(self) -> bool:
        return bool(self.specs)

    def __str__(self) -> str:
        return ",".join(str(s) for s in self.specs)
