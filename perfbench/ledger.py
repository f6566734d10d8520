"""Spans around the program's public callables, kept outside ``src/``.

:class:`Tracer` wraps callables the program resolves at call time
(class methods, module attributes looked up by name) and keeps, per
span name, a count, the inclusive time and the *self* time: the span's
duration minus the time its child spans cover. Spans nest per thread.

Forked children (scan pool workers, supervised service workers) inherit
the wrapped callables. After a fork the child starts with empty totals
and appends a delta line to ``<out_dir>/spans-<pid>.jsonl`` each time
its outermost span closes, because those processes may end without
running exit hooks. :func:`read_totals` merges everything.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from pathlib import Path

#: Detector name -> layer span name.
DETECTOR_LAYERS = {
    "funseeker": "core.funseeker",
    "fetch": "baselines.fetch",
    "ida": "baselines.ida",
    "ghidra": "baselines.ghidra",
    "naive-endbr": "baselines.naive",
}

#: ``AnalysisContext`` members that compute a shared per-binary artifact.
#: ``detector_result`` is left out: what it runs is the detector itself.
CONTEXT_ARTIFACTS = ("content_hash", "sweep", "robust_sweep_result",
                     "fde_starts", "landing_pads", "plt_map", "cet_features")


class Tracer:
    """Per-name span totals for this process and its forked children."""

    def __init__(self, out_dir: str | os.PathLike,
                 clock=time.perf_counter) -> None:
        self.out_dir = Path(out_dir)
        self.clock = clock
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.owner = os.getpid()
        self.totals: dict[str, list] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.totals = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> None:
        # [name, start, time covered by children]
        self._stack().append([name, self.clock(), 0.0])

    def exit(self) -> None:
        end = self.clock()
        stack = self._stack()
        name, start, covered = stack.pop()
        duration = end - start
        if stack:
            stack[-1][2] += duration
        with self._lock:
            agg = self.totals.setdefault(name, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += duration
            agg[2] += duration - covered
        if not stack and os.getpid() != self.owner:
            self.flush()

    def wrap(self, fn, name):
        """``fn`` inside a span; ``name`` is a string or ``(args) -> str``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(name if isinstance(name, str) else name(args))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()

        return traced

    def wrap_generator(self, fn, name: str):
        """Each ``next()`` on the generator ``fn`` returns is a span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                tracer.enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.exit()
                yield item

        return traced

    def patch(self, owner, attr: str, name, generator: bool = False) -> None:
        original = getattr(owner, attr)
        if isinstance(original, property):
            wrapped = property(self.wrap(original.fget, name))
        elif generator:
            wrapped = self.wrap_generator(original, name)
        else:
            wrapped = self.wrap(original, name)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- the layer map -------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every layer boundary this benchmark reports on (once)."""
        if self._patches:
            return self
        from repro.baselines.base import FunctionDetector
        from repro.cache.context import AnalysisContext
        from repro.elf.parser import ELFFile
        from repro.eval import runner
        from repro.ingest import pipeline
        from repro.ingest.journal import ScanJournal
        from repro.x86 import superset

        self.patch(ELFFile, "__init__", "elf.parse")
        self.patch(superset, "build_index", "x86.index")
        self.patch(FunctionDetector, "detect",
                   lambda args: DETECTOR_LAYERS.get(
                       args[0].name, "baselines.other"))
        # Artifacts one binary's detectors share, computed by whichever
        # asks first: a span of their own keeps that first use out of
        # the asking detector's self time.
        for attr in CONTEXT_ARTIFACTS:
            self.patch(AnalysisContext, attr, "cache.context")
        self.patch(runner, "run_evaluation", "eval.run")
        self.patch(runner, "score", "eval.score")
        self.patch(pipeline, "discover", "ingest.discover", generator=True)
        self.patch(pipeline, "triage", "ingest.admit")
        self.patch(pipeline, "analyze_binary", "ingest.analyze")
        for attr in ("append_triage", "append_analysis", "append_failure"):
            self.patch(ScanJournal, attr, "ingest.journal")
        return self

    def flush(self) -> None:
        """Append this process's totals since the last flush to its file."""
        with self._lock:
            delta, self.totals = self.totals, {}
        path = self.out_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as f:
            f.write(json.dumps(delta) + "\n")


def merge(into: dict[str, list], delta: dict[str, list]) -> dict[str, list]:
    for name, (count, incl, self_s) in delta.items():
        agg = into.setdefault(name, [0, 0.0, 0.0])
        agg[0] += count
        agg[1] += incl
        agg[2] += self_s
    return into


def read_totals(out_dir: str | os.PathLike) -> dict[str, list]:
    """Merge every span file under ``out_dir``: name -> [n, incl, self]."""
    totals: dict[str, list] = {}
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.strip():
                merge(totals, json.loads(line))
    return totals
