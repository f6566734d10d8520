"""How fast the host runs right now: a fixed reference loop, timed.

The benchmark's VM gets its vCPUs from a shared host, and their speed
drifts. A fixed pure-Python loop takes anywhere from 1x to 2x its
fastest time, in phases of a few seconds, with no steal showing in
/proc/stat; averaged over 20-45 s windows, its time still spread
12-20% (IQR over median). No run length makes a wall time steady under
that. What does is timing the program against a reference measured on
the same cores at nearly the same time. Per Table III pass, the pass
time spread 20% and its ratio to the reference loop run beside it 7%.

So the timed end-to-end metrics are given in reference time:
``reference seconds = wall seconds * REF_SECONDS / measured loop time``.
REF_SECONDS is about the loop's time on the benchmark's home machine
(a 2.0 GHz Xeon vCPU, CPython 3.11), so reference times are on the
scale of wall times; the wall-time figures are printed beside them.

:class:`ReferencePair` times the loop on every CPU at once, from helper
processes pinned one to a CPU, for workloads whose program processes
run on all of them. It is only run while the program is idle, so it
never competes with the work it calibrates.
"""

from __future__ import annotations

import os
import statistics
import time

#: Iterations of the reference loop's body per run.
REF_ITERATIONS = 20_000

#: About the loop's wall time on the home machine, in seconds. Only
#: the scale of reference times depends on it, never their spread.
REF_SECONDS = 0.003


def reference_loop() -> int:
    """A fixed amount of interpreter work: integer arithmetic and dict
    stores, as the program's pure-Python passes do."""
    table: dict[int, int] = {}
    total = 0
    for i in range(REF_ITERATIONS):
        total += i * i % 7
        table[i & 1023] = total
    return total


def time_reference(runs: int = 1) -> float:
    """Median wall seconds of ``runs`` reference loops on this thread."""
    walls = []
    for _ in range(runs):
        started = time.perf_counter()
        reference_loop()
        walls.append(time.perf_counter() - started)
    return statistics.median(walls)


def scale(measured: float) -> float:
    """Factor turning wall seconds into reference seconds, given the
    reference loop's measured time."""
    return REF_SECONDS / measured


class ReferencePair:
    """One helper process per usable CPU, pinned to it, each waiting on
    a pipe; :meth:`measure` makes all of them time the reference loop at
    once and returns the mean of their times."""

    def __init__(self, runs: int = 4) -> None:
        self.runs = runs
        self.helpers: list[tuple[int, int, int]] = []  # pid, go fd, done fd
        try:
            for cpu in sorted(os.sched_getaffinity(0)):
                self._spawn(cpu)
        except BaseException:
            self.close()
            raise

    def _spawn(self, cpu: int) -> None:
        go_r, go_w = os.pipe()
        done_r, done_w = os.pipe()
        pid = os.fork()
        if pid == 0:  # helper: never returns
            code = 0
            try:
                os.close(go_w)
                os.close(done_r)
                os.sched_setaffinity(0, {cpu})
                while os.read(go_r, 1) == b"g":
                    wall = time_reference(self.runs)
                    os.write(done_w, f"{wall!r}\n".encode())
            except BaseException:  # noqa: BLE001 — report by exit code
                code = 1
            finally:
                os._exit(code)
        os.close(go_r)
        os.close(done_w)
        self.helpers.append((pid, go_w, done_r))

    def measure(self) -> float:
        """Mean over CPUs of the reference loop's median wall time."""
        for _pid, go, _done in self.helpers:
            os.write(go, b"g")
        walls = []
        for _pid, _go, done in self.helpers:
            line = b""
            while not line.endswith(b"\n"):
                chunk = os.read(done, 64)
                if not chunk:
                    raise RuntimeError("reference helper died")
                line += chunk
            walls.append(float(line))
        return statistics.fmean(walls)

    def close(self) -> None:
        """Stop every helper and wait until each has ended."""
        for pid, go, done in self.helpers:
            try:
                os.write(go, b"q")
            except OSError:
                pass
            os.close(go)
            os.close(done)
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass
        self.helpers.clear()

    def __enter__(self) -> "ReferencePair":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
