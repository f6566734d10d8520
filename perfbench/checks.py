"""Output checks behind ``success_rate``.

Two references:

- For the default seed, digests of each (binary, tool) function set
  stored with the benchmark (``expected/seed-<n>.json``), recorded by
  ``record_expected.py``.
- For any seed, the program's own answer of each detector for each
  image through its plainest path (:func:`corpus_inputs.ensure_reference`).
  table3-serial, fleet-scan and service-mix must each reproduce it, so
  the three execution paths agree on every binary's FunSeeker set (and
  table3-serial and service-mix on the other detectors' sets too).

A cell that disagrees with either is a failed operation.
"""

from __future__ import annotations

import json
from pathlib import Path

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


def load_expected(seed: int) -> dict:
    """Stored digests for ``seed``, or empty when none were recorded."""
    path = EXPECTED_DIR / f"seed-{seed}.json"
    if not path.exists():
        return {"tools": {}}
    return json.loads(path.read_text())


class Checker:
    """Counts operations and names the first few failures."""

    def __init__(self, reference: dict, expected: dict) -> None:
        self.reference = reference
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(what)

    def _problem(self, label: str, tool: str,
                 digest: str | None) -> str | None:
        if digest is None:
            return f"{label} {tool}: no result"
        want = self.expected["tools"].get(label, {}).get(tool)
        if want is not None and digest != want:
            return f"{label} {tool}: digest {digest} != stored {want}"
        ref = self.reference[label]["digests"].get(tool)
        if ref is not None and digest != ref:
            return f"{label} {tool}: digest {digest} != reference {ref}"
        return None

    def cell(self, label: str, tool: str, digest: str | None) -> None:
        """One (binary, tool) function set, as a digest (None = failed)."""
        problem = self._problem(label, tool, digest)
        self.expect(problem is None, problem)

    def job(self, label: str, digests: dict[str, str | None]) -> None:
        """One service job: every tool's set must pass."""
        problems = ([self._problem(label, tool, d)
                     for tool, d in sorted(digests.items())]
                    if digests else [f"{label}: job returned no tools"])
        problem = next((p for p in problems if p), None)
        self.expect(problem is None, problem)

    def scanned(self, label: str, doc: dict | None) -> None:
        """One fleet image: analyzed ok, with FunSeeker's count and its
        agreement with naive-endbr matching the reference."""
        self.attempted += 1
        ref = self.reference[label]
        stored = self.expected["tools"].get(label, {}).get("funseeker")
        digest = ref["digests"]["funseeker"]
        if stored is not None and digest != stored:
            self.fail(f"{label} funseeker: reference {digest} != "
                      f"stored {stored}")
        elif doc is None or doc.get("status") != "ok":
            self.fail(f"{label}: not analyzed ok ({doc and doc['status']})")
        elif doc.get("funseeker") != ref["count"]:
            self.fail(f"{label}: {doc.get('funseeker')} functions != "
                      f"reference {ref['count']}")
        elif doc.get("jaccard") != ref["jaccard"]:
            self.fail(f"{label}: agreement {doc.get('jaccard')} != "
                      f"reference {ref['jaccard']}")

    def expect(self, ok: bool, what: str | None) -> None:
        """Any other operation: ``ok`` or a failure described by ``what``."""
        self.attempted += 1
        if not ok:
            self.fail(what)

    @property
    def success_rate(self) -> float:
        if not self.attempted:
            return 0.0
        return (self.attempted - self.failed) / self.attempted
