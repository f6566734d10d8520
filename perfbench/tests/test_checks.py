import subprocess
import sys
from pathlib import Path

from checks import Checker

REFERENCE = {
    "prog/a": {"digests": {"funseeker": "aaaa", "fetch": "ffff",
                           "ghidra": "gggg"},
               "count": 12, "jaccard": 0.5},
    "prog/b": {"digests": {"funseeker": "bbbb"}, "count": 7, "jaccard": 1.0},
}
STORED = {"tools": {"prog/a": {"funseeker": "aaaa", "fetch": "ffff"}}}


def test_matching_outputs_pass():
    c = Checker(REFERENCE, STORED)
    c.cell("prog/a", "funseeker", "aaaa")
    c.cell("prog/a", "fetch", "ffff")
    c.cell("prog/b", "ida", "anything: no stored digest for it")
    c.job("prog/b", {"funseeker": "bbbb", "ghidra": "1234"})
    c.scanned("prog/b", {"status": "ok", "funseeker": 7, "jaccard": 1.0})
    assert (c.attempted, c.failed, c.success_rate) == (5, 0, 1.0)


def test_fabricated_wrong_results_fail():
    c = Checker(REFERENCE, STORED)
    c.cell("prog/a", "fetch", "0000")           # differs from stored
    c.cell("prog/b", "funseeker", "0000")       # differs from reference
    c.cell("prog/a", "ghidra", "0000")          # same, with nothing stored
    c.cell("prog/b", "ghidra", None)            # the cell failed
    c.job("prog/b", {"funseeker": "bbbb", "fetch": None})
    c.scanned("prog/a", {"status": "ok", "funseeker": 11, "jaccard": 0.5})
    c.scanned("prog/b", {"status": "degraded:x", "funseeker": 7,
                         "jaccard": 1.0})
    c.expect(False, "noise file admitted")
    assert c.attempted == 8 and c.failed == 8
    assert c.success_rate == 0.0
    assert any("stored" in p for p in c.problems)
    assert any("reference" in p for p in c.problems)


def test_a_stored_digest_also_guards_the_reference():
    c = Checker({"prog/a": {"digests": {"funseeker": "9999"}, "count": 12,
                            "jaccard": 0.5}}, STORED)
    c.scanned("prog/a", {"status": "ok", "funseeker": 12, "jaccard": 0.5})
    assert c.failed == 1


def test_a_failed_check_makes_the_run_incorrect(capsys):
    import harness
    import run

    class Args:
        seed, seconds, trace = 1, 1.0, 0

    ctx = harness.Context(Args, Path("."), Path("."), REFERENCE, STORED)
    ctx.checker.cell("prog/a", "funseeker", "wrong")
    result = run.report(ctx, valid=True)
    assert result["correct"] is False
    assert result["failed"] == 1
    assert set(result["metrics"]) == set(run.spec.END_TO_END)
    assert "check failed" in capsys.readouterr().out


def test_without_program_sources_the_command_fails_quietly(tmp_path):
    here = Path(__file__).resolve().parent.parent
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for f in here.glob("*.py"):
        copy.joinpath(f.name).write_bytes(f.read_bytes())
    proc = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload",
         "table3-serial", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "no program sources" in proc.stderr
