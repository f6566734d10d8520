import json
import re
from pathlib import Path

import spec

ROOT = Path(__file__).resolve().parent.parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_checked_in_benchmark_json_matches_the_spec():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == spec.benchmark_json()


def test_spec_respects_the_format_limits():
    doc = spec.benchmark_json()
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= doc["run_seconds"] <= 60
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in doc["workloads"])
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
