"""Record the stored output digests for one seed.

    python3 perfbench/record_expected.py [--seed 2022]

Writes ``perfbench/expected/seed-<n>.json``: for every image of the
seed's corpus, a digest of each detector's function set. Run it only
when the synthetic toolchain or a detector's output changes on purpose,
and say so in the change that does; the benchmark fails its output
check on the default seed until the stored digests match again.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from checks import EXPECTED_DIR  # noqa: E402
from corpus_inputs import ensure_inputs, ensure_reference  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=2022)
    args = parser.parse_args(argv)

    inputs = ensure_inputs(ROOT, args.seed)
    reference = json.loads(ensure_reference(ROOT, inputs).read_text())
    tools = {label: ref["digests"] for label, ref in reference.items()}
    EXPECTED_DIR.mkdir(exist_ok=True)
    path = EXPECTED_DIR / f"seed-{args.seed}.json"
    path.write_text(json.dumps(
        {"seed": args.seed, "inputs": inputs.name, "tools": tools},
        indent=0, sort_keys=True) + "\n")
    print(f"wrote {path} ({len(tools)} images)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
