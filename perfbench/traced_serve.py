"""``funseeker serve`` with the benchmark's spans installed.

Usage: ``python3 perfbench/traced_serve.py <spans dir> serve ARGS...``

The supervised workers are forked from this process, so they inherit
the wrapped callables and write their own span files.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from ledger import Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    tracer = Tracer(argv[0]).install()
    from repro.cli import main as cli_main

    try:
        return cli_main(argv[1:])
    finally:
        tracer.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
