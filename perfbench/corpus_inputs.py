"""Seeded benchmark inputs, generated once and reused.

Inputs are synthesized from the seed alone and cached under
``.perfbench/inputs/<seed>-<synth hash>/`` in the checkout, so corpus
synthesis is never inside a timed region or ``setup_s``: it runs once
per (seed, corpus shape, hash of ``src/repro/synth`` and of this file).

The corpus has a *fixed shape*: 16 programs (8 coreutils-, 3
binutils-, 5 SPEC-like) rendered under the 24 configurations of
``sampled_matrix`` = 384 stripped images, like the ``small`` scale of
``repro.synth.corpus``. Unlike ``iter_corpus``, each program's function
count and C++ flag are fixed per slot instead of drawn from the seed,
so a different seed changes every image's content but not the size
distribution the latencies depend on.

Selections: 3 configurations per program go to table3-serial (48
images), the next 6 to the fleet directory (96 images), and the service
set takes 350 of the 352 distinct images, table3's configurations last.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import random
import shutil
import sys
import zlib
from pathlib import Path

#: Per suite: (number of programs, smallest and largest function count,
#: which program slots are C++). Function counts are spread evenly over
#: the range, as in the ``small`` scale of ``repro.synth.corpus``.
SHAPE = {
    "coreutils": (8, 25, 70, ()),
    "binutils": (3, 90, 180, ()),
    "spec": (5, 60, 160, (0, 1, 3)),
}

TABLE3_CONFIGS = 3
FLEET_CONFIGS = 6
SERVICE_IMAGES = 350

#: Non-ELF files mixed into the fleet directory (share stated in the doc).
FLEET_NOISE_FILES = 24

#: Checked-in hostile inputs copied (never modified) into the fleet.
HOSTILE_DIR = Path("tests") / "ingest" / "corpus"


def tree_digest(*paths: Path) -> str:
    """sha256 over the names and bytes of the ``.py`` files under paths."""
    h = hashlib.sha256()
    for base in paths:
        files = [base] if base.is_file() else sorted(base.rglob("*.py"))
        for f in files:
            h.update(str(f.relative_to(base.parent)).encode())
            h.update(b"\0")
            h.update(f.read_bytes())
    return h.hexdigest()


def function_digest(functions) -> str:
    """Short digest of one function-entry set."""
    text = ",".join(format(a, "x") for a in sorted(functions))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _programs(seed: int):
    """(suite, slot, function count, cxx, program seed) per program."""
    for suite, (count, lo, hi, cxx_slots) in SHAPE.items():
        for i in range(count):
            n = lo + round((hi - lo) * (i + 0.5) / count)
            key = zlib.crc32(f"{seed}:{suite}:{i}".encode())
            program_seed = random.Random(key).randrange(1 << 30)
            yield suite, i, n, i in cxx_slots, program_seed


def _in_two_processes(fn, items: list) -> list:
    """``[fn(x) for x in items]`` over two forked processes. Inputs are
    made once per seed, outside every metric, but a run that meets a new
    seed waits for them."""
    import multiprocessing

    pool = multiprocessing.get_context("fork").Pool(2)
    try:
        return pool.map(fn, items)
    finally:
        pool.close()
        pool.join()


def _render(program: tuple) -> list:
    """One program's 24 ``CorpusEntry`` objects in profile order."""
    from repro.elf.parser import strip_symbols
    from repro.synth.corpus import CorpusEntry
    from repro.synth.generate import generate_program
    from repro.synth.linker import link_program
    from repro.synth.profiles import sampled_matrix

    suite, i, n, cxx, program_seed = program
    row = []
    for profile in sampled_matrix():
        spec = generate_program(f"{suite}_{i:03d}", n, profile,
                                seed=program_seed, cxx=cxx)
        binary = link_program(spec, profile)
        row.append(CorpusEntry(suite=suite, program=spec.name,
                               binary=binary,
                               stripped=strip_symbols(binary.data)))
    return row


def build_corpus(seed: int) -> list[list]:
    """Per program, its 24 ``CorpusEntry`` objects in profile order."""
    return _in_two_processes(_render, list(_programs(seed)))


def _split(programs: list[list]) -> tuple[list, list, list]:
    """table3, fleet and service selections, rotating configurations.

    Each program's configurations are rotated by program so every
    selection covers every configuration. The service set takes images
    round-robin over programs, starting after table3's configurations,
    and keeps only distinct ones (the synthetic toolchain renders gcc
    and clang at x64 -O0 identically): a repeated image would be
    answered by the dedup path or a worker's index memo instead of
    being analyzed.
    """
    orders = []
    for p, row in enumerate(programs):
        orders.append([row[(3 * p + j) % len(row)] for j in range(len(row))])
    table3 = [e for order in orders for e in order[:TABLE3_CONFIGS]]
    fleet = [e for order in orders
             for e in order[TABLE3_CONFIGS:TABLE3_CONFIGS + FLEET_CONFIGS]]
    service, seen = [], set()
    configs = len(orders[0])
    for j in range(TABLE3_CONFIGS, TABLE3_CONFIGS + configs):
        for order in orders:
            entry = order[j % configs]
            digest = hashlib.sha256(entry.stripped).digest()
            if digest not in seen and len(service) < SERVICE_IMAGES:
                seen.add(digest)
                service.append(entry)
    return table3, fleet, service


def _safe(label: str) -> str:
    return label.replace("/", "__")


def _noise(rng: random.Random, i: int) -> tuple[str, bytes]:
    """A non-ELF file of seeded content: random bytes, or text. Sizes
    are fixed per slot (0.3 to 30 KB) so every seed walks as many bytes."""
    size = 256 + i * 1280
    if i % 3 == 0:
        vocabulary = ("alpha", "beta", "gamma", "delta", "data", "config",
                      "log", "entry")
        words = [rng.choice(vocabulary) for _ in range(size // 6)]
        return f"noise_{i:02d}.txt", " ".join(words).encode()
    data = bytes(rng.getrandbits(8) for _ in range(size))
    return f"noise_{i:02d}.bin", b"\x00" + data[1:]


def ensure_inputs(root: Path, seed: int, log=print) -> Path:
    """Return the input directory for ``seed``, generating it if absent.

    Layout::

        corpus.pkl      all 384 entries, flat (reference computation)
        table3.pkl      the table3-serial entries
        service.pkl     [(label, stripped bytes)] for service-mix, distinct
        fleet/          the fleet directory the scan walks
        fleet.json      {"seed", "files": {relative path: {"kind", "label"}}}
    """
    key = tree_digest(root / "src" / "repro" / "synth",
                      Path(__file__).resolve())[:16]
    out = root / ".perfbench" / "inputs" / f"seed{seed}-{key}"
    if (out / "done").exists():
        return out
    hostile = root / HOSTILE_DIR
    if not hostile.is_dir():
        raise FileNotFoundError(f"hostile corpus {hostile} is missing")
    log(f"generating inputs for seed {seed} (once per seed and synth tree)")
    tmp = out.with_name(out.name + f".tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)

    programs = build_corpus(seed)
    table3, fleet, service = _split(programs)
    flat = [e for row in programs for e in row]
    with open(tmp / "corpus.pkl", "wb") as f:
        pickle.dump(flat, f, protocol=pickle.HIGHEST_PROTOCOL)
    with open(tmp / "table3.pkl", "wb") as f:
        pickle.dump(table3, f, protocol=pickle.HIGHEST_PROTOCOL)
    with open(tmp / "service.pkl", "wb") as f:
        pickle.dump([(e.label, e.stripped) for e in service], f,
                    protocol=pickle.HIGHEST_PROTOCOL)

    files: dict[str, dict] = {}
    fleet_dir = tmp / "fleet"
    for entry in fleet:
        rel = f"elf/{_safe(entry.label)}.elf"
        path = fleet_dir / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(entry.stripped)
        files[rel] = {"kind": "elf", "label": entry.label}
    rng = random.Random(zlib.crc32(f"{seed}:noise".encode()))
    for i in range(FLEET_NOISE_FILES):
        name, data = _noise(rng, i)
        rel = f"misc/{name}"
        path = fleet_dir / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
        files[rel] = {"kind": "noise", "label": name}
    for src in sorted(hostile.iterdir()):
        if src.suffix not in (".elf", ".bin"):
            continue
        rel = f"hostile/{src.name}"
        (fleet_dir / "hostile").mkdir(parents=True, exist_ok=True)
        shutil.copyfile(src, fleet_dir / rel)
        files[rel] = {"kind": "hostile", "label": src.name}
    (tmp / "fleet.json").write_text(json.dumps(
        {"seed": seed, "files": files}, indent=1))
    (tmp / "done").write_text("ok\n")
    shutil.rmtree(out, ignore_errors=True)
    os.replace(tmp, out)
    return out


def ensure_reference(root: Path, inputs: Path) -> Path:
    """Every detector's answer for every image, computed once.

    Keyed by the hash of the whole ``src/repro`` tree: this is the
    program's own answer through its plainest path (one detector on one
    freshly parsed image), which every workload's execution path must
    reproduce. Returns the path of a JSON file mapping label ->
    {"digests": {tool: digest}, "count", "jaccard"}, where the last two
    are FunSeeker's function count and its agreement with naive-endbr.
    """
    key = tree_digest(root / "src" / "repro")[:16]
    path = root / ".perfbench" / "reference" / f"{inputs.name}-{key}.json"
    if path.exists():
        return path
    with open(inputs / "corpus.pkl", "rb") as f:
        entries = pickle.load(f)
    ref = dict(_in_two_processes(_answers, entries))
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(ref, sort_keys=True))
    os.replace(tmp, path)
    return path


def _answers(entry) -> tuple[str, dict]:
    """One image's reference entry (see :func:`ensure_reference`)."""
    from repro.baselines import ALL_DETECTORS
    from repro.elf.parser import ELFFile
    from repro.ingest.ladder import pairwise_agreement

    found = {name: frozenset(cls().detect(ELFFile(entry.stripped)).functions)
             for name, cls in ALL_DETECTORS.items()}
    pair = {t: found[t] for t in ("funseeker", "naive-endbr")}
    return entry.label, {
        "digests": {t: function_digest(fs) for t, fs in found.items()},
        "count": len(found["funseeker"]),
        "jaccard": round(pairwise_agreement(pair)["funseeker|naive-endbr"], 6),
    }


def main(argv: list[str]) -> int:
    """Prepare one seed's inputs and reference in a process of its own,
    so the benchmark's parent (whose peak RSS its children inherit at
    spawn) never holds the corpus. Prints {"inputs", "reference"}."""
    root = Path(__file__).resolve().parent.parent
    inputs = ensure_inputs(root, int(argv[0]), log=lambda m: print(
        f"[perfbench] {m}", file=sys.stderr, flush=True))
    reference = ensure_reference(root, inputs)
    print(json.dumps({"inputs": str(inputs), "reference": str(reference)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
