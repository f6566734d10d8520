"""Shared fixtures: synthetic sample binaries and a tiny corpus.

Everything is session-scoped — corpus generation is deterministic, so
building it once per test session is safe and keeps the suite fast.
"""

from __future__ import annotations

import multiprocessing
import threading

import pytest

from repro.elf.parser import ELFFile
from repro.synth import (
    CompilerProfile,
    generate_program,
    link_program,
)
from repro.synth.corpus import build_corpus


@pytest.fixture(scope="session")
def gcc_o2_profile() -> CompilerProfile:
    return CompilerProfile("gcc", "O2", 64, True)


@pytest.fixture(scope="session")
def sample_binary(gcc_o2_profile):
    """A mid-sized C++ gcc/x86-64/PIE binary with every phenomenon."""
    spec = generate_program("sample", 80, gcc_o2_profile, seed=42, cxx=True)
    return link_program(spec, gcc_o2_profile)


@pytest.fixture(scope="session")
def sample_elf(sample_binary) -> ELFFile:
    return ELFFile(sample_binary.data)


@pytest.fixture(scope="session")
def sample_c_binary():
    """A plain-C clang/x86/non-PIE binary (the FETCH failure case)."""
    profile = CompilerProfile("clang", "O2", 32, False)
    spec = generate_program("sample32", 60, profile, seed=43, cxx=False)
    return link_program(spec, profile)


@pytest.fixture(scope="session")
def tiny_corpus():
    return build_corpus("tiny")


@pytest.fixture()
def no_leaked_workers():
    """Fail the test if it leaves a worker process or supervisor thread.

    Anything that starts a :class:`~repro.eval.supervisor.SupervisedExecutor`
    must shut it down on every exit path; a forgotten ``shutdown()``
    shows up here as a live ``multiprocessing`` child or a
    ``repro-supervisor-*`` thread. Leaked children are killed so one
    failure does not cascade into later tests.
    """
    def supervisors() -> set[threading.Thread]:
        return {t for t in threading.enumerate()
                if t.name.startswith("repro-supervisor-")}

    children = {p.pid for p in multiprocessing.active_children()}
    threads = supervisors()
    yield
    leaked = [p for p in multiprocessing.active_children()
              if p.pid not in children]
    for proc in leaked:
        proc.kill()
        proc.join(5)
    stray = supervisors() - threads
    if leaked or stray:
        pytest.fail(
            f"test leaked {len(leaked)} worker process(es) "
            f"{[p.name for p in leaked]} and {len(stray)} supervisor "
            f"thread(s) {sorted(t.name for t in stray)}")
