"""Every test here must reap the worker processes it starts."""

import pytest


@pytest.fixture(autouse=True)
def _reaps_workers(no_leaked_workers):
    yield
