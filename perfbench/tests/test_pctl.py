import pytest

import pctl


def test_nearest_rank():
    values = list(range(1, 101))
    assert pctl.percentile(values, 50) == 50
    assert pctl.percentile(values, 95) == 95
    assert pctl.percentile(values, 100) == 100
    assert pctl.percentile([7.0], 95) == 7.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        pctl.percentile([], 50)
    with pytest.raises(ValueError):
        pctl.percentile([1, 2], 0)


def test_p95_needs_ten_samples_beyond_it():
    assert pctl.summarize(range(200), 95) == (189, 200)
    assert pctl.summarize(range(199), 95) is None


def test_p50_needs_ten_samples_beyond_it():
    assert pctl.summarize(range(20), 50) == (9, 20)
    assert pctl.summarize(range(19), 50) is None


def test_ties_at_the_percentile_do_not_count_as_beyond():
    values = [1.0] * 300 + [2.0] * 5
    assert pctl.beyond(values, 1.0) == 5
    assert pctl.summarize(values, 95) is None
    assert pctl.summarize([], 50) is None
