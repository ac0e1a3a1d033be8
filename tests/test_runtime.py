"""Ordered evaluation keeps the order of its items."""
from zo_meshopt.runtime import run_ordered


def test_results_keep_submission_order():
    assert run_ordered(lambda x: x * x, range(6)) == [0, 1, 4, 9, 16, 25]
    assert run_ordered(lambda x: x + 1, [3]) == [4]
    assert run_ordered(lambda x: x, []) == []
