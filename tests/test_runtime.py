"""Ordered evaluation: ordered results and ZO_MESHOPT_THREADS validation."""
import pytest

from zo_meshopt.errors import ConfigError
from zo_meshopt.runtime import THREADS_ENV, run_ordered


@pytest.mark.parametrize("threads", [None, "1", "2"])
def test_results_keep_submission_order(monkeypatch, threads):
    if threads is None:
        monkeypatch.delenv(THREADS_ENV, raising=False)
    else:
        monkeypatch.setenv(THREADS_ENV, threads)
    assert run_ordered(lambda x: x * x, range(6)) == [0, 1, 4, 9, 16, 25]
    assert run_ordered(lambda x: x + 1, [3]) == [4]
    assert run_ordered(lambda x: x, []) == []


@pytest.mark.parametrize("raw", ["abc", "2.5", "", "0", "-3"])
@pytest.mark.parametrize("n_items", [2, 3, 8])
def test_bad_thread_setting_raises_for_every_multi_item_call(monkeypatch, raw, n_items):
    monkeypatch.setenv(THREADS_ENV, raw)
    calls = []
    with pytest.raises(ConfigError, match=THREADS_ENV):
        run_ordered(calls.append, range(n_items))
    assert calls == []


def test_single_item_runs_inline_without_reading_the_setting(monkeypatch):
    monkeypatch.setenv(THREADS_ENV, "abc")
    assert run_ordered(lambda x: -x, [5]) == [-5]
