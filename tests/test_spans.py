"""The span runner shared by rolling moments and the GBM ensemble."""
import sys
import threading
from functools import partial
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trendlab._spans as spans
from trendlab._spans import run_spans, split_rows


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, 2000), min_rows=st.integers(1, 300), cpus=st.integers(1, 8))
def test_split_rows_covers_the_rows_in_order(rows, min_rows, cpus):
    with patch.object(spans, "_cpu_count", lambda: cpus):
        parts = split_rows(rows, min_rows)
    assert len(parts) == max(1, min(cpus, rows // min_rows))
    assert [r for part in parts for r in part] == list(range(rows))
    if len(parts) > 1:
        assert min(map(len, parts)) >= min_rows


def test_results_keep_call_order_under_frequent_thread_switches():
    # more threads than CPUs, switching every microsecond: a lost or
    # misplaced result would show as a wrong entry
    def work(i):
        return sum(range(i * 1000))

    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            assert run_spans([partial(work, i) for i in range(16)]) == [work(i) for i in range(16)]
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == before


def test_every_thread_is_joined_before_the_first_error_is_raised():
    finished = []

    def work(i):
        if i % 2:
            raise RuntimeError(f"span {i} failed")
        finished.append(i)

    before = threading.active_count()
    with pytest.raises(RuntimeError, match=r"span \d+ failed"):
        run_spans([partial(work, i) for i in range(8)])
    assert sorted(finished) == [0, 2, 4, 6]
    assert threading.active_count() == before
