"""One thread per CPU over contiguous spans of independent rows.

The rolling moments and the GBM ensemble both split their rows this way;
numpy releases the interpreter lock in their array loops, so the spans
run in parallel, and each row's bits do not depend on the split.
"""
from __future__ import annotations

import os
import threading
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else every CPU of the machine."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def split_rows(rows: int, min_rows: int) -> list[range]:
    """Contiguous spans covering range(rows): one per CPU the process may
    use, but at most one per min_rows rows, and at least one."""
    workers = max(1, min(_cpu_count(), rows // min_rows))
    bounds = [rows * w // workers for w in range(workers + 1)]
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def run_spans(calls: Sequence[Callable[[], T]]) -> list[T]:
    """Run calls at once, the first on the caller's thread and each other
    on a thread of its own; their results in order.

    Every thread is joined before this returns or raises. An error on the
    caller's thread propagates; otherwise the first error a thread raised
    is re-raised here.
    """
    results: list = [None] * len(calls)
    errors: list[BaseException] = []

    def run(i: int) -> None:
        try:
            results[i] = calls[i]()
        except BaseException as exc:  # re-raised on the caller's thread below
            errors.append(exc)

    threads: list[threading.Thread] = []
    try:
        for i in range(1, len(calls)):
            thread = threading.Thread(target=run, args=(i,))
            thread.start()
            threads.append(thread)
        results[0] = calls[0]()
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return results
