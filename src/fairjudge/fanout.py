"""One in-order map over forked worker processes, for the row-proportional stages of ``analyze``.

Fork, not spawn: a spawned worker would import numpy and scipy again
(about half a second each) and would need the corpus and the prediction
table pickled to it. ``analyze`` starts no thread of its own before it
forks, and OpenBLAS stops its worker threads before a fork (an atfork
handler) and starts them again on use.
"""

from __future__ import annotations

import os
import signal
from typing import Callable, Iterator, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

_task: tuple = ()  # (fn, items) of the running fan_out; forked workers inherit it


def _call(i: int):
    fn, items = _task
    return fn(items[i])


def fan_out(fn: Callable[[T], R], items: Sequence[T]) -> Iterator[R]:
    """Yield ``fn(item)`` for each item in order, computed on forked worker processes.

    There is one worker per usable CPU, capped by the number of items. ``fn``
    and ``items`` reach the workers through fork, not pickling, so ``fn`` may
    be a closure over a corpus or a table; only the results travel back. With
    one worker, or where fork is unavailable, every call runs in this process.
    Items are yielded in order, and the first failing item's exception is
    raised after the items before it, so results, messages and exit codes do
    not depend on the worker count. A worker that dies raises
    ``BrokenProcessPool`` instead of hanging.
    """
    global _task
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(len(items), cpus)
    if workers > 1:
        import multiprocessing
        from concurrent.futures.process import ProcessPoolExecutor

        if "fork" not in multiprocessing.get_all_start_methods():
            workers = 1
    if workers <= 1:
        yield from map(fn, items)
        return
    _task = fn, items
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        # map forks every worker and submits every item. SIGINT stays blocked
        # meanwhile: an interrupt inside the pool's start-up would leave forked
        # workers that no one shuts down. The workers keep it blocked, so a
        # Ctrl-C interrupts only this process, which then waits for the running
        # items and cancels the rest.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            results = pool.map(_call, range(len(items)))
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        yield from results
    finally:
        _task = ()
        pool.shutdown(cancel_futures=True)
