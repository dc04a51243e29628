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
from typing import Callable, Optional, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

_task: tuple = ()  # (fn, items) of the running fan_out; forked workers inherit it


def _call(i: int):
    fn, items = _task
    return fn(items[i])


def fan_out(
    fn: Callable[[T], R], items: Sequence[T], meanwhile: Optional[Callable[[], object]] = None
) -> list[R]:
    """``fn(item)`` for each item, in order, computed on forked worker processes where two things run at once.

    There is one worker per usable CPU, capped by the number of items. ``fn``
    and ``items`` reach the workers through fork, not pickling, so ``fn`` may
    be a closure over a corpus or a table; only the results travel back. Where
    nothing would run beside them (one usable CPU, no item, or one item and no
    ``meanwhile``), or where ``os.sched_getaffinity`` is missing (macOS,
    Windows), every call runs in this process. Results are taken in item
    order, and the first failing item's exception is raised, so results,
    messages and exit codes do not depend on the worker count. A worker
    that dies raises ``BrokenProcessPool`` instead of hanging. Call it from
    the main thread, which takes SIGINT.

    ``meanwhile`` runs in this process while the workers compute, beside a
    lone item as well as many: after every item is submitted and before the
    first result is taken (first of all, where the items run here). Its error
    is raised before any item's, and a SIGINT is held while it runs, so an
    interrupt is taken only where it would be taken without it.
    """
    global _task
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    in_process = cpus <= 1 or not items or (len(items) == 1 and meanwhile is None)  # nothing would run beside the items
    meanwhile = meanwhile or (lambda: None)
    if in_process:
        meanwhile()
        return list(map(fn, items))
    import multiprocessing
    from concurrent.futures.process import ProcessPoolExecutor

    _task = fn, items
    pool = ProcessPoolExecutor(min(len(items), cpus), mp_context=multiprocessing.get_context("fork"))
    try:
        # map forks every worker and submits every item. A SIGINT is held
        # until meanwhile has returned: one taken inside the pool's start-up
        # leaves a forked worker that no one shuts down (and that exit then
        # waits for), and holding it over meanwhile leaves one place for it to
        # land, as without meanwhile. Blocking it in this thread is not
        # enough: a thread that does not block it (one that a host program
        # started before it imported fairjudge, which pins BLAS to one thread)
        # takes it, and Python raises it here all the same; so the handler
        # only records it until then. The workers are forked with it blocked
        # and keep it so: a Ctrl-C interrupts only this process, which then
        # waits for the running items and cancels the rest.
        held = []
        handler = signal.signal(signal.SIGINT, lambda signum, frame: held.append(signum))
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            results = pool.map(_call, range(len(items)))
            meanwhile()
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            signal.signal(signal.SIGINT, handler)
            if held:
                signal.raise_signal(signal.SIGINT)
        return list(results)
    finally:
        _task = ()
        pool.shutdown(cancel_futures=True)
