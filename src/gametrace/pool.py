"""One fork pool: run independent tasks on every usable CPU, results in task order.

There is no setting: the pool has one worker per usable CPU (never more
than there are tasks) and runs only where the ``fork`` start method exists.
A forked worker inherits the function and everything it reads without
pickling; a task and its result are pickled. A task that fails in a worker,
and every task left when the pool breaks, is computed again in the calling
process, so a failure raises there exactly as it would in a serial run.
"""

from __future__ import annotations

import os
from collections import deque
from typing import Callable, Iterator, Optional, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# The function a forked worker runs, set by ``_start_worker`` in the worker.
_worker_fn: Optional[Callable] = None


def _start_worker(fn: Callable) -> None:
    global _worker_fn
    _worker_fn = fn


def _worker_task(task):
    # A failure comes back as a flag, not as the exception, which may not
    # survive pickling; the parent then computes the task itself.
    try:
        return True, _worker_fn(task)
    except Exception:
        return False, None


def fork_workers() -> int:
    """The workers ``fork_map`` runs on, given as many tasks: the usable
    CPUs, or 1 (no pool) where there is one or no ``fork`` start method."""
    cpus = usable_cpus()
    if cpus < 2:
        return 1
    # Imported here, so that a command that runs no pool does not pay for it.
    import multiprocessing

    return cpus if "fork" in multiprocessing.get_all_start_methods() else 1


def fork_map(fn: Callable[[T], R], tasks: Sequence[T]) -> Iterator[R]:
    """``fn(task)`` for each task, yielded in task order.

    Tasks run in forked workers when ``fork_workers()`` and the number of
    tasks are both at least two; otherwise each runs here as it is consumed.
    At most two tasks per worker are in flight ahead of the consumer, so a
    caller that writes each result as it comes holds only a few of them.
    Closing the iterator early shuts the pool down.
    """
    workers = min(fork_workers(), len(tasks)) if len(tasks) > 1 else 1
    if workers < 2:
        return (fn(task) for task in tasks)
    import multiprocessing

    return _in_pool(fn, tasks, workers, multiprocessing.get_context("fork"))


def _in_pool(fn: Callable[[T], R], tasks: Sequence[T], workers: int, context) -> Iterator[R]:
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # fork, not spawn: a spawned worker would import the package again and
    # need its inputs pickled. The pool forks all its workers at the first
    # submit, before it starts its own thread, and this process starts none.
    pool = ProcessPoolExecutor(workers, mp_context=context, initializer=_start_worker, initargs=(fn,))
    pending: deque = deque()
    waiting = iter(tasks)
    try:
        for task in waiting:
            try:
                pending.append((task, pool.submit(_worker_task, task)))
            except (BrokenProcessPool, OSError):  # a worker died, or could not be forked
                pending.append((task, None))
                break
            if len(pending) < 2 * workers:
                continue
            yield _result(fn, *pending.popleft())
        while pending:
            yield _result(fn, *pending.popleft())
        for task in waiting:  # left unsubmitted by a broken pool
            yield fn(task)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _result(fn: Callable[[T], R], task: T, future) -> R:
    if future is not None:
        try:
            done, value = future.result()
        except Exception:  # the pool broke, or the result did not pickle
            done = False
        if done:
            return value
    return fn(task)
