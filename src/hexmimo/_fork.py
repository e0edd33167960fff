"""Map a function over jobs on a pool of forked workers, or in process.

Both process pools of a run go through `fork_map`: the sweep.csv writer's
span formatter and the link-level oracle's fixtures.  With two or more
workers it starts a `ProcessPoolExecutor` with the `fork` start method.  The
workers inherit the function and the jobs through the fork, so the function
may be a closure and a job may hold large arrays: only job indices and
results cross the pipes.  Below two workers it calls the function in
process and never imports `multiprocessing`, which would add to every small
run's start-up time and memory.  Both paths give the same results in the
same order.  `available_cpus` is the worker count both pools ask for.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

_task = None  # (fn, jobs), set in each pool worker by `_inherit`


def _inherit(fn, jobs) -> None:
    global _task
    _task = fn, jobs


def _run(index: int):
    fn, jobs = _task
    return fn(*jobs[index])


def available_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    has one (Linux), else every CPU of the machine."""
    getaffinity = getattr(os, "sched_getaffinity", None)  # looked up per call
    return len(getaffinity(0)) if getaffinity else os.cpu_count() or 1


@contextmanager
def fork_map(fn, jobs, workers: int):
    """Yield an iterator over `fn(*job)` for each of `jobs`, in job order,
    computed by at most `workers` forked processes.

    The pool forks its workers on entry, so state the parent builds inside
    the block never reaches them; leaving the block shuts the pool down and
    waits for every worker.  An exception raised by `fn` in a worker is
    raised again, in the parent, when its result is reached.
    """
    jobs = list(jobs)
    workers = min(workers, len(jobs))
    if workers < 2:
        yield (fn(*job) for job in jobs)
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # the fork context hands `initargs` to the workers by inheritance, not
    # by pickling; `map` submits every job, so all workers fork right here
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_inherit, initargs=(fn, jobs)) as executor:
        yield executor.map(_run, range(len(jobs)))
