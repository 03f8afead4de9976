"""Per-call thread fan-out for independent NumPy work.

The Monte Carlo engine splits its rounds over *processes* with
``n_jobs``; inside one process, the level-ordered forest kernel and the
naive vote loop split a chunk's blocks or rounds over *threads*.  Their
NumPy calls release the GIL, and every task writes its own output
slots, so the threads share nothing mutable.

Pools are made per call, never at module level: the estimator's process
pool forks, and a forked child must not inherit a pool's threads.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

MIN_THREAD_WIDTH = 1 << 17
"""Shortest row, in array cells, that a task's NumPy calls must span to
get threads.

Below it a task is many small NumPy calls whose interpreter overhead
holds the GIL, so a second thread only contends: on a 2-CPU Xeon, BA
n = 2000 with 400 rounds took 21.5 → 23.7 ms in the level-ordered
kernel (7 blocks) and 33 → 39–48 ms in the naive vote loop on two
threads.  It equals the kernel's ``LEVEL_BLOCK_CELLS``, so the kernel
threads exactly when one block is one round."""


def _affinity_cpus() -> int:
    """CPUs this process may run on, read now (the mask can change)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity
        return os.cpu_count() or 1


def thread_workers(tasks: int, width: int) -> int:
    """Threads for ``tasks`` independent tasks on rows ``width`` cells long.

    ``min(tasks, CPUs)`` when rows reach :data:`MIN_THREAD_WIDTH`, else
    1.  Inside a worker process (``multiprocessing.parent_process()``
    is set, as in the estimator's ``n_jobs`` pool) the answer is also
    1, so ``n_jobs`` processes never ask for ``n_jobs × CPUs`` threads.
    """
    if (
        tasks < 2
        or width < MIN_THREAD_WIDTH
        or multiprocessing.parent_process() is not None
    ):
        return 1
    return max(1, min(tasks, _affinity_cpus()))


def run_split(fn: Callable[[range], None], tasks: int, width: int) -> None:
    """Run ``fn`` over ``range(tasks)`` on :func:`thread_workers` threads.

    Worker ``t`` of ``w`` calls ``fn(range(t, tasks, w))`` once, so it
    can allocate its buffers once for all its tasks.  With one worker
    this is a plain call on the calling thread.  An exception in any
    worker is raised here after all of them have finished.
    """
    workers = thread_workers(tasks, width)
    if workers == 1:
        fn(range(tasks))
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, range(t, tasks, workers)) for t in range(workers)]
    for future in futures:
        future.result()
