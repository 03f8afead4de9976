"""Tests for repro._util.threads: how many threads, and the split."""

from concurrent.futures import ProcessPoolExecutor

import pytest

import repro._util.threads as threads
from repro._util.threads import MIN_THREAD_WIDTH, run_split, thread_workers

WIDE = MIN_THREAD_WIDTH


class TestThreadWorkers:
    @pytest.mark.parametrize("cpus", [1, 2, 3, 64])
    @pytest.mark.parametrize("tasks", [0, 1, 2, 5, 100])
    def test_never_more_than_tasks_or_cpus(self, monkeypatch, cpus, tasks):
        monkeypatch.setattr(threads, "_affinity_cpus", lambda: cpus)
        workers = thread_workers(tasks, WIDE)
        assert workers == max(1, min(tasks, cpus))

    def test_cpus_are_read_at_call_time(self, monkeypatch):
        monkeypatch.setattr(threads, "_affinity_cpus", lambda: 2)
        assert thread_workers(8, WIDE) == 2
        monkeypatch.setattr(threads, "_affinity_cpus", lambda: 4)
        assert thread_workers(8, WIDE) == 4

    def test_narrow_rows_stay_on_one_thread(self, monkeypatch):
        monkeypatch.setattr(threads, "_affinity_cpus", lambda: 4)
        assert thread_workers(8, WIDE - 1) == 1
        assert thread_workers(8, WIDE) == 4

    def test_worker_process_takes_one_thread(self, monkeypatch):
        """Under ``n_jobs`` every process-pool worker runs one thread."""
        monkeypatch.setattr(threads, "_affinity_cpus", lambda: 64)
        monkeypatch.setattr(threads.multiprocessing, "parent_process", lambda: object())
        assert thread_workers(64, WIDE) == 1

    def test_real_pool_worker_takes_one_thread(self):
        with ProcessPoolExecutor(max_workers=1) as pool:
            assert pool.submit(thread_workers, 64, WIDE).result() == 1


class TestRunSplit:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("tasks", [0, 1, 2, 7])
    def test_every_task_runs_once(self, monkeypatch, workers, tasks):
        monkeypatch.setattr(threads, "thread_workers", lambda t, w: max(1, min(t, workers)))
        seen = []
        run_split(lambda part: seen.extend(part), tasks, WIDE)
        assert sorted(seen) == list(range(tasks))

    def test_worker_error_is_raised_after_the_join(self, monkeypatch):
        monkeypatch.setattr(threads, "thread_workers", lambda t, w: 2)
        done = []

        def fn(part):
            if 0 in part:
                raise RuntimeError("boom")
            done.extend(part)

        with pytest.raises(RuntimeError, match="boom"):
            run_split(fn, 4, WIDE)
        assert done == [1, 3]
