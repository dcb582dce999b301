"""Fixed-step RK4 on one complex array, the step grid it walks, and the job runner.

`rk4_step` steps one array serially. An engine step (`gauge`) is one
`_rk4_job` instead: its tasks fold their slopes into their own slices
(`rk4_update`), on up to `_WORKERS` threads of one `_each` job.
"""

from __future__ import annotations

import collections
import contextvars
import functools
import os
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, DivergenceError

Deriv = Callable[[float, np.ndarray, np.ndarray], None]


def rk4_times(t: float, dt: float) -> tuple[float, float, float, float]:
    """The times of the four slopes of a step of dt from t."""
    return t, t + 0.5 * dt, t + 0.5 * dt, t + dt


def rk4_update(
    s: int,
    dt: float,
    y: np.ndarray,
    acc: np.ndarray,
    x: np.ndarray,
    k: np.ndarray,
    out: np.ndarray | None = None,
) -> None:
    """Fold slope s (0-3) of a step of dt from y, held in k, into the step.

    The slopes enter the running sum `acc` as k1 + 2 k2 + 2 k3 + k4, in that
    order (k is doubled in place for the middle two), and each but the last
    sets the next slope's input x = y + h k. The last writes the new value
    y + dt/6 acc into `out`, or into `acc` itself. The arithmetic is
    elementwise, so the arguments may be any one slice of the step's arrays,
    the same bits either way.
    """
    if s == 3:
        acc += k
        out = acc if out is None else out
        np.multiply(dt / 6.0, acc, out=out)
        out += y
        return
    np.multiply(k, dt if s == 2 else 0.5 * dt, out=x)
    x += y
    if s == 0:
        np.copyto(acc, k)
    else:
        k *= 2.0
        acc += k


def rk4_step(y: np.ndarray, t: float, dt: float, deriv: Deriv) -> np.ndarray:
    """One classical Runge-Kutta step for y' = f(t, y); returns a fresh array.

    `deriv(t, y, out)` writes f(t, y) into `out` and must overwrite every
    element. The step works in one (3,) + y.shape scratch block holding the
    running sum, the stage input and the slope (see `rk4_update`), and
    allocates the result after the last slope. `y` is never written.
    """
    acc, x, k = np.empty((3,) + y.shape, dtype=y.dtype)
    for s, t_stage in enumerate(rk4_times(t, dt)):
        deriv(t_stage, x if s else y, k)
        out = np.empty_like(y) if s == 3 else None
        rk4_update(s, dt, y, acc, x, k, out)
    return out


def time_grid(t_start: float, t_end: float, dt: float) -> list[float]:
    """Step sizes covering [t_start, t_end] with a shortened final step if needed."""
    if not dt > 0:
        raise ContractError(f"dt must be positive, got {dt}")
    if not (np.isfinite(t_start) and np.isfinite(t_end)):
        raise ContractError(f"times must be finite, got {t_start} -> {t_end}")
    span = t_end - t_start
    if span < 0:
        raise ContractError(f"t_end {t_end} is before t_start {t_start}")
    n_full = int(np.floor(span / dt + 1e-9))
    steps = [dt] * n_full
    rest = span - n_full * dt
    if rest > 1e-12:
        steps.append(rest)
    return steps


# ---------------------------------------------------------------------------
# Patch-parallel executor and the RK4 job
# ---------------------------------------------------------------------------


def _default_workers() -> int:
    """Usable cores // BLAS threads, or 1 where the BLAS thread count is not pinned.

    OpenBLAS reads OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS. With neither
    set it may use every core itself, and workers on top of it oversubscribe
    them: on a 2-core VM a TFIM n = 7 step took 42 ms with 2-thread BLAS and
    2 workers, against 31 ms with 2-thread BLAS alone.
    """
    value = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    try:
        blas = int(value)
    except (TypeError, ValueError):
        return 1
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, cores // blas) if blas > 0 else 1


_WORKERS = _default_workers()  # threads sharing one `_each` call, the caller included
# A step on smaller matrices stays on the calling thread, where handing its
# tasks out costs more than it saves: on a 2-core VM with one BLAS thread, a
# TFIM step with 2 workers ran at 1.63x of serial speed at D = 128, 0.80x at
# D = 64 and 0.31x at D = 32.
_PARALLEL_DIM = 128


class _Job:
    """The tasks of one `_each` call, pulled by index from one shared counter.

    Task i first waits for the tasks `waits(i)` names, all below i, so the
    lowest task pulled but not ended can always run and the job cannot stall.
    A task that fails or is skipped ends like one that ran.
    """

    def __init__(self, count: int, task: Callable[[int], None], waits: Callable[[int], Iterable[int]]):
        self.count, self.task, self.waits = count, task, waits
        self.lock = threading.Lock()
        self.pulled = 0  # the next index to hand out
        self.lowest = count  # the lowest failing index so far, and its error
        self.error: BaseException | None = None
        self.running = [threading.Lock() for _ in range(count)]  # each held until its task ends
        for lock in self.running:
            lock.acquire()

    def pull(self) -> None:
        """Run tasks until every index is handed out, skipping any past the lowest failure."""
        while True:
            with self.lock:
                i = self.pulled
                self.pulled += 1
            if i >= self.count:
                return
            try:
                for j in self.waits(i):
                    with self.running[j]:  # taken once task j has ended (an Event costs more)
                        pass
                if i < self.lowest:  # read after the waits: a failed dependency is seen
                    self.task(i)
            except BaseException as exc:  # re-raised by the caller once all have finished
                with self.lock:
                    if i < self.lowest:
                        self.lowest, self.error = i, exc
            self.running[i].release()


class _Pool:
    """Daemon threads serving `_Job`s from one queue, started when first needed."""

    def __init__(self):
        self.jobs: collections.deque[Callable[[], None]] = collections.deque()
        self.ready = threading.Semaphore(0)  # one release per queued job
        self.threads = 0
        self.lock = threading.Lock()

    def post(self, job: _Job, helpers: int) -> None:
        """Hand job to `helpers` threads, each under a copy of the caller's context
        (numpy's error state lives there)."""
        with self.lock:
            while self.threads < helpers:
                threading.Thread(target=self._serve, daemon=True).start()
                self.threads += 1
        for _ in range(helpers):
            self.jobs.append(functools.partial(contextvars.copy_context().run, job.pull))
        self.ready.release(helpers)

    def _serve(self) -> None:
        while self.ready.acquire():  # holds no job between jobs, so none keeps a step's arrays alive
            self.jobs.popleft()()


_pool = _Pool()


def _forget_pool() -> None:
    """A forked child has none of its parent's threads: give it a pool of its own."""
    global _pool
    _pool = _Pool()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _each(count: int, task: Callable[[int], None], waits: Callable[[int], Iterable[int]]) -> None:
    """task(i) for every i in range(count), on up to `_WORKERS` threads.

    Each task writes only slots of its own, and task i reads only what the
    tasks waits(i), all below i, wrote. The calling thread and the pool's
    helpers pull indices from one counter, so a slow task holds up only the
    tasks that read it. When `_WORKERS` is 1 every task runs here in index
    order, which meets every wait. If tasks fail, the rest still finish
    (those past a failed index, or waiting on a failed task, may be
    skipped), and the error of the lowest failing index is raised, as in
    the serial order.
    """
    workers = min(_WORKERS, count)
    if workers <= 1:
        for i in range(count):
            task(i)
        return
    job = _Job(count, task, waits)
    _pool.post(job, workers - 1)
    job.pull()
    for lock in job.running:  # every index is pulled by now; wait until each has ended
        with lock:
            pass
    job.task = None  # a helper yet to take the job from the queue finds nothing to run
    if job.error is not None:
        raise job.error


def _rk4_job(
    y: np.ndarray, scratch: Sequence[np.ndarray], t: float, dt: float, steps: int,
    groups: Sequence[tuple[int, Callable]], waits: Callable[[], tuple[Sequence, Sequence]],
    finish: Callable[[slice, np.ndarray], None],
) -> np.ndarray:
    """Step `steps` (the new count), of dt from y at time t, as one `_each` job;
    returns the new array, scratch being the stage input x and the slopes k.

    Per stage s it runs each group's tasks task(s, r), r < size, in order;
    a task reads the stage input (y at s = 0, else x) and returns rows of y
    and their slope, or None. The job folds the slope into those rows
    (`rk4_update`) and at the last stage checks that their new values are
    finite (DivergenceError if not) and calls finish(rows, new values).
    waits() gives the job's wait rule as `_stage_waits`'s (now, before).
    Every task runs with numpy's overflow and invalid warnings off: the
    finite check reports a diverging step. Where D < `_PARALLEL_DIM` the job
    runs in order here, with no waits, and folds each stage's slopes k into
    the whole array at once.
    """
    x, k = scratch
    new = np.empty_like(y)  # the running sum, then the new values: not a view into the scratch

    def close(rows: slice) -> None:
        if not np.all(np.isfinite(new[rows])):
            raise DivergenceError(
                f"integration diverged (non-finite values at t={t + dt:.6g}, "
                f"step {steps}); reduce dt"
            )
        finish(rows, new[rows])

    with np.errstate(invalid="ignore", over="ignore"):
        if y.shape[-1] < _PARALLEL_DIM:  # without a call per task to dispatch it
            for s in range(4):
                for size, task in groups:
                    for r in range(size):
                        task(s, r)
                rk4_update(s, dt, y, new, x, k)
            close(slice(None))
            return new
        where = [(task, r) for size, task in groups for r in range(size)]

        def run(index: int) -> None:
            s, r = divmod(index, len(where))
            task, r = where[r]
            done = task(s, r)
            if done is not None:
                rows, slope = done
                rk4_update(s, dt, y[rows], new[rows], x[rows], slope)
                if s == 3:
                    close(rows)

        _each(4 * len(where), run, _stage_waits(*waits()))
    return new


def _stage_waits(now: Sequence[Sequence[int]], before: Sequence[Sequence[int]]) -> Callable:
    """The waits of `_rk4_job`'s tasks, len(now) per RK4 stage: task r of stage s waits for
    tasks now[r] of stage s and, from s = 1, tasks before[r] of stage s - 1."""
    width = len(now)

    def waits(index: int) -> list[int]:
        s, r = divmod(index, width)
        return [s * width + q for q in now[r]] + ([(s - 1) * width + q for q in before[r]] if s else [])

    return waits
