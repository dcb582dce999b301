"""The thread contract of `gauge._each`, the patch-parallel executor.

A generator-mode step is one `_each` job of per-patch tasks, each waiting
only for the tasks it reads, on `gauge._WORKERS` threads: usable cores //
pinned BLAS threads, and 1 when the BLAS thread count is not pinned. A
direct-mode step stays on the calling thread. The results do not depend on
the worker count, bit for bit. Tests set the count by patching `_WORKERS`.
"""

import faulthandler
import functools
import math
import os
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import gaugesim.gauge as gauge_module
from gaugesim.errors import DivergenceError
from gaugesim.gauge import DIRECT, GENERATOR, MODES, IntegratorConfig, evolve, init_gauge_state, step
from gaugesim.hamiltonian import (
    PAULI_X,
    PAULI_Z,
    GeneralizedTerm,
    LocalHamiltonian,
    LocalTerm,
    heisenberg_chain,
    tfim_chain,
)
from gaugesim.lattice import Patch
from gaugesim.linalg import polar_unitary

from _oracles import eager_generator_frames, plus_state, random_state

REPO = Path(__file__).resolve().parent.parent


def _model(mode, n):
    """TFIM for generator mode, Heisenberg for direct mode (the benchmark's pairing)."""
    return tfim_chain(n) if mode == GENERATOR else heisenberg_chain(n)


def _driven_tfim(n):
    """TFIM plus a driven XX bond and a three-factor product of ZZ on distant patches."""
    h = tfim_chain(n)
    zz = np.kron(PAULI_Z, PAULI_Z)
    drive = LocalTerm(Patch((1, 2)), 0.3 * np.kron(PAULI_X, PAULI_X), lambda t: math.cos(3.0 * t))
    far = GeneralizedTerm((Patch((0, 1)), Patch((2, 3)), Patch((n - 2, n - 1))), 0.2, (zz, zz, zz))
    return LocalHamiltonian(h.cover, h.terms + (drive,), [far])


@pytest.mark.parametrize(
    "n, model, every",
    [(4, tfim_chain, 1), (4, tfim_chain, 5), (7, tfim_chain, 1), (7, tfim_chain, 5)]
    + [(7, _driven_tfim, 1), (7, _driven_tfim, 5)]
    + [(8, tfim_chain, 5)],  # one case at n = 8: it takes 12 s
)
def test_generator_frames_match_the_eager_formula_bitwise(monkeypatch, n, model, every):
    h = model(n)
    cfg = IntegratorConfig(dt=1e-3, reunitarize_every=every)
    want = eager_generator_frames(h, 20, cfg.dt, every)
    for workers in (1, 2, 4):
        monkeypatch.setattr(gauge_module, "_WORKERS", workers)
        state = evolve(init_gauge_state(plus_state(n), h.cover), h, 20 * cfg.dt, cfg)
        assert state.steps == 20
        assert np.array_equal(state.frame_stack, want), workers


@pytest.mark.parametrize("n, posts", [(7, [1]), (4, [])])
def test_a_generator_step_posts_one_job(monkeypatch, n, posts):
    h = tfim_chain(n)
    monkeypatch.setattr(gauge_module, "_WORKERS", 2)
    posted = []
    post = gauge_module._Pool.post

    def counted(pool, job, helpers):
        posted.append(helpers)
        post(pool, job, helpers)

    monkeypatch.setattr(gauge_module._Pool, "post", counted)
    cfg = IntegratorConfig(dt=1e-3, reunitarize_every=1)
    state = step(init_gauge_state(plus_state(n), h.cover), h, cfg)
    assert posted == posts
    assert state.steps == 1


def test_a_failed_task_ends_the_job_with_the_lowest_error(monkeypatch, capfd):
    # two driven products raise at their third slope (stage index 2); every
    # task waiting on them must still end, and the lower product's error wins
    n = 7
    h = tfim_chain(n)
    xx = np.kron(PAULI_X, PAULI_X)

    def failing(label):
        calls = []

        def coefficient(t):
            calls.append(t)
            if len(calls) == 3:
                raise ValueError(label)
            return 1.0

        return coefficient

    def driven():  # fresh call counts
        patches = (h.cover.patches[1], h.cover.patches[4])
        terms = tuple(LocalTerm(p, 0.1 * xx, failing(p.sites)) for p in patches)
        return LocalHamiltonian(h.cover, h.terms + terms)

    state = init_gauge_state(plus_state(n), h.cover)
    cfg = IntegratorConfig(dt=1e-3, reunitarize_every=1)
    monkeypatch.setattr(gauge_module, "_WORKERS", 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    with capfd.disabled():  # so that the stacks reach the terminal
        faulthandler.dump_traceback_later(120, exit=True)  # a waiter that hangs ends the run
        try:
            for _ in range(10):
                with pytest.raises(ValueError) as info:
                    step(state, driven(), cfg)
                assert info.value.args == ((1, 2),)
            assert step(state, h, cfg).steps == 1  # the pool still serves the next job
        finally:
            faulthandler.cancel_dump_traceback_later()
            sys.setswitchinterval(interval)


# generator mode: test_generator_frames_match_the_eager_formula_bitwise[8-tfim_chain-5]
@pytest.mark.parametrize("mode", [DIRECT])
def test_one_and_two_workers_agree_bit_for_bit(monkeypatch, mode):
    n = 8
    h = _model(mode, n)
    psi0 = random_state(2**n, np.random.default_rng(8))
    cfg = IntegratorConfig(dt=1e-3, reunitarize_every=5)  # the polar step runs 4 times

    runs = []
    for workers in (1, 2):
        monkeypatch.setattr(gauge_module, "_WORKERS", workers)
        state = init_gauge_state(psi0, h.cover, mode=mode, hamiltonian=h)
        runs.append(evolve(state, h, 20 * cfg.dt, cfg))
    serial, parallel = runs
    assert serial.steps == parallel.steps == 20
    assert np.array_equal(serial.packed, parallel.packed)


def test_unpinned_blas_starts_no_thread():
    probe = (
        "import threading\n"
        "import gaugesim.gauge as g\n"
        "from gaugesim.hamiltonian import heisenberg_chain, tfim_chain\n"
        "assert g._WORKERS == 1, g._WORKERS\n"
        "psi = [0j] * 2**7\n"
        "psi[0] = 1.0\n"
        "cfg = g.IntegratorConfig(dt=1e-3, reunitarize_every=1)\n"
        "for mode, h in ((g.GENERATOR, tfim_chain(7)), (g.DIRECT, heisenberg_chain(7))):\n"
        "    g.step(g.init_gauge_state(psi, h.cover, mode=mode, hamiltonian=h), h, cfg)\n"
        "print(threading.active_count())\n"
    )
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "1"


@pytest.mark.parametrize(
    "environ, workers",
    [
        ({}, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 4),
        ({"OMP_NUM_THREADS": "2"}, 2),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2),
        ({"OPENBLAS_NUM_THREADS": "8"}, 1),
        ({"OPENBLAS_NUM_THREADS": "many"}, 1),
    ],
)
def test_workers_are_cores_over_blas_threads(monkeypatch, environ, workers):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in environ.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    assert gauge_module._default_workers() == workers


def test_direct_mode_steps_on_the_calling_thread(monkeypatch):
    n = 7
    h = heisenberg_chain(n)
    monkeypatch.setattr(gauge_module, "_WORKERS", 2)
    posted = []
    monkeypatch.setattr(gauge_module._Pool, "post", lambda self, job, helpers: posted.append(helpers))
    state = init_gauge_state(plus_state(n), h.cover, mode=DIRECT, hamiltonian=h)
    step(state, h, IntegratorConfig(dt=1e-3, reunitarize_every=1))  # the RHS and the polar step
    assert posted == []


def test_small_matrices_stay_on_the_calling_thread(monkeypatch):
    monkeypatch.setattr(gauge_module, "_WORKERS", 2)
    ran = []
    gauge_module._each(6, lambda i: ran.append((i, threading.get_ident())), gauge_module._PARALLEL_DIM // 2)
    assert ran == [(i, threading.get_ident()) for i in range(6)]


def test_every_index_runs_once_under_contention(monkeypatch):
    monkeypatch.setattr(gauge_module, "_WORKERS", 4)  # likely more threads than cores
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            hits = [0] * 500

            def task(i):
                hits[i] += 1

            gauge_module._each(len(hits), task, gauge_module._PARALLEL_DIM)
            assert hits == [1] * len(hits)  # a lost update of the shared counter repeats or drops one
    finally:
        sys.setswitchinterval(interval)


def test_the_lowest_failing_index_is_raised_after_every_task(monkeypatch):
    monkeypatch.setattr(gauge_module, "_WORKERS", 2)
    ran = set()

    def task(i):
        time.sleep(0.05 if i == 3 else 0.001)  # 5 fails first, then 3
        ran.add(i)
        if i in (5, 3, 9):
            raise ValueError(i)

    for _ in range(5):
        ran.clear()
        with pytest.raises(ValueError) as info:
            gauge_module._each(12, task, gauge_module._PARALLEL_DIM)
        assert info.value.args == (3,)
        assert set(range(4)) <= ran  # every index up to the failure ran


@pytest.mark.parametrize("mode", MODES)
def test_failed_polar_step_raises_the_serial_message(monkeypatch, mode):
    n = 7
    h = _model(mode, n)
    monkeypatch.setattr(gauge_module, "polar_unitary", functools.partial(polar_unitary, max_iter=1))
    cfg = IntegratorConfig(dt=0.3, reunitarize_every=1)
    messages = []
    for workers in (1, 2):
        monkeypatch.setattr(gauge_module, "_WORKERS", workers)
        state = init_gauge_state(plus_state(n), h.cover, mode=mode, hamiltonian=h)
        with pytest.raises(DivergenceError, match="re-unitarization failed") as info:
            step(state, h, cfg)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("mode", MODES)
def test_diverging_step_on_workers_warns_as_little_as_serial(monkeypatch, mode):
    # the workers run under the step's np.errstate(over="ignore", invalid="ignore")
    n = 7
    h = _model(mode, n)
    monkeypatch.setattr(gauge_module, "_WORKERS", 2)
    state = init_gauge_state(plus_state(n), h.cover, mode=mode, hamiltonian=h)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DivergenceError, match="non-finite"):
            step(state, h, IntegratorConfig(dt=1e30, reunitarize_every=0))
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_steps_on_a_pool_of_its_own(monkeypatch):
    n = 7
    h = tfim_chain(n)
    cfg = IntegratorConfig(dt=1e-3, reunitarize_every=1)
    monkeypatch.setattr(gauge_module, "_WORKERS", 2)
    state = step(init_gauge_state(plus_state(n), h.cover), h, cfg)  # the parent's helper is running
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # forking a threaded process
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            step(state, h, cfg)
            code = 0 if threading.active_count() == 2 else 2  # the child started a helper
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("the forked child did not finish its step within 60 s")
        time.sleep(0.05)
    assert os.waitstatus_to_exitcode(status) == 0


def test_helpers_persist_between_calls(monkeypatch):
    monkeypatch.setattr(gauge_module, "_WORKERS", 2)
    gauge_module._each(2, lambda i: None, gauge_module._PARALLEL_DIM)
    before = threading.active_count()
    for _ in range(3):
        gauge_module._each(4, lambda i: None, gauge_module._PARALLEL_DIM)
    assert threading.active_count() == before
