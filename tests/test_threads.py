"""The thread contract of `gauge._each`, the patch-parallel executor.

An RK4 step, in either mode, is one `_each` job of per-patch (and, in
direct mode, per-link) tasks, each waiting only for the tasks it reads, on
`gauge._WORKERS` threads: usable cores // pinned BLAS threads, and 1 when
the BLAS thread count is not pinned. The results do not depend on the
worker count, bit for bit. Tests set the count by patching `_WORKERS`.
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
from hypothesis import given, settings
from hypothesis import strategies as st

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
from gaugesim.lattice import Patch, PatchCover
from gaugesim.linalg import polar_unitary

from _oracles import eager_direct_packed, eager_generator_frames, plus_state, random_state

REPO = Path(__file__).resolve().parent.parent


def _model(mode, n):
    """TFIM for generator mode, Heisenberg for direct mode (the benchmark's pairing)."""
    return tfim_chain(n) if mode == GENERATOR else heisenberg_chain(n)


def _driven(h):
    """h plus a driven XX bond and a three-factor product of ZZ on distant patches
    (in direct mode the product links patches that do not overlap)."""
    n = h.n_sites
    zz = np.kron(PAULI_Z, PAULI_Z)
    drive = LocalTerm(Patch((1, 2)), 0.3 * np.kron(PAULI_X, PAULI_X), lambda t: math.cos(3.0 * t))
    far = GeneralizedTerm((Patch((0, 1)), Patch((2, 3)), Patch((n - 2, n - 1))), 0.2, (zz, zz, zz))
    return LocalHamiltonian(h.cover, h.terms + (drive,), [far])


def _driven_tfim(n):
    return _driven(tfim_chain(n))


def _driven_heisenberg(n):
    return _driven(heisenberg_chain(n))


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


@pytest.mark.parametrize(
    "n, model, every, renormalize, steps",
    [(4, heisenberg_chain, 1, False, 20), (4, heisenberg_chain, 5, False, 20)]
    + [(7, heisenberg_chain, 1, False, 10), (7, heisenberg_chain, 5, False, 10)]
    + [(7, _driven_heisenberg, 1, False, 10), (7, _driven_heisenberg, 5, False, 10)]
    + [(7, heisenberg_chain, 5, True, 10)]
    + [(8, heisenberg_chain, 5, False, 5)],  # one case at n = 8: it takes 6 s
)
def test_direct_packed_matches_the_eager_formula_bitwise(monkeypatch, n, model, every, renormalize, steps):
    h = model(n)
    psi0 = random_state(2**n, np.random.default_rng(n))
    cfg = IntegratorConfig(dt=1e-3, reunitarize_every=every, renormalize=renormalize)
    want = eager_direct_packed(h, psi0, steps, cfg.dt, every, renormalize)
    for workers in (1, 2, 4):
        monkeypatch.setattr(gauge_module, "_WORKERS", workers)
        state = init_gauge_state(psi0, h.cover, mode=DIRECT, hamiltonian=h)
        state = evolve(state, h, steps * cfg.dt, cfg)
        assert state.steps == steps
        assert np.array_equal(state.packed, want), workers


@pytest.mark.parametrize("n, posts", [(7, [1]), (4, [])])
@pytest.mark.parametrize("mode", MODES)
def test_a_step_posts_one_job(monkeypatch, mode, n, posts):
    h = _model(mode, n)
    monkeypatch.setattr(gauge_module, "_WORKERS", 2)
    posted = []
    post = gauge_module._Pool.post

    def counted(pool, job, helpers):
        posted.append(helpers)
        post(pool, job, helpers)

    monkeypatch.setattr(gauge_module._Pool, "post", counted)
    cfg = IntegratorConfig(dt=1e-3, reunitarize_every=1)  # the slopes and the polar step
    state = step(init_gauge_state(plus_state(n), h.cover, mode=mode, hamiltonian=h), h, cfg)
    assert posted == posts
    assert state.steps == 1


@pytest.mark.parametrize("mode", MODES)
def test_a_failed_task_ends_the_job_with_the_lowest_error(monkeypatch, capfd, mode):
    # two driven products raise from their third coefficient call on: in
    # generator mode at their third slope (stage index 2), in direct mode at
    # the first, where each of the three patches a product touches calls it
    # once. Every task waiting on them must still end, and the lower
    # product's error wins
    n = 7
    h = _model(mode, n)
    xx = np.kron(PAULI_X, PAULI_X)

    def failing(label):
        lock, calls = threading.Lock(), [0]

        def coefficient(t):
            with lock:  # direct-mode patch tasks call it from several threads
                calls[0] += 1
                late = calls[0] >= 3
            if late:
                raise ValueError(label)
            return 1.0

        return coefficient

    def driven():  # fresh call counts
        patches = (h.cover.patches[1], h.cover.patches[4])
        terms = tuple(LocalTerm(p, 0.1 * xx, failing(p.sites)) for p in patches)
        return LocalHamiltonian(h.cover, h.terms + terms)

    state = init_gauge_state(plus_state(n), h.cover, mode=mode, hamiltonian=h)
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


@st.composite
def _plans(draw):
    """A step plan on a cover of up to 6 patches (a partition of the chain plus
    random, possibly gapped, patches) with random plain and generalized
    terms, and the stored keys: the plan's, plus random extra pairs."""
    n = draw(st.integers(1, 5))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1))) if n > 1 else []
    blocks = [tuple(range(a, b)) for a, b in zip([0] + cuts, cuts + [n])]
    extra = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1, max_size=3), max_size=6))
    sites = list(dict.fromkeys(blocks + [tuple(sorted(e)) for e in extra]))[:6]
    cover = PatchCover(n, sites + [(s,) for s in range(n) if not any(s in p for p in sites)])
    patches, count = cover.patches, len(cover)
    index = st.integers(0, count - 1)
    terms = [
        LocalTerm(patches[i], np.eye(patches[i].dim), (lambda t: 1.0) if driven else None)
        for i, driven in draw(st.lists(st.tuples(index, st.booleans()), max_size=6))
    ]
    gen_terms = [
        GeneralizedTerm([patches[i] for i in placed], 1.0, [np.eye(patches[i].dim) for i in placed])
        for placed in draw(st.lists(st.lists(index, min_size=1, max_size=3, unique=True), max_size=3))
    ]
    plan = LocalHamiltonian(cover, terms, gen_terms).step_plan(cover)
    pairs = st.tuples(index, index).filter(lambda p: p[0] < p[1])
    keys = tuple(sorted(set(plan.connection_keys) | (draw(st.sets(pairs, max_size=3)) if count > 1 else set())))
    return plan, keys


def _generator_tasks(plan):
    """(reads, writes) of each task of `_rk4_frames`'s job, in index order."""
    tasks = []
    for s in range(4):
        for q, placed in enumerate(plan.products):
            tasks.append(({("x", j) for j, _ in placed} if s else set(), {("product", q)}))
        for i, near in enumerate(plan.touching):
            reads = {("product", q) for q in near} | ({("x", i), ("acc", i)} if s else set())
            tasks.append((reads, {("acc", i)} | ({("x", i)} if s < 3 else set())))
    return tasks


def _direct_tasks(plan, keys):
    """(reads, writes) of each task of a direct-mode step's job, in index order.
    Patch i reads the stored connection of each pair (i, j), j a factor patch
    of a product touching i; a link (i, j) reads h_I and h_J."""
    tasks = []
    for s in range(4):
        for i, near in enumerate(plan.touching):
            conns = {("x", tuple(sorted((i, j)))) for q in near for j, _ in plan.products[q] if j != i}
            reads = conns | {("x", i), ("acc", i)} if s else set()
            tasks.append((reads, {("h", i), ("k", i), ("acc", i)} | ({("x", i)} if s < 3 else set())))
        for i, j in keys:
            reads = {("h", i), ("h", j)} | ({("x", (i, j)), ("acc", (i, j))} if s else set())
            writes = {("k", (i, j)), ("acc", (i, j))} | ({("x", (i, j))} if s < 3 else set())
            tasks.append((reads, writes))
    return tasks


def _assert_ordered(tasks, waits):
    """Every waits(b) is below b, and every two tasks that touch one slot, one of
    them writing it, are ordered by the transitive closure of the waits."""
    after: list[set[int]] = []  # the tasks each task runs after
    for b, (reads, writes) in enumerate(tasks):
        direct = list(waits(b))
        assert all(a < b for a in direct), (b, direct)
        after.append(set(direct).union(*(after[a] for a in direct)))
        for a, (reads_a, writes_a) in enumerate(tasks[:b]):
            if writes_a & (reads | writes) or reads_a & writes:
                assert a in after[b], (a, b, tasks[a], tasks[b])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_plans())
def test_the_step_waits_order_every_conflicting_pair_of_tasks(drawn):
    plan, keys = drawn
    _assert_ordered(_generator_tasks(plan), gauge_module._rk4_waits(plan.touching, len(plan.products)))
    _assert_ordered(_direct_tasks(plan, keys), gauge_module._direct_waits(len(plan.patches), keys))


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
