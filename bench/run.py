"""gaugesim benchmark: time to an oracle-checked result, per workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all ...   # every workload, each in a fresh process

Run from anywhere; the package is imported from ``src/`` of the checkout
that holds this file. BLAS is pinned to one thread before numpy loads. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. Records (environment,
metrics, spans) go to ``bench/out/``. See ``bench/README.md``.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# numpy is first imported inside main(), after this, so OpenBLAS starts with one thread
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# The gated end-to-end metrics. The step-latency median is printed and recorded
# but not gated: on a shared host it flips between a fast and a slow cluster
# from run to run (see README.md).
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "steps_per_s": "1/s",
    "step_ms_p90": "ms",
    "peak_rss_mb": "MB",
}
STEP_QUANTILES = (10, 50, 90)
# per-layer metric = "<span name>.<calls|busy_s|self_s>", summed over one checked body
BODY_LAYERS = (
    "gauge.step.calls",
    "gauge.step.self_s",
    "gauge.rhs.calls",
    "gauge.rhs.self_s",
    "integrate.rk4_step.self_s",
    "lattice.apply_local.calls",
    "lattice.apply_local.busy_s",
    "linalg.polar_unitary.calls",
    "linalg.polar_unitary.busy_s",
    "linalg.unitarity_defect.calls",
    "linalg.unitarity_defect.busy_s",
    "gauge.diagnostics.calls",
    "gauge.diagnostics.busy_s",
    "reference.oracle.calls",
    "reference.oracle.busy_s",
    "linalg.expm_hermitian.calls",
    "linalg.expm_hermitian.busy_s",
    "gauge.apply_commuting_layer.calls",
    "gauge.apply_commuting_layer.busy_s",
    "circuits.audit_lightcone.busy_s",
    "measure.apply_measurement.busy_s",
)
# summed over one set-up (model build, state init, warm-up)
SETUP_LAYERS = ("hamiltonian.build_model.busy_s", "gauge.init_gauge_state.busy_s")
PER_LAYER = {
    **{m: ("count" if m.endswith(".calls") else "s") for m in BODY_LAYERS + SETUP_LAYERS},
    "gauge.state_mb": "MB",
    "trace.overhead_frac": "ratio",
}


def _median(values):
    return statistics.median(values) if values else float("nan")


# ---------------------------------------------------------------------------
# Environment record (read only)
# ---------------------------------------------------------------------------


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def _cache_sizes() -> dict:
    """Unified L2/L3 sizes of cpu0, as the kernel reports them."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = (_read(str(index / "level")) or "").strip()
        size = (_read(str(index / "size")) or "").strip()
        if level in ("2", "3") and size:
            sizes[f"l{level}"] = size
    return sizes


def _cpu_model() -> str:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads_pinned": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "cache": _cache_sizes(),
    }


# ---------------------------------------------------------------------------
# One workload in this process
# ---------------------------------------------------------------------------


def run_bodies(workloads, wl, prep, rng, seconds, checks):
    """Checked bodies for at most about `seconds`: at least one, and no further
    body once the next would likely end past the deadline.

    Returns the bodies that completed and the (start, end) window of every body.
    """
    bodies, windows = [], []
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        try:
            bodies.append(workloads.body(wl, prep, rng, checks))
        except Exception:  # a crashed body is a failed check; keep measuring
            traceback.print_exc()
            checks.attempted += 1
            checks.failed += 1
        now = time.perf_counter()
        windows.append((t0, now))
        if now + (now - t0) > deadline:
            return bodies, windows


def timed_setups(name: str, seed: int, smoke: bool, count: int) -> list[float]:
    """Process start to the end of set-up, once per fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-only"] + (["--smoke"] if smoke else [])
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up process failed (exit {proc.returncode})")
        times.append(ready - t0)
    return times


def step_ms_quantiles(bodies) -> dict:
    """Per-step (per-layer) latency quantiles over every step of the run."""
    import numpy as np

    step_ms = np.array([s for b in bodies for s in b.step_s]) * 1e3
    return {f"step_ms_p{q}": float(v) for q, v in zip(STEP_QUANTILES, np.percentile(step_ms, STEP_QUANTILES))}


def end_to_end(bodies, setup_times) -> dict:
    steps = sum(len(b.step_s) for b in bodies)
    return {
        "setup_s": _median(setup_times),
        # mean, not median, over bodies: it averages over the host's fast and slow phases
        "run_s": statistics.fmean(b.run_s for b in bodies),
        "steps_per_s": steps / sum(b.stepping_s for b in bodies),
        "step_ms_p90": step_ms_quantiles(bodies)["step_ms_p90"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer, setup_window, body_windows, traced, untraced) -> dict:
    out = {}
    summaries = [tracer.summarize(*w) for w in body_windows]
    for metric in BODY_LAYERS:
        span, field = metric.rsplit(".", 1)
        out[metric] = _median([s.get(span, {}).get(field, 0) for s in summaries])
    setup_summary = tracer.summarize(*setup_window)
    for metric in SETUP_LAYERS:
        span, field = metric.rsplit(".", 1)
        out[metric] = setup_summary.get(span, {}).get(field, 0.0)
    out["gauge.state_mb"] = traced[-1].state_mb
    untraced_s = _median([b.run_s for b in untraced])
    out["trace.overhead_frac"] = (_median([b.run_s for b in traced]) - untraced_s) / untraced_s
    return out


def run_workload(wl, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Set up, measure and check one workload in this process; returns the result object."""
    import numpy as np

    import workloads
    from spans import Tracer, installed

    tag = f"{wl.name}{'-smoke' if smoke else ''}-seed{seed}"
    OUT_DIR.mkdir(exist_ok=True)
    checks = workloads.Checks()
    setup_times = [] if trace else timed_setups(wl.name, seed, smoke, wl.setups)
    prep = workloads.setup(wl, np.random.default_rng([seed, 0]))
    rng = np.random.default_rng([seed, 1])
    bodies, _ = run_bodies(workloads, wl, prep, rng, seconds / 2 if trace else seconds, checks)
    env = environment()
    record = {"workload": wl.name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "smoke": smoke, "env": env}
    metrics: dict = {}
    units = PER_LAYER if trace else END_TO_END
    if trace:
        tracer = Tracer()
        with installed(tracer):
            s0 = time.perf_counter()
            traced_prep = workloads.setup(wl, np.random.default_rng([seed, 0]))
            setup_window = (s0, time.perf_counter())
            traced, windows = run_bodies(workloads, wl, traced_prep, rng, seconds / 2, checks)
        if bodies and traced:
            metrics = per_layer(tracer, setup_window, windows, traced, bodies)
        tracer.write(
            str(OUT_DIR / f"{tag}-spans.jsonl"),
            {**record, "setup_window": setup_window, "body_windows": windows},
        )
    elif bodies:
        metrics = end_to_end(bodies, setup_times)

    state_mb = bodies[-1].state_mb if bodies else float("nan")
    record.update(
        state_mb_computed=state_mb,
        checks={"attempted": checks.attempted, "failed": checks.failed, "failures": checks.failures},
        metrics=metrics,
        setup_s=setup_times,
        bodies=[{"run_s": b.run_s, "stepping_s": b.stepping_s, "steps": len(b.step_s)} for b in bodies],
        step_ms_quantiles=step_ms_quantiles(bodies) if bodies else {},
    )
    with open(OUT_DIR / f"{tag}-trace{int(trace)}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {wl.name}  seed {seed}  bodies {len(bodies)}  blas_threads {BLAS_THREADS}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"gauge.state_mb {state_mb:.3f} MB (computed)  L2 {env['cache'].get('l2', '?')}")
    for metric, value in metrics.items():
        print(f"{metric:36s} {value:.6g} {units[metric]}")
    for name, value in record["step_ms_quantiles"].items():
        if name not in metrics:
            print(f"{name:36s} {value:.6g} ms (not gated)")
    fail_frac = checks.failed / checks.attempted if checks.attempted else 1.0
    print(f"{'check_fail_frac':36s} {fail_frac:.6g} ratio ({checks.failed} of {checks.attempted})")
    for failure in checks.failures:
        print(f"FAILED CHECK: {failure}", file=sys.stderr)
    return {
        "correct": checks.failed == 0 and checks.attempted > 0 and len(metrics) == len(units),
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: bool, smoke: bool) -> int:
    """Every workload in a fresh process, then one combined result line."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
            + (["--smoke"] if smoke else []),
            stdout=subprocess.PIPE,
            text=True,
            check=False,
        )
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if proc.returncode != 0 or result is None:
            combined["correct"] = False
        if result is None:
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    if not (SRC / "gaugesim" / "__init__.py").is_file():
        print(f"error: no gaugesim sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import gaugesim
    import workloads

    if Path(gaugesim.__file__).resolve().parent != SRC / "gaugesim":
        print(f"error: imported gaugesim from {gaugesim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the workload at its n=3-4 smoke size (self-test)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace), args.smoke)
    wl = workloads.WORKLOADS[args.workload]
    if args.smoke:
        wl = workloads.smoke(wl)
    if args.setup_only:
        import numpy as np

        workloads.setup(wl, np.random.default_rng([args.seed, 0]))
        print("ready", flush=True)
        return 0
    result = run_workload(wl, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
