"""Seconds-long self-test of the benchmark, at n=3-4.

    python3 bench/selftest.py

Checks that BENCHMARK.json names exactly the workloads and metrics that
run.py emits; that every workload at its smoke size passes its checks and
emits every named metric, untraced and traced; and that the tracing wrappers
leave the checked outputs bit-for-bit unchanged and are removed afterwards.
Exits 1 and lists the failures if any check fails.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402  (pins BLAS before numpy loads)
import workloads  # noqa: E402
from spans import Tracer, installed  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def check_manifest() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect(
        [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
        "BENCHMARK.json lists the workloads run.py accepts",
    )
    expect(
        {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
        "BENCHMARK.json end_to_end matches run.END_TO_END",
    )
    expect(
        {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER,
        "BENCHMARK.json per_layer matches run.PER_LAYER",
    )


def check_emitted(name: str, trace: int) -> None:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--smoke",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        expect(False, f"{name} --trace {trace}: no result line (exit {proc.returncode})\n{proc.stderr}")
        return
    units = run.PER_LAYER if trace else run.END_TO_END
    expect(proc.returncode == 0 and result["correct"] and result["failed"] == 0,
           f"{name} --trace {trace}: exit 0, {result['attempted']} checks, none failed")
    expect(set(result["metrics"]) == set(units)
           and all(result["metrics"][m]["unit"] == u for m, u in units.items()),
           f"{name} --trace {trace}: every named metric emitted with its unit")
    if not trace:
        expect(all(v["value"] > 0 for v in result["metrics"].values()),
               f"{name}: every end-to-end metric is positive")


def check_wrappers_transparent() -> None:
    import numpy as np

    import gaugesim.gauge

    original_step = gaugesim.gauge.step
    for wl in workloads.WORKLOADS.values():
        small = workloads.smoke(wl)
        prep = workloads.setup(small, np.random.default_rng([5, 0]))
        plain = workloads.body(small, prep, np.random.default_rng([5, 1]), workloads.Checks())
        tracer = Tracer()
        with installed(tracer):
            traced = workloads.body(small, prep, np.random.default_rng([5, 1]), workloads.Checks())
        expect(plain.values == traced.values and len(plain.values) > 0,
               f"{wl.name} smoke: traced outputs identical ({len(plain.values)} values)")
        expect(len(tracer.spans) > 0, f"{wl.name} smoke: wrappers recorded {len(tracer.spans)} spans")
    expect(gaugesim.gauge.step is original_step, "wrappers removed after tracing")


def main() -> int:
    check_manifest()
    check_wrappers_transparent()
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            check_emitted(name, trace)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
