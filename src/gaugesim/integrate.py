"""Fixed-step RK4 on one complex array, and the step grid it walks."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ContractError

Deriv = Callable[[float, np.ndarray, np.ndarray], None]


def rk4_step(y: np.ndarray, t: float, dt: float, deriv: Deriv) -> np.ndarray:
    """One classical Runge-Kutta step for y' = f(t, y); returns a fresh array.

    `deriv(t, y, out)` writes f(t, y) into `out` and must overwrite every
    element. The step works in one (3,) + y.shape scratch block holding the
    running sum, the stage input and the slope, and sums the slopes in place
    as k1 + 2 k2 + 2 k3 + k4, in that order. `y` is never written.
    """
    acc, stage, k = np.empty((3,) + y.shape, dtype=y.dtype)
    deriv(t, y, k)
    np.copyto(acc, k)
    stages = ((0.5 * dt, t + 0.5 * dt), (0.5 * dt, t + 0.5 * dt), (dt, t + dt))
    for m, (h, t_stage) in enumerate(stages):
        np.multiply(k, h, out=stage)  # y + h k from the slope just computed
        stage += y
        if m:  # k2 and k3 enter the sum twice
            k *= 2.0
            acc += k
        deriv(t_stage, stage, k)
    acc += k
    out = (dt / 6.0) * acc
    out += y
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
