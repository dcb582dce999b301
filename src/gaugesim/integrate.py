"""Fixed-step RK4 on lists of complex arrays."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ContractError

Deriv = Callable[[float, list[np.ndarray]], list[np.ndarray]]


def rk4_step(y: Sequence[np.ndarray], t: float, dt: float, deriv: Deriv) -> list[np.ndarray]:
    """One classical Runge-Kutta step for y' = deriv(t, y).

    The slopes are summed in place as k1 + 2 k2 + 2 k3 + k4, in that order,
    and each is dropped once used: while `deriv` runs, only y, the running
    sum and the stage input are held here.
    """
    y = list(y)
    k1 = deriv(t, y)
    k2 = deriv(t + 0.5 * dt, _shifted(y, 0.5 * dt, k1))
    acc = [2.0 * b for b in k2]
    for s, b in zip(acc, k1):
        s += b
    del k1
    stage = _shifted(y, 0.5 * dt, k2)
    del k2
    k3 = deriv(t + 0.5 * dt, stage)
    for s, b in zip(acc, k3):
        s += 2.0 * b
    stage = _shifted(y, dt, k3)
    del k3
    k4 = deriv(t + dt, stage)
    del stage
    for s, b in zip(acc, k4):
        s += b
    del k4
    return _shifted(y, dt / 6.0, acc)


def _shifted(y: list[np.ndarray], h: float, k: list[np.ndarray]) -> list[np.ndarray]:
    """[a + h * b for a, b in zip(y, k)], with one temporary per array."""
    out = [h * b for b in k]
    for s, a in zip(out, y):
        s += a
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
