"""Fixed-step RK4 on one complex array, and the step grid it walks."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ContractError

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
