"""Per-layer spans recorded by wrapping gaugesim's public functions.

Nothing under ``src/`` knows about tracing. `installed` rebinds each traced
function at every module attribute it is reached through (``from .x import f``
copies the reference, so rebinding ``gaugesim.linalg.f`` alone would miss
callers in ``gaugesim.gauge``), and restores the originals on exit. Spans are
kept in memory as ``[name_id, start, end, parent]`` and written out at exit.

A call into a layer that is already open under the same span name is not
recorded, so each layer's busy time counts only its outermost call (this is
how the ``side="right"`` recursion of ``lattice.apply_local`` counts once).
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from typing import Callable, Iterator

# (module, attribute, span name). Internal call sites first, then the
# package-level names the benchmark itself calls through.
SITES: tuple[tuple[str, str, str], ...] = (
    ("gaugesim.gauge", "step", "gauge.step"),
    ("gaugesim.gauge", "polar_unitary", "linalg.polar_unitary"),
    ("gaugesim.gauge", "apply_local", "lattice.apply_local"),
    ("gaugesim.gauge", "unitarity_defect", "linalg.unitarity_defect"),
    ("gaugesim.linalg", "unitarity_defect", "linalg.unitarity_defect"),
    ("gaugesim.lattice", "apply_local", "lattice.apply_local"),
    ("gaugesim.circuits", "apply_local", "lattice.apply_local"),
    ("gaugesim.circuits", "apply_commuting_layer", "gauge.apply_commuting_layer"),
    ("gaugesim.measure", "apply_local", "lattice.apply_local"),
    ("gaugesim.reference", "expm_hermitian", "linalg.expm_hermitian"),
    ("gaugesim", "build_model", "hamiltonian.build_model"),
    ("gaugesim", "init_gauge_state", "gauge.init_gauge_state"),
    ("gaugesim", "schrodinger_evolve", "reference.oracle"),
    ("gaugesim", "reference_gauge_state", "reference.oracle"),
    ("gaugesim", "circuit_reference", "reference.oracle"),
    ("gaugesim", "audit_lightcone", "circuits.audit_lightcone"),
    ("gaugesim", "measurement_probabilities", "measure.apply_measurement"),
    ("gaugesim", "apply_measurement", "measure.apply_measurement"),
)
# rk4_step gets its own wrapper: it also wraps the `deriv` argument.
RK4_SITE = ("gaugesim.gauge", "rk4_step", "integrate.rk4_step")
RHS_NAME = "gauge.rhs"
DIAGNOSTICS_NAME = "gauge.diagnostics"


class Tracer:
    """In-memory span store with a parent stack (single-threaded)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._open: dict[str, int] = {}

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._name_id(name)
        spans, stack, open_ = self.spans, self._stack, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if open_.get(name):
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [nid, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            open_[name] = 1
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                open_[name] = 0

        traced.__wrapped__ = fn
        return traced

    def summarize(self, start: float, end: float) -> dict[str, dict[str, float]]:
        """calls, busy_s and self_s per span name, over spans starting in [start, end)."""
        child_time = [0.0] * len(self.spans)
        for nid, s, e, parent in self.spans:
            if parent >= 0:
                child_time[parent] += e - s
        out: dict[str, dict[str, float]] = {
            name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in self.names
        }
        for idx, (nid, s, e, _parent) in enumerate(self.spans):
            if start <= s < end:
                agg = out[self.names[nid]]
                agg["calls"] += 1
                agg["busy_s"] += e - s
                agg["self_s"] += (e - s) - child_time[idx]
        return out

    def write(self, path: str, header: dict) -> None:
        """One JSON header line, then one `[name, start, end, parent]` line per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for nid, s, e, parent in self.spans:
                fh.write(json.dumps([self.names[nid], s, e, parent]) + "\n")


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Rebind every traced site to a recording wrapper; restore on exit."""
    from gaugesim.gauge import GaugeState

    saved: list[tuple[object, str, object]] = []

    def rebind(owner: object, attr: str, wrapper: Callable) -> None:
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    try:
        for module, attr, name in SITES:
            owner = importlib.import_module(module)
            rebind(owner, attr, tracer.wrap(name, getattr(owner, attr)))
        module, attr, name = RK4_SITE
        owner = importlib.import_module(module)
        rk4 = getattr(owner, attr)

        def rk4_traced(y, t, dt, deriv):
            return rk4(y, t, dt, tracer.wrap(RHS_NAME, deriv))

        rebind(owner, attr, tracer.wrap(name, rk4_traced))
        rebind(GaugeState, "diagnostics", tracer.wrap(DIAGNOSTICS_NAME, GaugeState.diagnostics))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
