"""Batch experiment runner.

Reads one JSON config describing a model, cover, scenario and output sink,
executes it, and emits JSON-lines records (CSV on request). Given identical
(config, seed) the emitted bytes are identical run to run, so no wall-clock
time appears in a record.

Exit codes: 0 all checks passed, 1 config or usage error, 2 tolerance/assertion
failure, 3 numerical divergence.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import hashlib
import io
import json
import sys
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import ConfigError, ContractError, DivergenceError, GaugeSimError
from .gauge import (
    DIRECT,
    GENERATOR,
    MODES,
    GaugeState,
    IntegratorConfig,
    evolve,
    init_gauge_state,
)
from .hamiltonian import LocalHamiltonian, build_model, pauli_on
from .lattice import Patch, PatchCover, apply_local, cover_from_config
from .measure import PAULI_BASES, KrausSet, apply_measurement, site_projectors
from .circuits import audit_lightcone, brickwork, circuit_reference, run_circuit
from .reference import schrodinger_evolve

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_TOLERANCE = 2
EXIT_DIVERGED = 3


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(cfg: dict) -> str:
    """Hash of the experiment description (the output sink does not count)."""
    cfg = {k: v for k, v in cfg.items() if k != "output"}
    return hashlib.sha256(canonical_json(cfg).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


@dataclass
class Observable:
    obs_id: str
    patch: Patch
    op: np.ndarray


@dataclass
class Experiment:
    raw: dict
    scenario: str
    n_sites: int
    cover: PatchCover
    hml: LocalHamiltonian
    psi0: np.ndarray
    mode: str
    integrator: IntegratorConfig
    observables: list[Observable]
    times: list[float]
    seed: int
    tolerance: float
    out_path: str | None
    out_format: str
    hash: str = ""
    circuit_depth: int = 0
    circuit_tolerance: float = 1e-8
    circuit_support_tol: float = 1e-12
    audit_patches: list[Patch] = field(default_factory=list)
    measure_site: int = 0
    measure_basis: str = "Z"
    measure_time: float = 0.0
    measure_tolerance: float = 1e-8
    projectors: KrausSet | None = None


def _fail(path: str, message: str) -> ConfigError:
    return ConfigError(f"config field '{path}': {message}")


def _integer(value, path: str) -> int:
    """An integral JSON number (4 or 4.0); booleans, fractions and strings are refused."""
    try:
        if not isinstance(value, bool) and int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise _fail(path, f"must be an integer, got {value!r}")


def _number(value, path: str) -> float:
    try:
        number = float(value)
        if np.isfinite(number) and not isinstance(value, bool):
            return number
    except (TypeError, ValueError):
        pass
    raise _fail(path, f"must be a finite number, got {value!r}")


def _section(cfg: dict, key: str) -> dict:
    """A copy of the config object under key; absent or null reads as {}."""
    value = cfg.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise _fail(key, f"must be an object, got {value!r}")
    return dict(value)


def _cover_patch(spec, cover: PatchCover, path: str) -> Patch:
    try:
        patch = Patch(spec)
    except (ContractError, TypeError, ValueError) as exc:
        raise _fail(path, str(exc)) from None
    if patch not in cover:
        raise _fail(path, f"{patch} is not a cover patch")
    return patch


def _parse_measure(spec: dict, cover: PatchCover) -> tuple[int, str, KrausSet]:
    """The measured site, its basis and its projectors, from the `measure` object."""
    if "site" not in spec:
        raise _fail("measure.site", "is required")
    site = _integer(spec["site"], "measure.site")
    if spec.get("patch") is None:
        host = next((p for p in cover.patches if site in p), None)
        if host is None:
            raise _fail("measure.site", f"site {site} lies in no cover patch")
    else:
        host = _cover_patch(spec["patch"], cover, "measure.patch")
        if site not in host:
            raise _fail("measure.site", f"site {site} is not in {host}")
    basis = str(spec.get("basis", "Z"))
    if basis not in PAULI_BASES:
        raise _fail("measure.basis", f"must be one of {list(PAULI_BASES)}, got {basis!r}")
    return site, basis, site_projectors(host, site, basis=basis)


def _initial_state(spec, n: int) -> np.ndarray:
    dim = 2**n
    if spec is None or spec == "plus":
        return np.full(dim, 2 ** (-n / 2), dtype=np.complex128)
    if spec == "zero":
        psi = np.zeros(dim, dtype=np.complex128)
        psi[0] = 1.0
        return psi
    if isinstance(spec, dict) and "bitstring" in spec:
        bits = spec["bitstring"]
        if not isinstance(bits, str) or len(bits) != n or set(bits) - {"0", "1"}:
            raise _fail("initial_state.bitstring", f"need {n} characters of 0/1")
        index = sum(int(b) << i for i, b in enumerate(bits))
        psi = np.zeros(dim, dtype=np.complex128)
        psi[index] = 1.0
        return psi
    raise _fail("initial_state", f"unrecognized value {spec!r}")


def _parse_observables(specs, cover: PatchCover) -> list[Observable]:
    if not isinstance(specs, list):
        raise _fail("observables", f"must be a list of objects, got {specs!r}")
    out = []
    for idx, spec in enumerate(specs):
        path = f"observables[{idx}]"
        if not isinstance(spec, dict):
            raise _fail(path, "must be an object")
        try:
            labels = str(spec["pauli"]).upper()
            sites = spec["sites"]
        except KeyError as exc:
            raise _fail(path, f"missing key {exc.args[0]!r}") from None
        if not isinstance(sites, list):
            raise _fail(f"{path}.sites", f"must be a list of sites, got {sites!r}")
        sites = tuple(_integer(s, f"{path}.sites") for s in sites)
        if len(labels) != len(sites):
            raise _fail(path, f"{len(labels)} Pauli labels for {len(sites)} sites")
        host = next(
            (p for p in cover.patches if set(sites) <= set(p.sites)), None
        )
        if host is None:
            raise _fail(path, f"no cover patch contains sites {list(sites)}")
        obs_id = str(spec.get("id") or "".join(f"{l}{s}" for l, s in zip(labels, sites)))
        try:
            op = pauli_on(labels, sites, host)
        except ContractError as exc:
            raise _fail(path, str(exc)) from None
        out.append(Observable(obs_id=obs_id, patch=host, op=op))
    ids = [o.obs_id for o in out]
    if len(set(ids)) != len(ids):
        raise _fail("observables", "duplicate observable ids")
    return out


def parse_config(raw: dict, overrides: dict | None = None) -> Experiment:
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    cfg = dict(raw)
    for key, value in (overrides or {}).items():
        if value is not None:
            if key in ("dt", "mode"):
                cfg["integrator"] = _section(cfg, "integrator")
                cfg["integrator"][key] = value
            else:
                cfg[key] = value

    scenario = cfg.get("scenario")
    if scenario not in RUNNERS:
        raise _fail("scenario", f"must be one of {list(RUNNERS)}, got {scenario!r}")

    model = cfg.get("model")
    if not isinstance(model, dict) or "name" not in model:
        raise _fail("model", "must be an object with a 'name'")
    if "n_sites" not in cfg:
        raise _fail("n_sites", "is required")
    n_sites = _integer(cfg["n_sites"], "n_sites")
    if n_sites < 1:
        raise _fail("n_sites", "must be >= 1")

    try:
        hml = build_model(model["name"], n_sites, model.get("params"))
    except (ContractError, TypeError) as exc:
        raise _fail("model", str(exc)) from None
    try:
        cover = cover_from_config(_section(cfg, "cover"), n_sites)
    except KeyError as exc:
        raise _fail("cover", f"missing key {exc.args[0]!r}") from None
    except (ContractError, TypeError, ValueError) as exc:
        raise _fail("cover", str(exc)) from None
    if cover != hml.cover:
        raise _fail("cover", "does not match the cover implied by the model")

    integ = _section(cfg, "integrator")
    mode = integ.pop("mode", GENERATOR)
    if mode not in MODES:
        raise _fail("integrator.mode", f"must be {'|'.join(MODES)}, got {mode!r}")
    if mode == DIRECT and scenario == "circuit":
        raise _fail("integrator.mode", "a circuit's light-cone audits need generator mode")
    renormalize = integ.pop("renormalize", False)
    if not isinstance(renormalize, bool):
        raise _fail("integrator.renormalize", f"must be true or false, got {renormalize!r}")
    if renormalize and mode == GENERATOR:
        raise _fail("integrator.renormalize", "is a direct-mode option")
    try:
        integrator = IntegratorConfig(
            dt=_number(integ.pop("dt", 1e-3), "integrator.dt"),
            reunitarize_every=_integer(
                integ.pop("reunitarize_every", 100), "integrator.reunitarize_every"
            ),
            renormalize=renormalize,
        )
    except ContractError as exc:
        raise _fail("integrator", str(exc)) from None
    if integ:
        raise _fail("integrator", f"unknown keys {sorted(integ)}")

    times = cfg.get("times", [])
    if not isinstance(times, list):
        raise _fail("times", f"must be a list of numbers, got {times!r}")
    times = [_number(t, "times") for t in times]
    if times != sorted(times):
        raise _fail("times", "must be sorted ascending")
    if any(t < 0 for t in times):
        raise _fail("times", "must be nonnegative")

    psi0 = _initial_state(cfg.get("initial_state"), n_sites)
    observables = _parse_observables(cfg.get("observables", []), cover)

    out_cfg = _section(cfg, "output")
    out_format = str(out_cfg.get("format", "jsonl"))
    if out_format == "json":  # accepted alias: records are JSON lines
        out_format = "jsonl"
    if out_format not in ("jsonl", "csv"):
        raise _fail("output.format", f"must be json|jsonl|csv, got {out_format!r}")

    exp = Experiment(
        raw=cfg,
        scenario=scenario,
        n_sites=n_sites,
        cover=cover,
        hml=hml,
        psi0=psi0,
        mode=mode,
        integrator=integrator,
        observables=observables,
        times=times,
        seed=_integer(cfg.get("seed", 0), "seed"),
        tolerance=_number(cfg.get("tolerance", 1e-6), "tolerance"),
        out_path=out_cfg.get("path"),
        out_format=out_format,
    )
    exp.hash = config_hash(cfg)

    if scenario in ("evolve", "validate") and not times:
        raise _fail("times", f"scenario {scenario!r} needs at least one time")
    if scenario in ("evolve", "validate") and not observables:
        raise _fail("observables", f"scenario {scenario!r} needs observables")
    if scenario == "circuit":
        spec = _section(cfg, "circuit")
        exp.circuit_depth = _integer(spec.get("depth", 0), "circuit.depth")
        if exp.circuit_depth < 1:
            raise _fail("circuit.depth", "must be >= 1")
        audit = spec.get("audit_patches", [])
        if not isinstance(audit, list):
            raise _fail("circuit.audit_patches", f"must be a list of patches, got {audit!r}")
        exp.audit_patches = [
            _cover_patch(patch, cover, f"circuit.audit_patches[{idx}]")
            for idx, patch in enumerate(audit)
        ]
        exp.circuit_tolerance = _number(spec.get("tolerance", 1e-8), "circuit.tolerance")
        exp.circuit_support_tol = _number(
            spec.get("support_tol", 1e-12), "circuit.support_tol"
        )
    if scenario == "measure":
        spec = _section(cfg, "measure")
        exp.measure_site, exp.measure_basis, exp.projectors = _parse_measure(spec, cover)
        exp.measure_time = _number(
            spec.get("time", times[-1] if times else 0.0), "measure.time"
        )
        exp.measure_tolerance = _number(spec.get("tolerance", 1e-8), "measure.tolerance")
    return exp


# ---------------------------------------------------------------------------
# Record emission
# ---------------------------------------------------------------------------


CSV_COLUMNS = ("type", "time", "id", "re", "im", "oracle_re", "oracle_im", "gap")


class RecordWriter:
    def __init__(self, exp: Experiment, stream: io.TextIOBase):
        self.exp = exp
        self.stream = stream
        self._csv = csv.writer(stream) if exp.out_format == "csv" else None
        if self._csv is not None:
            self._csv.writerow(CSV_COLUMNS)

    def emit(self, record: dict) -> None:
        record = dict(record, config_hash=self.exp.hash, seed=self.exp.seed)
        if self._csv is not None:
            self._csv.writerow([record.get(column) for column in CSV_COLUMNS])
        else:
            self.stream.write(canonical_json(record) + "\n")

    def summary(self, ok: bool, **fields) -> int:
        """Close the stream with the summary record; its status sets the exit code."""
        self.emit({"type": "summary", "status": "pass" if ok else "fail", **fields})
        return EXIT_OK if ok else EXIT_TOLERANCE


def _header_record(exp: Experiment) -> dict:
    return {
        "type": "header",
        "schema": "gaugesim/v1",
        "scenario": exp.scenario,
        "n_sites": exp.n_sites,
        "model": exp.raw.get("model", {}).get("name"),
        "mode": exp.mode,
        "dt": exp.integrator.dt,
    }


def _defect_record(state: GaugeState, time: float) -> dict:
    return {
        "type": "defects",
        "time": time,
        "steps": state.steps,
        **state.diagnostics().as_dict(),
    }


def _observable_records(
    exp: Experiment, state: GaugeState, time: float, oracle_psi: np.ndarray | None = None
) -> list[dict]:
    """One record per observable; against an oracle wavefunction, a validation with its gap."""
    records = []
    for obs in exp.observables:
        value = state.local_expectation(obs.patch, obs.op)
        record = dict(type="observable", time=time, id=obs.obs_id, re=value.real, im=value.imag)
        if oracle_psi is not None:
            ref_psi = apply_local(obs.op, obs.patch, exp.n_sites, oracle_psi)
            ref_val = complex(np.vdot(oracle_psi, ref_psi))
            record.update(type="validation", oracle_re=ref_val.real, oracle_im=ref_val.imag)
            record["gap"] = abs(value - ref_val)
        records.append(record)
    return records


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


def _run_evolve(exp: Experiment, writer: RecordWriter, with_oracle: bool) -> int:
    state = init_gauge_state(exp.psi0, exp.cover, mode=exp.mode, hamiltonian=exp.hml)
    max_gap = 0.0
    for t in exp.times:
        state = evolve(state, exp.hml, t, exp.integrator)
        oracle_psi = schrodinger_evolve(exp.hml, exp.psi0, t) if with_oracle else None
        for record in _observable_records(exp, state, t, oracle_psi):
            max_gap = max(max_gap, record.get("gap", 0.0))
            writer.emit(record)
        writer.emit(_defect_record(state, time=t))
    if not with_oracle:
        return writer.summary(True, max_gap=None, tolerance=None)
    return writer.summary(max_gap <= exp.tolerance, max_gap=max_gap, tolerance=exp.tolerance)


def _run_circuit(exp: Experiment, writer: RecordWriter) -> int:
    depth = exp.circuit_depth
    circuit = brickwork(exp.n_sites, depth, gate_source=exp.seed)
    state = init_gauge_state(exp.psi0, exp.cover, mode=exp.mode)
    state = run_circuit(state, circuit)
    all_ok = True
    for patch in exp.audit_patches or exp.cover.patches:
        audit = audit_lightcone(state, patch, depth, tol=exp.circuit_support_tol)
        all_ok = all_ok and audit.ok
        writer.emit(
            {
                "type": "audit",
                "patch": list(patch.sites),
                "depth": depth,
                "allowed_sites": list(audit.allowed_sites),
                "frame_support": list(audit.frame_support),
                "violations": list(audit.violations),
                "margins": list(audit.margins),
                "ok": audit.ok,
            }
        )
    # cross-check local observables against the exact gate-product reference
    ref = circuit_reference(circuit, exp.cover, exp.psi0)
    max_gap = 0.0
    for record in _observable_records(exp, state, float(depth), ref.psi_schrodinger):
        max_gap = max(max_gap, record["gap"])
        writer.emit(record)
    writer.emit(_defect_record(state, time=float(depth)))
    tol = exp.circuit_tolerance
    return writer.summary(
        all_ok and max_gap <= tol, max_gap=max_gap, tolerance=tol, audits_ok=all_ok
    )


def _run_measure(exp: Experiment, writer: RecordWriter) -> int:
    ks = exp.projectors
    t = exp.measure_time
    state = init_gauge_state(exp.psi0, exp.cover, mode=exp.mode, hamiltonian=exp.hml)
    if t > 0:
        state = evolve(state, exp.hml, t, exp.integrator)
    state, record = apply_measurement(state, ks, rng=exp.seed)
    probs = record.probabilities
    # oracle probabilities from the globally-evolved wavefunction
    psi_s = schrodinger_evolve(exp.hml, exp.psi0, t)
    gaps = []
    for k, e in enumerate(ks.operators):
        p_ref = float(np.linalg.norm(apply_local(e, ks.patch, exp.n_sites, psi_s))) ** 2
        gaps.append(abs(probs[k] - p_ref))
    writer.emit(
        {
            "type": "measurement",
            "time": t,
            "patch": list(ks.patch.sites),
            "site": exp.measure_site,
            "basis": exp.measure_basis,
            "probabilities": [float(p) for p in probs],
            "probability_gaps": gaps,
            "outcome": record.outcome,
            "outcome_probability": record.probability,
        }
    )
    for record in _observable_records(exp, state, t):
        writer.emit(record)
    writer.emit(_defect_record(state, time=t))
    tol = exp.measure_tolerance
    return writer.summary(max(gaps) <= tol, max_gap=max(gaps), tolerance=tol)


RUNNERS = {
    "evolve": functools.partial(_run_evolve, with_oracle=False),
    "validate": functools.partial(_run_evolve, with_oracle=True),
    "circuit": _run_circuit,
    "measure": _run_measure,
}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse with its usage errors exiting as config errors (--help still exits 0)."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gaugesim",
        description="Run local-wavefunction dynamics experiments from a JSON config.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in RUNNERS:
        p = sub.add_parser(name, help=f"run a {name} scenario config")
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", choices=("json", "jsonl", "csv"), default=None)
        p.add_argument("--dt", type=float, default=None, help="override integrator dt")
        p.add_argument(
            "--mode", choices=MODES, default=None,
            help="override integration mode",
        )
    return parser


def _load_raw_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return raw


def _open_output(path: str | None):
    """The one output stream of a run: the file at `path`, or stdout (left open)."""
    if not path:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w", newline="")
    except OSError as exc:
        raise ConfigError(f"cannot open output path {path!r}: {exc.strerror}") from None


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        raw = _load_raw_config(args.config)
        raw["scenario"] = raw.get("scenario", args.command)
        if raw["scenario"] != args.command:
            raise ConfigError(
                f"config declares scenario {raw['scenario']!r} but the "
                f"{args.command!r} subcommand was invoked"
            )
        flags = (("path", args.out), ("format", args.format))
        output = {key: value for key, value in flags if value is not None}
        if output:
            raw["output"] = {**_section(raw, "output"), **output}
        exp = parse_config(raw, {"seed": args.seed, "dt": args.dt, "mode": args.mode})
        sink = _open_output(exp.out_path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        with sink as stream:
            writer = RecordWriter(exp, stream)
            writer.emit(_header_record(exp))
            return RUNNERS[exp.scenario](exp, writer)
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except GaugeSimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE


if __name__ == "__main__":
    sys.exit(main())
