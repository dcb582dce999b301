"""Local generalized measurements and their propagation to every patch.

A measurement is specified by Kraus operators on one patch. Outcome
probabilities and the collapsed wavefunction on that patch are computed
locally; every other patch is then updated by transporting the collapsed
wavefunction through the stored connections, which is where the global
character of collapse reappears. Connections themselves are untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .gauge import GaugeState
from .hamiltonian import pauli_on
from .lattice import Patch, apply_local
from .linalg import as_operator

PAULI_BASES = ("Z", "X")
MIN_PROBABILITY = 1e-12  # an outcome at or below this probability cannot be collapsed onto
CONSISTENCY_TOL = 1e-6  # largest consistency defect at which P_k is unambiguous


@dataclass(frozen=True)
class KrausSet:
    """Measurement operators on one patch; squares must sum to the identity."""

    patch: Patch
    operators: tuple[np.ndarray, ...]

    def __init__(self, patch: Patch, operators):
        operators = tuple(as_operator(e) for e in operators)
        if not operators:
            raise ContractError("a Kraus set needs at least one operator")
        for e in operators:
            if e.shape[0] != patch.dim:
                raise ContractError(
                    f"Kraus operator dim {e.shape[0]} != {patch.dim} for {patch}"
                )
        object.__setattr__(self, "patch", patch)
        object.__setattr__(self, "operators", operators)

    def __len__(self) -> int:
        return len(self.operators)


@dataclass(frozen=True)
class KrausCheck:
    ok: bool
    defect: float
    tol: float


@dataclass(frozen=True)
class MeasurementRecord:
    """The chosen outcome, its probability, and every outcome's probability P_k."""

    outcome: int
    probability: float
    probabilities: tuple[float, ...]


def validate_kraus(ks: KrausSet, tol: float = 1e-10) -> KrausCheck:
    """Completeness check: || sum_k E_k^dag E_k - 1 ||_F against tol."""
    acc = np.zeros((ks.patch.dim, ks.patch.dim), dtype=np.complex128)
    for e in ks.operators:
        acc += e.conj().T @ e
    defect = float(np.linalg.norm(acc - np.eye(ks.patch.dim)))
    return KrausCheck(ok=defect <= tol, defect=defect, tol=tol)


def _outcomes(state: GaugeState, ks: KrausSet) -> tuple[list[np.ndarray], np.ndarray]:
    """E_k applied to the measured patch's plain-gauge wavefunction, and P_k."""
    if ks.patch not in state.cover:
        raise ContractError(f"{ks.patch} is not a patch of the cover")
    check = validate_kraus(ks)
    if not check.ok:
        raise ContractError(
            f"Kraus operators do not resolve the identity (defect {check.defect:.3e})"
        )
    defect = state.consistency()
    if defect > CONSISTENCY_TOL:
        raise ContractError(
            f"state is inconsistent (defect {defect:.3e} > {CONSISTENCY_TOL:.1e}); "
            "measurement probabilities would be ambiguous"
        )
    psi = state.local[ks.patch]
    vecs = [apply_local(e, ks.patch, state.n_sites, psi) for e in ks.operators]
    return vecs, np.array([float(np.linalg.norm(v)) ** 2 for v in vecs])


def measurement_probabilities(state: GaugeState, ks: KrausSet) -> np.ndarray:
    """P_k = <psi_I0 | E_k^dag E_k | psi_I0> for the measured patch I0."""
    return _outcomes(state, ks)[1]


def _sample_outcome(probs: np.ndarray, rng: np.random.Generator) -> int:
    r = rng.random() * float(np.sum(probs))
    acc = 0.0
    for k, p in enumerate(probs):
        acc += p
        if r < acc:
            return k
    return len(probs) - 1


def apply_measurement(
    state: GaugeState,
    ks: KrausSet,
    outcome: int | None = None,
    rng: np.random.Generator | int | None = None,
) -> tuple[GaugeState, MeasurementRecord]:
    """Collapse on the measured patch and transport the result everywhere.

    `outcome` forces a specific Kraus operator; otherwise one is sampled from
    the outcome distribution using the supplied seed or generator.
    """
    vecs, probs = _outcomes(state, ks)
    if outcome is None:
        if rng is None:
            raise ContractError("provide either an outcome or a seeded generator")
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        outcome = _sample_outcome(probs, rng)
    outcome = int(outcome)
    if not 0 <= outcome < len(ks):
        raise ContractError(f"outcome {outcome} out of range for {len(ks)} operators")
    p = float(probs[outcome])
    if p <= MIN_PROBABILITY:
        raise ContractError(
            f"outcome {outcome} has probability {p:.3e} <= {MIN_PROBABILITY:.1e}; "
            "the post-measurement state is undefined"
        )
    collapsed = vecs[outcome] / np.linalg.norm(vecs[outcome])
    new_state = state._collapsed(ks.patch, collapsed)
    return new_state, MeasurementRecord(
        outcome=outcome, probability=p, probabilities=tuple(float(q) for q in probs)
    )


def site_projectors(patch: Patch, site: int, basis: str = "Z") -> KrausSet:
    """Projective measurement of one site of a patch in the Z or X basis."""
    if site not in patch:
        raise ContractError(f"site {site} is not in {patch}")
    if basis not in PAULI_BASES:
        raise ContractError(f"basis must be one of {PAULI_BASES}, got {basis!r}")
    eye = np.eye(patch.dim, dtype=np.complex128)
    sigma = pauli_on(basis, [site], patch)
    return KrausSet(patch, [0.5 * (eye + sigma), 0.5 * (eye - sigma)])
