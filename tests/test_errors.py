"""Typed errors of the public API, one case per guard, each raised before the work it guards."""

import numpy as np
import pytest

from gaugesim.circuits import Circuit, Gate, audit_lightcone, brickwork, circuit_reference
from gaugesim.errors import ContractError
from gaugesim.gauge import apply_commuting_layer, effective_hamiltonian, init_gauge_state
from gaugesim.hamiltonian import PAULI_Z, GeneralizedTerm, LocalHamiltonian, LocalTerm, tfim_chain
from gaugesim.lattice import Patch
from gaugesim.measure import apply_measurement, measurement_probabilities, site_projectors

from _oracles import plus_state

H = tfim_chain(4, 1.0, 1.0)
STATE = init_gauge_state(plus_state(4), H.cover)
PAIR = Patch((0, 1))
OUTSIDE = Patch((0, 2))  # not a patch of the nearest-neighbour pair cover
ZZ = np.kron(PAULI_Z, PAULI_Z)

CASES = {
    "gauge-operator-dim": (lambda: STATE.local_expectation(PAIR, np.eye(8)), "matches neither"),
    "gauge-expectation-patch": (lambda: STATE.local_expectation(OUTSIDE, ZZ), "not a patch"),
    "gauge-effective-hamiltonian-patch": (
        lambda: effective_hamiltonian(STATE, H, OUTSIDE), "not a patch"
    ),
    "gauge-gate-dim": (
        lambda: apply_commuting_layer(STATE, {PAIR: np.eye(2)}), "has dim 2, expected 4"
    ),
    "circuits-gate-dim": (lambda: Gate(PAIR, np.eye(2)), "gate dim 2 != 4"),
    "circuits-gate-past-chain": (
        lambda: Circuit(2, [[Gate(Patch((1, 2)), np.eye(4))]]), "exceeds n_sites=2"
    ),
    "circuits-reference-sites": (
        lambda: circuit_reference(brickwork(3, 1), H.cover, plus_state(4)), "number of sites"
    ),
    "circuits-audit-patch": (lambda: audit_lightcone(STATE, OUTSIDE, 1), "not a patch"),
    "measure-patch": (
        lambda: measurement_probabilities(STATE, site_projectors(OUTSIDE, 0)), "not a patch"
    ),
    "measure-outcome": (
        lambda: apply_measurement(STATE, site_projectors(PAIR, 0), outcome=2), "out of range"
    ),
    "hamiltonian-generalized-patch": (
        lambda: LocalHamiltonian(H.cover, gen_terms=[GeneralizedTerm([OUTSIDE], 1.0, [ZZ])]),
        "generalized-term patch",
    ),
    "hamiltonian-spectrum": (
        lambda: LocalHamiltonian(H.cover, [LocalTerm(PAIR, ZZ, np.cos)]).spectrum(),
        "no fixed spectrum",
    ),
}


@pytest.mark.parametrize("call, match", CASES.values(), ids=CASES.keys())
def test_raises_its_typed_error(call, match):
    with pytest.raises(ContractError, match=match):
        call()
