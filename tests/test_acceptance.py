"""Acceptance suite: one test per verification criterion.

Each test runs the corresponding check at its pinned tolerance and
prints a PASS/FAIL line with the measured error, so `pytest -v -s
tests/test_acceptance.py` doubles as a readable verification report
(the `starkwalk ... verify-all` experiment emits the same table).
"""
import numpy as np
import pytest

from starkwalk.state import LatticeWindow
from starkwalk.verify import (
    _random_states,
    check_boundedness,
    check_channel_oracle,
    check_clt,
    check_einstein,
    check_energy_bookkeeping,
    check_energy_fcs,
    check_fluctuation,
    check_ldp,
    check_position_fcs,
    check_propagator,
    check_theta_identities,
    check_transport,
)

from conftest import (
    per_state_channel_check,
    per_state_propagator_check,
    random_density,
    random_joint,
)

CRITERIA = [
    ("01 channel-oracle equivalence", check_channel_oracle),
    ("02 propagator cross-check", check_propagator),
    ("03 theta identities", check_theta_identities),
    ("04 transport coefficients", check_transport),
    ("05 central limit theorem", check_clt),
    ("06 large deviations", check_ldp),
    ("07 fluctuation identities", check_fluctuation),
    ("08 energy counting statistics", check_energy_fcs),
    ("09 position counting statistics", check_position_fcs),
    ("10 einstein relation", check_einstein),
    ("11 energy bookkeeping", check_energy_bookkeeping),
    ("12 single-atom boundedness", check_boundedness),
]


@pytest.mark.parametrize("label,check", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_acceptance(label, check):
    result = check()
    print(f"\n{label}: {result.line()}")
    assert result.passed, result.line()


def test_stacked_states_are_the_per_state_draws():
    # the same normals in the same order: each state of the stack is the whole-window
    # draw on its crop, and the whole-window draw is 0 outside the crop
    window = LatticeWindow(-24, 23, -24, 23)
    n = window.n_k
    for atoms, draw in ((1, random_density), (2, random_joint)):
        stack, ks = _random_states(np.random.default_rng(5), window, 8, 4, atoms=atoms)
        rng = np.random.default_rng(5)
        m = ks.stop - ks.start
        for sub in stack:
            whole = draw(rng, window, 8).coeffs.reshape(atoms, n, atoms, n).copy()
            assert np.array_equal(whole[:, ks, :, ks].reshape(atoms * m, atoms * m), sub)
            whole[:, ks, :, ks] = 0.0
            assert not np.any(whole)


@pytest.mark.parametrize("check, per_state", [
    (check_channel_oracle, per_state_channel_check),
    (check_propagator, per_state_propagator_check),
])
def test_stacked_checks_measure_the_per_state_routes(check, per_state):
    # checks 1 and 2 run each route once per exponent or time on the whole stack; their
    # measured values are the public routes' one state at a time, bit for bit
    assert check().measured == per_state()
