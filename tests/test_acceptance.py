"""Acceptance suite: one test per verification criterion.

Each test runs the corresponding check at its pinned tolerance and
prints a PASS/FAIL line with the measured error, so `pytest -v -s
tests/test_acceptance.py` doubles as a readable verification report
(the `starkwalk ... verify-all` experiment emits the same table).
"""
import math

import numpy as np
import pytest

from starkwalk import LatticeLaw, ModelParams, transport_coefficients, verify, walk_pmf_exact
from starkwalk.singleatom import _closed_blocks, _oracle_blocks
from starkwalk.state import LatticeWindow
from starkwalk.verify import (
    CHECK_PARAMS,
    _kolmogorov,
    _random_states,
    _walk_fluctuation,
    check_channel_oracle,
    check_clt,
    check_propagator,
    check_transport,
)

from conftest import (
    check_line,
    dense_kolmogorov,
    per_n_walk_fluctuation,
    per_state_channel_check,
    per_state_propagator_check,
    per_state_random_states,
    random_density,
    random_joint,
    same_bits,
    whole_window_blocks,
)

# the report's label of each check in verify.ALL_CHECKS, by its name there; a check
# with no label here still runs, under its own name
LABELS = {
    "channel-oracle": "channel-oracle equivalence",
    "propagator": "propagator cross-check",
    "theta": "theta identities",
    "transport": "transport coefficients",
    "clt": "central limit theorem",
    "ldp": "large deviations",
    "fluctuation": "fluctuation identities",
    "energy-fcs": "energy counting statistics",
    "position-fcs": "position counting statistics",
    "einstein": "einstein relation",
    "energy-bookkeeping": "energy bookkeeping",
    "boundedness": "single-atom boundedness",
}
CRITERIA = [(f"{i:02d} {LABELS.get(name, name)}", check)
            for i, (name, check) in enumerate(verify.ALL_CHECKS, 1)]


@pytest.mark.parametrize("label,check", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_acceptance(label, check):
    result = check()
    print(f"\n{label}: {check_line(result)}")
    assert result.passed, check_line(result)


def test_run_all_runs_each_reservoir_once(monkeypatch):
    # checks 7, 8 and 11 read the brute-force reservoir at (CHECK_PARAMS, 1..3) and at
    # E = F, n = 3: four runs, each shared through the cache, whose law is read-only
    calls = []
    run = verify.fcs_mod.run_energy_fcs
    monkeypatch.setattr(verify.fcs_mod, "run_energy_fcs", lambda cfg: calls.append(cfg) or run(cfg))
    verify._reservoir_run.cache_clear()
    verify.run_all()
    assert len(calls) == 4
    assert not verify._reservoir_run(CHECK_PARAMS, 3).law.flags.writeable


def test_transport_bound_is_the_per_trial_grand_mean_bound():
    # 4 sigma of the grand mean of 10^5 walks of 10^4 steps, sigma^2 = 2 D / (10^4 tau 10^5)
    tc = transport_coefficients(CHECK_PARAMS)
    bound = 4.0 * math.sqrt(2.0 * tc.D / (10**4 * CHECK_PARAMS.tau * 10**5))
    assert f"{bound:.2e}" == "5.44e-05"
    assert f"vs 4-sigma {bound:.2e};" in check_transport().detail


def test_transport_catches_a_wrong_drift(monkeypatch):
    # a sample drawn at beta = 0.99 has a drift > 10 sigma off v_d: the Monte Carlo gate
    # fails, and the exact-moment value it reports does not move
    wrong = ModelParams(E=2.0, F=1.0, lam=0.5, tau=1.0, beta=0.99)
    tc, steps = transport_coefficients(CHECK_PARAMS), 10**9
    sigma = math.sqrt(2.0 * tc.D / (steps * CHECK_PARAMS.tau))
    assert abs(transport_coefficients(wrong).v_d - tc.v_d) >= 10.0 * sigma
    measured = check_transport().measured
    draw = verify.sample_walk
    monkeypatch.setattr(verify, "sample_walk",
                        lambda n, trials, seed, params: draw(n, trials, seed, wrong))
    result = check_transport()
    assert not result.passed
    assert same_bits(result.measured, measured)


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


@pytest.mark.parametrize("atoms", [1, 2])
@pytest.mark.parametrize("k_min, half", [(-32, 10), (-24, 8), (-24, 23), (-23, 23)],
                         ids=["check-1", "check-2", "clamped-above", "clamped-below"])
def test_random_states_in_one_draw_are_the_per_state_loop(atoms, k_min, half):
    # one normal draw and one batched Gram product give each state's bits, and ks
    # holds them, where the widened range is clamped at a window edge too
    window = LatticeWindow(k_min, k_min + 47, k_min, k_min + 47)
    stack, ks = _random_states(np.random.default_rng(7), window, half, 5, atoms=atoms)
    loop, loop_ks = per_state_random_states(np.random.default_rng(7), window, half, 5, atoms)
    assert ks == loop_ks and same_bits(stack, loop)


@pytest.mark.parametrize("check, per_state", [
    (check_channel_oracle, per_state_channel_check),
    (check_propagator, per_state_propagator_check),
])
def test_stacked_checks_measure_the_per_state_routes(check, per_state):
    # checks 1 and 2 run each route once per exponent or time on the whole stack; their
    # measured values are the public routes' one state at a time, bit for bit
    assert check().measured == per_state()


@pytest.mark.parametrize("builder", [_closed_blocks, _oracle_blocks])
@pytest.mark.parametrize("window, half, ts", [
    # check 2: three times on -24..23, states on |k| <= 8
    (LatticeWindow(-24, 23, -24, 23), 8, np.array([0.1, 1.0, 3.0])),
    # check 1 and channel_oracle: one interaction on -32..31, states on |k| <= 10
    (LatticeWindow(-32, 31, -32, 31), 10, 1.0),
])
def test_sector_blocks_are_the_whole_window_blocks(builder, window, half, ts):
    # checks 1 and 2 build blocks for the sectors of their k-range alone: the same bits
    # as the whole window's blocks sliced to it, and the same edges; so are ranges
    # clamped at either edge of the window, and the whole window
    _, ks = _random_states(np.random.default_rng(12), window, half, 1)
    n = window.n_k
    for k_range in (ks, slice(0, 5), slice(n - 5, n), slice(0, n), slice(3, 5)):
        sectors = builder(ts, CHECK_PARAMS, window, k_range)
        whole = whole_window_blocks(builder, ts, CHECK_PARAMS, window, k_range)
        assert same_bits(sectors[0], whole[0]) and same_bits(sectors[1], whole[1])


def _standardized(n, params):
    tc = transport_coefficients(params)
    return tc.v_d * n * params.tau, math.sqrt(2.0 * tc.D * n * params.tau)


@pytest.mark.parametrize("n", [1, 10, 1000, 10_000])
@pytest.mark.parametrize("params", [
    CHECK_PARAMS,
    ModelParams(E=2.0, F=1.0, lam=0.5, tau=1.0, beta=0.0),
    ModelParams(E=1.0, F=1.0, lam=1.2, tau=1.0, beta=3.0),
], ids=["check-params", "beta-E-0", "strong-bias"])
def test_kolmogorov_on_the_live_span_is_the_dense_distance(n, params):
    # check 5 reads the law's nonzero span and the last site; the dense distance over
    # all 2n + 1 sites has the same bits, spans that fill the lattice included
    law = walk_pmf_exact(n, params)
    mu, sigma = _standardized(n, params)
    assert same_bits(_kolmogorov(law, mu, sigma), dense_kolmogorov(law, mu, sigma))


@pytest.mark.parametrize("first, pmf, mu, sigma", [
    # a defective law (total 1/2) at Phi ~ 1/4: the largest distance, 1/2 - Phi(-5), is
    # at the lattice's last site, far past the span
    (-50, 0.5 * np.eye(101)[43], 0.0, 10.0),
    # the same law at Phi ~ 3/4: the largest distance is on the span
    (-50, 0.5 * np.eye(101)[57], 0.0, 10.0),
    # mass on both edge sites of the lattice, and zeros inside the span
    (-3, np.array([0.25, 0.0, 0.0, 0.5, 0.0, 0.0, 0.25]), 0.0, 2.0),
    # a single site, and a law past the normal's reach on either side
    (-5, np.eye(11)[5], 0.0, 1.0),
    (-5, np.eye(11)[0], 40.0, 1.0),
    (-5, np.eye(11)[10], -40.0, 1.0),
], ids=["defective-low", "defective-high", "edges-and-gaps", "point", "far-left", "far-right"])
def test_kolmogorov_on_the_live_span_is_the_dense_distance_on_any_law(first, pmf, mu, sigma):
    law = LatticeLaw(n=(pmf.size - 1) // 2, first=first, pmf=pmf)
    assert same_bits(_kolmogorov(law, mu, sigma), dense_kolmogorov(law, mu, sigma))


def test_check_5_measures_the_dense_distance():
    law = walk_pmf_exact(10_000, CHECK_PARAMS)
    assert same_bits(check_clt().measured,
                     dense_kolmogorov(law, *_standardized(10_000, CHECK_PARAMS)))


@pytest.mark.parametrize("params", [
    CHECK_PARAMS,
    ModelParams(E=2.0, F=1.0, lam=0.5, tau=1.0, beta=0.0),
    ModelParams(E=2500.0, F=1.0, lam=0.5, tau=1.0, beta=1.0),
], ids=["check-params", "beta-E-0", "beta-E-2500"])
def test_walk_fluctuation_from_one_table_is_the_per_n_loop(params):
    # check 7's defects and log-law gap, from one table and one expression, are those of
    # 200 log_convolve_step calls with the defects of each n reduced in turn, bit for bit
    assert same_bits(np.array(_walk_fluctuation(params, 200)),
                     np.array(per_n_walk_fluctuation(params, 200)))
