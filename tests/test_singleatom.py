import math

import numpy as np
import pytest

from starkwalk import (
    TOL,
    AtomGibbs,
    ConfigError,
    JointDensityMatrix,
    LatticeWindow,
    ModelParams,
    NumericsError,
    ParticleDensityMatrix,
    WindowError,
    hamiltonian_blocks,
    oracle_unitary,
    position_expectation,
    position_motion_bound,
    position_oracle,
    propagate_closed,
    propagate_oracle,
)
from starkwalk.singleatom import (
    _apply_rows,
    _closed_blocks,
    _conjugate,
    _conjugate_on,
    _dagger,
    _oracle_blocks,
    _scatter,
)
from starkwalk.state import _crop, bloch_coefficients, position_operator

from conftest import (
    TEST_TOL,
    closed_unitary,
    direct_joint_hamiltonian,
    random_density,
    random_joint,
    same_bits,
    same_bits_up_to_zero_signs,
    whole_window_position_oracle,
)


@pytest.fixture
def window():
    return LatticeWindow(-12, 11, -12, 11)


def number_operator(params, window):
    n = window.n_k
    return (np.kron(np.eye(2), np.diag(-window.k_values.astype(float)))
            + np.kron(np.diag([0.0, 1.0]), np.eye(n)))


def test_block_eigenvalues_match_ladder(params, window):
    blocks, edges = hamiltonian_blocks(params, window)
    assert blocks.shape == (window.n_k - 1, 2, 2)
    ev = np.linalg.eigvalsh(blocks)
    base = 2.0 - params.F * window.k_values[:-1] + 0.5 * (params.E - params.F)
    assert np.max(np.abs(ev[:, 0] - (base - 0.5 * params.omega0))) <= 1e-12
    assert np.max(np.abs(ev[:, 1] - (base + 0.5 * params.omega0))) <= 1e-12
    # the unpaired states: (ground, k_max) and (excited, k_min)
    Ek = 2.0 - params.F * window.k_values
    assert np.array_equal(edges, [Ek[-1], Ek[0] + params.E])


def test_blocks_decouple_at_zero_coupling(window):
    p = ModelParams(E=2.0, F=1.0, lam=0.0, tau=1.0, beta=1.0)
    blocks, _ = hamiltonian_blocks(p, window)
    assert np.all(blocks[:, 0, 1] == 0.0) and np.all(blocks[:, 1, 0] == 0.0)


def test_equal_frequency_block_gap(window):
    p = ModelParams(E=1.0, F=1.0, lam=0.6, tau=1.0, beta=1.0)
    blocks, _ = hamiltonian_blocks(p, window)
    ev = np.linalg.eigvalsh(blocks)
    assert np.max(np.abs((ev[:, 1] - ev[:, 0]) - 2.0 * abs(p.lam))) <= 1e-12
    Ek = 2.0 - p.F * window.k_values[:-1]
    assert np.max(np.abs(np.trace(blocks, axis1=1, axis2=2) - 2.0 * Ek)) <= 1e-12


def test_joint_hamiltonian_matches_first_principles(params, window):
    # the sector blocks and edge energies scattered onto the dense joint space
    H = _scatter(*hamiltonian_blocks(params, window))
    assert np.array_equal(H, direct_joint_hamiltonian(params, window))


def test_number_operator_commutes_exactly(params, window):
    H = _scatter(*hamiltonian_blocks(params, window))
    N = number_operator(params, window)
    assert np.max(np.abs(H @ N - N @ H)) == 0.0


def test_propagators_at_zero_time(params, window):
    rng = np.random.default_rng(7)
    state = random_joint(rng, window, 5)
    for prop in (propagate_closed, propagate_oracle):
        out = prop(state, 0.0, params)
        assert np.max(np.abs(out.coeffs - state.coeffs)) <= 1e-14


def test_closed_vs_oracle_vs_expm(params, window):
    expm = pytest.importorskip("scipy.linalg").expm
    rng = np.random.default_rng(8)
    H = direct_joint_hamiltonian(params, window)
    for t in (0.1, 1.0, 3.0):
        state = random_joint(rng, window, 5)
        a = propagate_closed(state, t, params)
        b = propagate_oracle(state, t, params)
        assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-10
        W = expm(-1j * t * H)
        # the window's H leaves its edge states unpaired, so the whole
        # matrices agree, edge entries included
        assert np.max(np.abs(closed_unitary(t, params, window) - W)) <= 1e-12
        assert np.max(np.abs(oracle_unitary(t, params, window) - W)) <= 1e-12
        direct = W @ state.coeffs @ W.conj().T
        # whole matrices, edge rows and columns included
        assert np.max(np.abs(a.coeffs - direct)) <= 1e-10
        assert np.max(np.abs(b.coeffs - direct)) <= 1e-10
        assert abs(a.trace() - state.trace()) <= 1e-12
        assert abs(b.trace() - state.trace()) <= 1e-12


@pytest.mark.parametrize("builder", [_closed_blocks, _oracle_blocks])
def test_row_applier_matches_dense_unitary(params, window, builder):
    # propagate_* refuse states on the edge rows, so the row applier is
    # checked directly on arbitrary full matrices, edge rows included
    rng = np.random.default_rng(18)
    n2 = 2 * window.n_k
    A = rng.normal(size=(n2, n2)) + 1j * rng.normal(size=(n2, n2))
    for t in (0.1, 1.0, 3.0):
        blocks, edges = builder(t, params, window)
        W = _scatter(blocks, edges)
        assert np.max(np.abs(_apply_rows(blocks, edges, A) - W @ A)) <= 1e-13
        conjugated = _conjugate(builder, t, params, window, A)
        assert np.max(np.abs(conjugated - W @ A @ W.conj().T)) <= 1e-12


def crop_inputs(window):
    """Operators that exercise the occupied-range crop of `_conjugate`."""
    rng = np.random.default_rng(21)
    n = window.n_k
    states = [random_joint(rng, window, half).coeffs for half in (0, 2, 4)]
    # off-diagonal support reaching each window edge: (ground, k_max) and
    # (excited, k_min) are the unpaired edge states, so the crop is clamped
    # there and the real edge phases apply
    upper = np.zeros((2 * n, 2 * n), dtype=complex)
    upper[n - 1, n - 4], upper[n - 4, n - 1] = 0.3 + 0.4j, 0.3 - 0.4j
    upper[2 * n - 1, n - 2] = -0.7j
    lower = np.zeros((2 * n, 2 * n), dtype=complex)
    lower[n, n + 3], lower[n + 3, n] = 0.2 - 0.1j, 0.2 + 0.1j
    lower[0, n + 1] = 1.1
    both = upper + lower
    both[5, 6] = 0.5
    full = rng.normal(size=(2 * n, 2 * n)) + 1j * rng.normal(size=(2 * n, 2 * n))
    return states + [upper, lower, both, np.zeros((2 * n, 2 * n), dtype=complex), full]


@pytest.mark.parametrize("builder", [_closed_blocks, _oracle_blocks])
def test_cropped_conjugate_matches_dense(params, window, builder):
    # _conjugate works on the occupied k-range of A only, with the blocks of its
    # sectors; it must agree with the dense W A W^dagger entry for entry, and bit
    # for bit with the two row applications over the whole window; so must the
    # public route, on every input but the last, whose diagonal reaches the edge
    route = {_closed_blocks: propagate_closed, _oracle_blocks: propagate_oracle}[builder]
    inputs = crop_inputs(window)
    for i, A in enumerate(inputs):
        for t in (0.1, 1.0, 3.0):
            blocks, edges = builder(t, params, window)
            W = _scatter(blocks, edges)
            out = _conjugate(builder, t, params, window, A)
            assert np.max(np.abs(out - W @ A @ W.conj().T)) <= 1e-12
            whole = _dagger(_apply_rows(blocks, edges, _dagger(_apply_rows(blocks, edges, A))))
            assert same_bits_up_to_zero_signs(out, whole)
            if i < len(inputs) - 1:
                assert same_bits(route(JointDensityMatrix(window, A), t, params).coeffs, out)


@pytest.mark.parametrize("builder", [_closed_blocks, _oracle_blocks])
def test_time_batched_conjugate_equals_each_time(params, window, builder):
    # the blocks of an array of times lead the conjugation kernel's result, as
    # `position_oracle` batches them: each entry is that time's alone, bit for bit
    ts = np.array([0.0, 0.1, 1.0, 3.0, 17.25])
    blocks, edges = builder(ts, params, window)
    assert blocks.shape == (ts.size, window.n_k - 1, 2, 2) and edges.shape == (ts.size, 2)
    for A in crop_inputs(window):
        sub, ks = _crop(A, atoms=2)
        sectors = builder(ts, params, window, ks)
        assert sectors[0].shape == (ts.size, ks.stop - ks.start - 1, 2, 2)
        batched = _conjugate_on(*sectors, sub)
        for i, t in enumerate(ts):
            one = builder(float(t), params, window, ks)
            assert np.array_equal(sectors[0][i], one[0]) and np.array_equal(sectors[1][i], one[1])
            assert np.array_equal(batched[i], _conjugate_on(*one, sub))


def joint_stack(window):
    """Joint states of different supports, and their stack on the union of their
    occupied k-ranges widened by one site: (states, stack, ks)."""
    rng = np.random.default_rng(42)
    atom = np.array([[0.7, 0.1 + 0.2j], [0.1 - 0.2j, 0.3]])
    states = [JointDensityMatrix.product(random_density(rng, window, half, center), atom)
              for half, center in ((0, 0), (2, -5), (3, 4))] + [random_joint(rng, window, 2)]
    return (states, *_crop(np.stack([st.coeffs for st in states]), atoms=2))


@pytest.mark.parametrize("builder, route", [(_closed_blocks, propagate_closed),
                                            (_oracle_blocks, propagate_oracle)])
def test_stacked_conjugation_equals_each_public_call(params, window, builder, route):
    # a stack of states of different supports conjugated one time at a time, as the
    # acceptance check runs it: entry by entry the public call's on its own crop, and
    # exactly 0 outside it
    states, stack, ks = joint_stack(window)
    n, m = window.n_k, ks.stop - ks.start
    for t in (0.1, 1.0, 3.0):
        stacked = _conjugate_on(*builder(t, params, window, ks), stack)
        assert stacked.shape == stack.shape
        for state, sub in zip(states, stacked):
            own = _crop(state.coeffs, atoms=2)[1]
            inner = slice(own.start - ks.start, own.stop - ks.start)
            out = route(state, t, params).coeffs.reshape(2, n, 2, n).copy()
            sub = sub.reshape(2, m, 2, m).copy()
            assert np.array_equal(out[:, own, :, own], sub[:, inner, :, inner])
            out[:, own, :, own] = 0.0
            sub[:, inner, :, inner] = 0.0
            assert not np.any(out) and not np.any(sub)


def test_unitarity_of_interior_action(params, window):
    # the edge states carry their exact 1x1 phases, so both propagators are
    # unitary on the whole window, edges included
    for unitary in (closed_unitary, oracle_unitary):
        W = unitary(1.3, params, window)
        assert np.max(np.abs(W.conj().T @ W - np.eye(2 * window.n_k))) <= 1e-14


def test_dressed_eigenstate_is_stationary(params, window):
    n = window.n_k
    W = closed_unitary(1.0, params, window)
    # phi_{k,-} = cos |k,g> - sin |k+1,e> built from the half angle
    cos_t = math.sqrt(0.5 * (1.0 + params.cos2theta))
    sin_t = params.sin2theta / (2.0 * cos_t)
    k = window.k_index(0)
    vec = np.zeros(2 * n, dtype=complex)
    vec[k] = cos_t
    vec[n + k + 1] = -sin_t
    out = W @ vec
    energy = (2.0 - params.F * 0.0) + 0.5 * (params.E - params.F) - 0.5 * params.omega0
    assert np.max(np.abs(out - np.exp(-1j * energy) * vec)) <= 1e-12
    dm = JointDensityMatrix(window, np.outer(vec, vec.conj()))
    evolved = propagate_closed(dm, 2.7, params)
    assert np.max(np.abs(evolved.coeffs - dm.coeffs)) <= 1e-12


def test_edge_support_is_refused(params, window):
    n = window.n_k
    c = np.zeros((2 * n, 2 * n), dtype=complex)
    c[0, 0] = 1.0
    with pytest.raises(WindowError):
        propagate_closed(JointDensityMatrix(window, c), 1.0, params)


def bloch_matrix(t, F, n):
    """B(t) as an eigenbasis matrix: e^{i xi} shifts k down, e^{-i xi} shifts up."""
    c_plus, c_minus = (c[0] for c in bloch_coefficients([t], F))
    S = np.eye(n, k=-1)
    return c_plus * S.T + c_minus * S


def heisenberg_position(t, params, window):
    """Dense X(t) = e^{itH} (I (x) X) e^{-itH} with the atom traced against its
    own operators: the closed-form Heisenberg evolution, assembled with np.kron."""
    n = window.n_k
    S = np.eye(n, k=-1)
    b = np.array([[0.0, 1.0], [0.0, 0.0]])
    op = np.kron(np.eye(2), position_operator(window, params.F)
                 + bloch_matrix(t, params.F, n)).astype(complex)
    omega0, s2, c2 = params.omega0, params.sin2theta, params.cos2theta
    st2 = math.sin(0.5 * omega0 * t) ** 2
    op += (s2**2) * st2 * np.kron(np.diag([1.0, -1.0]), np.eye(n))
    op += (s2 * c2) * st2 * (np.kron(b.T, S) + np.kron(b, S.T))
    op += -0.5j * s2 * math.sin(omega0 * t) * (np.kron(b.T, S) - np.kron(b, S.T))
    return op


@pytest.mark.parametrize("p", [
    ModelParams(E=2.0, F=1.0, lam=0.5, tau=1.0, beta=1.0),
    ModelParams(E=1.0, F=0.7, lam=1.3, tau=1.0, beta=0.2),
    ModelParams(E=0.5, F=1.5, lam=0.0, tau=1.0, beta=2.0),
    ModelParams(E=1.0, F=1.0, lam=0.0, tau=1.0, beta=1.0),
])
def test_position_expectation_matches_dense_heisenberg_operator(p, window):
    rng = np.random.default_rng(19)
    for _ in range(4):
        state = random_joint(rng, window, 4)
        ts = (0.0, 0.37, 1.0, 2.9, 11.5)
        for t, x in zip(ts, position_expectation(ts, state, p).tolist()):
            dense = float(np.trace(heisenberg_position(t, p, window) @ state.coeffs).real)
            assert abs(x - dense) <= 1e-12


def test_position_expectation_zero_coupling_is_bloch(window):
    p = ModelParams(E=2.0, F=1.0, lam=0.0, tau=1.0, beta=1.0)
    rng = np.random.default_rng(12)
    state = random_joint(rng, window, 4)
    X = position_operator(window, p.F)
    ts = (0.0, 0.9, 4.4)
    for t, x in zip(ts, position_expectation(ts, state, p).tolist()):
        free = np.kron(np.eye(2), X + bloch_matrix(t, p.F, window.n_k))
        expected = float(np.trace(free @ state.coeffs).real)
        assert abs(x - expected) <= 1e-12


def test_position_expectation_matches_oracle_and_bound(params, window):
    rng = np.random.default_rng(13)
    state = random_joint(rng, window, 4)
    X = np.kron(np.eye(2), position_operator(window, params.F))
    bound = position_motion_bound(params)
    ts = np.linspace(0.0, 12.0, 31)
    xts = position_expectation(ts, state, params).tolist()
    oracles = position_oracle(ts, state, params).tolist()
    for t, xt, oracle in zip(ts.tolist(), xts, oracles):
        assert abs(xt - oracle) <= TOL.position_oracle
        assert abs(xt - xts[0]) <= bound
        # the oracle is the plain trace against the dense evolved state
        W = oracle_unitary(t, params, window)
        dense = float(np.trace(X @ (W @ state.coeffs @ W.conj().T)).real)
        assert abs(oracle - dense) <= 1e-12


@pytest.mark.parametrize("p", [
    ModelParams(E=2.0, F=1.0, lam=0.5, tau=1.0, beta=1.0),
    ModelParams(E=1.0, F=1.0, lam=0.0, tau=1.0, beta=1.0),   # omega0 = 0
])
def test_position_routes_accept_time_arrays(p, window):
    rng = np.random.default_rng(22)
    state = random_joint(rng, window, 4)
    ts = np.linspace(0.0, 50.0, 201)
    for route in (position_expectation, position_oracle):
        batched = route(ts, state, p)
        assert isinstance(batched, np.ndarray) and batched.shape == ts.shape
        each = [route([t], state, p)[0] for t in ts.tolist()]
        assert np.array_equal(batched, each)
        assert route(np.array([], dtype=float), state, p).shape == (0,)


def test_position_oracle_batches_bound_memory(params, window, monkeypatch):
    # a batch smaller than the number of times gives the same values
    rng = np.random.default_rng(23)
    state = random_joint(rng, window, 3)
    ts = np.linspace(0.0, 9.0, 37)
    whole = position_oracle(ts, state, params)
    monkeypatch.setattr("starkwalk.singleatom._BATCH_ENTRIES", 1)
    assert np.array_equal(position_oracle(ts, state, params), whole)


def check_12_state(params):
    """Acceptance check 12's state: the particle in (|0> + |1>)/sqrt 2, the atom thermal."""
    window = LatticeWindow(-24, 23, -24, 23)
    vec = np.zeros(window.n_k, dtype=complex)
    vec[window.k_index(0)] = vec[window.k_index(1)] = 1.0 / math.sqrt(2.0)
    rho_p = ParticleDensityMatrix(window, np.outer(vec, vec.conj()))
    return JointDensityMatrix.product(rho_p, AtomGibbs.from_params(params).density())


def test_position_oracle_on_sector_blocks_is_the_whole_window_route(params):
    # the oracle builds blocks for the sectors of the occupied range alone: its values
    # are those of the whole window's blocks sliced to that range, bit for bit, at check
    # 12's state and times, at the CLI's single-atom state and times for --n 5 and 20, on
    # seeded random states and on ranges clamped at either window edge
    gibbs = AtomGibbs.from_params(params).density()
    cli_window = LatticeWindow(-12, 12, -12, 12)
    cli_state = JointDensityMatrix.product(ParticleDensityMatrix.eigenstate(cli_window, 0), gibbs)
    cases = [(check_12_state(params), np.linspace(0.0, 50.0 * params.tau, 201))]
    cases += [(cli_state, np.linspace(0.0, n * params.tau, 20 * n + 1)) for n in (5, 20)]
    rng = np.random.default_rng(31)
    window = LatticeWindow(-12, 11, -12, 11)
    cases += [(random_joint(rng, window, half), np.linspace(0.0, 9.0, 37)) for half in (0, 3, 8)]
    # the upper, lower and both-edge operators of crop_inputs, whose diagonals are 0
    cases += [(JointDensityMatrix(window, A), np.linspace(0.0, 9.0, 37))
              for A in crop_inputs(window)[3:6]]
    for state, ts in cases:
        assert same_bits(position_oracle(ts, state, params),
                         whole_window_position_oracle(ts, state, params))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_time_is_refused(params, window, bad):
    # a NaN time is a NumericsError, an infinite one a ConfigError, as for every time
    rng = np.random.default_rng(24)
    state = random_joint(rng, window, 3)
    refusal, match = (NumericsError, "NaN") if math.isnan(bad) else (ConfigError, "finite")
    for route in (propagate_closed, propagate_oracle):
        with pytest.raises(refusal, match=match):
            route(state, bad, params)
    for route in (position_expectation, position_oracle):
        with pytest.raises(refusal, match=match):
            route([bad], state, params)
        with pytest.raises(refusal, match=match):
            route(np.array([0.0, 1.0, bad]), state, params)


def test_overflowing_phase_is_refused(params, window):
    # at t = 1.7e308 the phases t E_k overflow a double; at 1e300 they are
    # finite but past 2^52, with no fractional digit, and are refused too
    rng = np.random.default_rng(26)
    state = random_joint(rng, window, 3)
    for route in (propagate_closed, propagate_oracle):
        with pytest.raises(NumericsError, match="overflows"):
            route(state, 1.7e308, params)
        with pytest.raises(NumericsError, match=r"2\^52"):
            route(state, 1e300, params)
        assert np.all(np.isfinite(route(state, 1e6, params).coeffs))
    for route in (position_expectation, position_oracle):
        with pytest.raises(NumericsError, match="overflows"):
            route(np.array([0.0, 1.7e308]), state, params)
        with pytest.raises(NumericsError, match=r"2\^52"):
            route(np.array([0.0, 1e300]), state, params)
        assert np.all(np.isfinite(route([1e6], state, params)))


def test_overflowing_bloch_reach_is_refused(window):
    # at F = 1e-310, 4/F and 1/F overflow to inf: the bound, X and the Bloch
    # coefficients would be inf and both position routes NaN, so each refuses;
    # at F = 1e-300 all are finite
    rng = np.random.default_rng(27)
    state = random_joint(rng, window, 3)
    tiny = ModelParams(E=2.0, F=1e-310, lam=0.5, tau=1.0, beta=1.0)
    for refused in (lambda: position_motion_bound(tiny),
                    lambda: position_operator(window, tiny.F),
                    lambda: bloch_coefficients([0.0], tiny.F)):
        with pytest.raises(NumericsError, match="4/F overflows"):
            refused()
    for route in (position_expectation, position_oracle):
        with pytest.raises(NumericsError, match="4/F overflows"):
            route(np.array([0.0, 1.0]), state, tiny)
    small = ModelParams(E=2.0, F=1e-300, lam=0.5, tau=1.0, beta=1.0)
    assert math.isfinite(position_motion_bound(small))
    for route in (position_expectation, position_oracle):
        assert np.all(np.isfinite(route(np.array([0.0, 1.0]), state, small)))


def test_time_shape_is_checked(params, window):
    rng = np.random.default_rng(25)
    state = random_joint(rng, window, 3)
    # the propagators take one real time and return one state: an array of any shape,
    # 0-d and empty included, is refused with ConfigError naming t
    for route in (propagate_closed, propagate_oracle):
        assert isinstance(route(state, np.float64(2.5), params), JointDensityMatrix)
        for t in (np.array(2.5), np.array([0.0, 1.0]), np.zeros((2, 2)), np.empty(0),
                  [1.0], "soon"):
            with pytest.raises(ConfigError, match="t must be a real number, got t = "):
                route(state, t, params)
    # the position routes take a 1-D array of times: a bare number, a 0-d array and a
    # 2-D array are refused with ConfigError naming t
    for route in (position_expectation, position_oracle):
        for t in (2.5, np.float64(2.5), np.array(2.5), np.zeros((2, 2))):
            with pytest.raises(ConfigError, match=r"t of shape \("):
                route(t, state, params)


def test_position_expectation_quasiperiodic_fit(params, window):
    rng = np.random.default_rng(14)
    state = random_joint(rng, window, 4)
    ts = np.linspace(0.0, 40.0, 400)
    xs = position_expectation(ts, state, params)
    design = np.column_stack([
        np.ones_like(ts),
        np.cos(params.F * ts), np.sin(params.F * ts),
        np.cos(params.omega0 * ts), np.sin(params.omega0 * ts),
    ])
    coef, *_ = np.linalg.lstsq(design, xs, rcond=None)
    residual = np.max(np.abs(design @ coef - xs))
    assert residual <= TEST_TOL.quasi_periodic_fit


def test_closed_routes_read_no_interaction_time(params, window):
    # omega0 and the mixing angle do not read tau: at tau = 1e16, where the jump
    # probability's phase omega0 tau / 2 is past 2^52, the closed routes still agree
    # with their oracles, and the motion bound is that of tau = 1
    slow = ModelParams(E=params.E, F=params.F, lam=params.lam, tau=1e16, beta=params.beta)
    with pytest.raises(NumericsError, match=r"2\^52"):
        slow.p
    rng = np.random.default_rng(21)
    for t in (0.1, 1.0, 3.0):
        state = random_joint(rng, window, 5)
        closed, oracle = propagate_closed(state, t, slow), propagate_oracle(state, t, slow)
        assert np.max(np.abs(closed.coeffs - oracle.coeffs)) <= TOL.propagator_agreement
        assert (abs(position_expectation([t], state, slow)[0]
                    - position_oracle([t], state, slow)[0]) <= TOL.position_oracle)
    assert position_motion_bound(slow) == position_motion_bound(params)


def test_rabi_resonance_factorizes():
    # omega0 tau = 2 pi: E - F = 2 sqrt(pi^2 - 1) with lam = 1, tau = 1
    E = 1.0 + 2.0 * math.sqrt(math.pi**2 - 1.0)
    p = ModelParams(E=E, F=1.0, lam=1.0, tau=1.0, beta=1.0)
    assert abs(p.omega0 - 2.0 * math.pi) <= 1e-12
    assert p.p <= 1e-30
    window = LatticeWindow(-12, 11, -12, 11)
    rng = np.random.default_rng(15)
    state = random_joint(rng, window, 4)
    evolved = propagate_closed(state, p.tau, p)
    Ek = 2.0 - p.F * window.k_values.astype(float)
    W_free = np.kron(np.diag([1.0, np.exp(-1j * p.tau * p.F)]),
                     np.diag(np.exp(-1j * p.tau * Ek)))
    factorized = W_free @ state.coeffs @ W_free.conj().T
    assert np.max(np.abs(evolved.coeffs - factorized)) <= TEST_TOL.rabi_factorization


def test_diagonal_hamiltonian_corner():
    # lam = 0 and E = F: omega0 = 0 and R = 1, so every sector is a bare phase
    p = ModelParams(E=1.0, F=1.0, lam=0.0, tau=1.0, beta=1.0)
    window = LatticeWindow(-8, 7, -8, 7)
    rng = np.random.default_rng(16)
    state = random_joint(rng, window, 3)
    a = propagate_closed(state, 1.9, p)
    b = propagate_oracle(state, 1.9, p)
    assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-12


def test_gibbs_weights(params):
    gibbs = AtomGibbs.from_params(params)
    assert abs(gibbs.w_ground + gibbs.w_excited - 1.0) <= 1e-15
    assert gibbs.w_excited <= gibbs.w_ground
    flat = AtomGibbs.from_params(ModelParams(E=2.0, F=1.0, lam=0.5, tau=1.0, beta=0.0))
    assert flat.w_excited == flat.w_ground == 0.5



def test_overflowing_energies_are_refused():
    # F k on the window past the double range is refused; just below it the
    # blocks stay finite and so does each sector's centre (e1 + e2) / 2; the closed
    # route reads omega0 and the mixing angle but not ModelParams.p, so tau plays no part
    window = LatticeWindow(-16, 15, -16, 15)
    big = ModelParams(E=2.0, F=1.8e307, lam=0.5, tau=1e-300, beta=1.0)
    for route in (hamiltonian_blocks, lambda p, w: closed_unitary(1.0, p, w)):
        with pytest.raises(NumericsError, match="energies of H overflow"):
            route(big, window)
    edge = ModelParams(E=2.0, F=6e306, lam=0.5, tau=1e-300, beta=1.0)
    blocks, edges = hamiltonian_blocks(edge, window)
    assert np.all(np.isfinite(blocks)) and np.all(np.isfinite(edges))
    assert np.all(np.isfinite(oracle_unitary(1e-300, edge, window)))
