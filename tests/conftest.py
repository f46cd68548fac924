"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the package's own code paths:
Bessel values come from the power series evaluated in 50-digit
arithmetic, propagators from scipy's expm on a directly assembled
Hamiltonian, walk expectations from explicit enumeration, the walk
law from n sequential convolutions of the step law, the moments of
`channel-evolve` from the Bloch profile (J_x from scipy) convolved step
by step, the sampled walk tally from one `rng.multinomial` call over all
trials, and the measured
values of acceptance checks 1 and 2 from the public routes, one
whole-window state at a time.  The routes that work only where the mass
is are held to the same bits as references that work everywhere: the
single-atom position oracle on whole-window blocks, check 5's distance
over every dense site, check 7's defects one n at a time from step-by-step
log convolutions, and the leak refusal of the position CGF oracle after
all n steps.  The crop helpers of `state.py` are held to the rules they
replaced: the occupied range of a joint operator, its crop and restore,
the support square of a stack, and check 1 and 2's states drawn one at a
time.  Ten routes that only the tests call live here too: the deformed kick without
free phases, its Heisenberg adjoint, the diagonal-state builder, the closed-form
unitary as one matrix, the reservoir's deformed reduction, the rate function of
the entropy-like increment, the density-matrix check with its Hermiticity
defect and least eigenvalue, and the line that prints an acceptance check.  So do
the tolerances that only the tests read (`TEST_TOL`).  The oracles that read
mpmath or scipy import it where they run, so a test that needs neither runs
without them.
"""
import math
import sys
from dataclasses import dataclass

import numpy as np
import pytest

from starkwalk import (
    TOL,
    AtomGibbs,
    ConfigError,
    JointDensityMatrix,
    LatticeLaw,
    LatticeWindow,
    ModelParams,
    NumericsError,
    ParticleDensityMatrix,
    ReservoirConfig,
    apply_channel,
    channel_oracle,
    kraus_weights,
    propagate_closed,
    propagate_oracle,
    repeated_interaction_propagator,
)
from starkwalk.channel import _kick, deformed_weights
from starkwalk.fcs import _occupations
from starkwalk.params import _require_phase, _require_real
from starkwalk.singleatom import _closed_blocks, _conjugate_on, _oracle_blocks, _scatter
from starkwalk.state import (
    _crop,
    _uncrop,
    position_distribution,
    position_operator,
    require_interior,
    transform_matrix,
)
from starkwalk.verify import CHECK_PARAMS, CheckResult, _normal_cdf, _trace_norm
from starkwalk.walk import _rate, log_step_kernel, walk_log_pmf


@dataclass(frozen=True)
class SuiteTolerances:
    """The bounds that only the tests read, each at the value it had in
    `starkwalk.config.Tolerances`; the runtime's and `verify-all`'s stay there."""

    # state invariants
    hermiticity: float = 1e-12
    psd_min_eig: float = -1e-10

    # special functions
    bessel_vs_series: float = 1e-12

    # channel / propagator cross-checks
    adjoint_duality: float = 1e-10
    time_reversal: float = 1e-10
    master_vs_channel: float = 1e-14

    # random walk statistics
    scgf_symmetry: float = 1e-12

    # single-atom dynamics
    quasi_periodic_fit: float = 1e-8
    rabi_factorization: float = 1e-12


TEST_TOL = SuiteTolerances()


def hermiticity_defect(dm: ParticleDensityMatrix) -> float:
    """The largest entry of |rho - rho*|."""
    return float(np.max(np.abs(dm.coeffs - dm.coeffs.conj().T)))


def min_eigenvalue(dm: ParticleDensityMatrix) -> float:
    """The smallest eigenvalue of the Hermitian part of rho."""
    return float(np.linalg.eigvalsh(0.5 * (dm.coeffs + dm.coeffs.conj().T))[0])


def check_density(dm: ParticleDensityMatrix) -> None:
    """Refuse dm unless it is a density matrix: Hermitian, of unit trace and positive
    semidefinite, each within its tolerance; a ConfigError names the defect."""
    defect, trace, low = hermiticity_defect(dm), dm.trace(), min_eigenvalue(dm)
    if defect > TEST_TOL.hermiticity:
        raise ConfigError(f"not Hermitian: defect {defect:.3e}")
    if abs(trace - 1.0) > TOL.trace:
        raise ConfigError(f"trace {trace:.12f} != 1")
    if low < TEST_TOL.psd_min_eig:
        raise ConfigError(f"not PSD: min eigenvalue {low:.3e}")


def check_line(result: CheckResult) -> str:
    """One acceptance check as a line: status, measured value, tolerance, detail."""
    status = "PASS" if result.passed else "FAIL"
    extra = f"  [{result.detail}]" if result.detail else ""
    return (f"{status}  {result.name}: measured {result.measured:.3e} "
            f"vs tolerance {result.tolerance:.3e}{extra}")


@pytest.fixture
def params():
    return ModelParams(E=2.0, F=1.0, lam=0.5, tau=1.0, beta=1.0)


def bessel_series(nu: int, z: float, dps: int = 50) -> float:
    """Power-series oracle: J_nu(z) = sum (-1)^m (z/2)^{2m+nu} / (m! (m+nu)!)."""
    mp = pytest.importorskip("mpmath")
    sign = 1.0
    if nu < 0:
        nu, sign = -nu, (-1.0) ** nu
    with mp.workdps(dps):
        half = mp.mpf(z) / 2
        total = mp.mpf(0)
        term_scale = half**nu
        for m in range(0, 200):
            term = (-1) ** m * half ** (2 * m) * term_scale / (mp.factorial(m) * mp.factorial(m + nu))
            total += term
            if m > 10 and abs(term) < mp.mpf(10) ** (-dps) * (abs(total) + 1):
                break
        return sign * float(total)


def direct_joint_hamiltonian(params: ModelParams, window: LatticeWindow) -> np.ndarray:
    """H = H_p + H_a + lam (T b* + T* b) assembled from first principles."""
    n = window.n_k
    S = np.eye(n, k=-1)          # translation in the eigenbasis
    Ek = np.diag(2.0 - params.F * window.k_values.astype(float))
    b = np.array([[0.0, 1.0], [0.0, 0.0]])
    H = (np.kron(np.eye(2), Ek)
         + np.kron(np.diag([0.0, params.E]), np.eye(n))
         + params.lam * (np.kron(b.T, S) + np.kron(b, S.T)))
    return H


def kron_channel_oracle(dm: ParticleDensityMatrix, alpha: float,
                        params: ModelParams) -> ParticleDensityMatrix:
    """The deformed reduced map as the partial trace over the whole window.

    The full 2n_k x 2n_k product rho (x) rho_beta^{1-alpha} from `np.kron`,
    `propagate_oracle` over one interaction, then the two diagonal atom
    blocks weighted by rho_beta^{alpha}: the reference that the cropped
    `channel_oracle` must equal bit for bit.
    """
    gibbs = AtomGibbs.from_params(params)
    joint = JointDensityMatrix.product(dm, gibbs.power(1.0 - alpha))
    evolved = propagate_oracle(joint, params.tau, params).coeffs
    n = dm.window.n_k
    w_ground, w_excited = np.diagonal(gibbs.power(alpha))
    return ParticleDensityMatrix(
        dm.window, w_ground * evolved[:n, :n] + w_excited * evolved[n:, n:])


def direct_step_hamiltonian(params: ModelParams, window: LatticeWindow, M: int,
                            j: int) -> np.ndarray:
    """H_j = H_p + sum_i E b_i* b_i + lam (T b_j* + T* b_j) on M atoms (x) particle.

    Assembled from kron products: atom 0 is the leading factor, the
    particle the trailing one, and only atom j is coupled.
    """
    K = window.n_k
    S = np.eye(K, k=-1)          # translation in the eigenbasis
    b = np.array([[0.0, 1.0], [0.0, 0.0]])
    Hp = np.diag(2.0 - params.F * window.k_values.astype(float))

    def on_atom(i, op):
        out = np.eye(1)
        for a in range(M):
            out = np.kron(out, op if a == i else np.eye(2))
        return out

    H = np.kron(np.eye(1 << M), Hp)
    for i in range(M):
        H = H + params.E * np.kron(on_atom(i, np.diag([0.0, 1.0])), np.eye(K))
    return H + params.lam * (np.kron(on_atom(j, b.T), S) + np.kron(on_atom(j, b), S.T))


def random_density(rng, window: LatticeWindow, half: int, center: int = 0) -> ParticleDensityMatrix:
    coeffs = np.zeros((window.n_k, window.n_k), dtype=complex)
    s = 2 * half + 1
    g = rng.normal(size=(s, s)) + 1j * rng.normal(size=(s, s))
    block = g @ g.conj().T
    block /= np.trace(block).real
    i0 = window.k_index(center - half)
    coeffs[i0:i0 + s, i0:i0 + s] = block
    return ParticleDensityMatrix(window, coeffs)


def random_joint(rng, window: LatticeWindow, half: int) -> JointDensityMatrix:
    n = window.n_k
    coeffs = np.zeros((2 * n, 2 * n), dtype=complex)
    s = 2 * half + 1
    g = rng.normal(size=(2 * s, 2 * s)) + 1j * rng.normal(size=(2 * s, 2 * s))
    block = g @ g.conj().T
    block /= np.trace(block).real
    i0 = window.k_index(-half)
    idx = np.concatenate([np.arange(i0, i0 + s), n + np.arange(i0, i0 + s)])
    coeffs[np.ix_(idx, idx)] = block
    return JointDensityMatrix(window, coeffs)


def random_interior_operator(rng, window: LatticeWindow, half: int) -> np.ndarray:
    """Arbitrary (non-Hermitian) operator supported on |k| <= half."""
    n = window.n_k
    A = np.zeros((n, n), dtype=complex)
    s = 2 * half + 1
    i0 = window.k_index(-half)
    A[i0:i0 + s, i0:i0 + s] = rng.normal(size=(s, s)) + 1j * rng.normal(size=(s, s))
    return A


def assert_law_matches_oracle(law: LatticeLaw, oracle: LatticeLaw):
    """A law vs its oracle on the same sites: `LatticeLaw.oracle_gap`, relative agreement
    where the oracle is in the normal double range, within `walk_law_rel`; elsewhere
    both are below it (subnormals carry no relative accuracy)."""
    assert law.oracle_gap(oracle) <= TOL.walk_law_rel
    assert np.all(law.pmf[oracle.pmf < sys.float_info.min] < 2.0 * sys.float_info.min)


def sequential_walk_law(n: int, params: ModelParams) -> LatticeLaw:
    """The law of S_n as n sequential convolutions of the step law, O(n^2): the
    oracle of `walk_pmf_oracle`, which reaches the same power by binary powering."""
    kernel = kraus_weights(params)
    pmf = np.array([1.0])
    for _ in range(n):
        pmf = np.convolve(pmf, kernel)
    return LatticeLaw(n=n, first=-n, pmf=pmf)


def convolved_position_moments(n: int, params: ModelParams) -> np.ndarray:
    """(trace, mean, variance) of the position law of psi_0 after s = 0..n steps, O(n^2):
    J_x(2/F)^2 from scipy, convolved s times with the Kraus weights. The oracle of
    `channel-evolve`, which reads its rows from the drift and diffusion in O(n)."""
    special = pytest.importorskip("scipy.special")
    z = 2.0 / params.F
    xs = np.arange(-int(z) - 60, int(z) + 61)
    law, weights = special.jv(xs, z) ** 2, kraus_weights(params)
    rows = []
    for _ in range(n + 1):
        mean = float(np.dot(xs, law))
        rows.append([law.sum(), mean, float(np.dot((xs - mean) ** 2, law))])
        law, xs = np.convolve(law, weights), np.arange(xs[0] - 1, xs[-1] + 2)
    return np.array(rows)


def one_call_walk_tally(n: int, trials: int, seed: int,
                        params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """(values, counts) of S_n over `trials` walks from one `rng.multinomial` call and a
    `bincount` over the sampled range, O(trials) memory: the oracle of the streamed
    `sample_walk`, which draws the same Philox stream in chunks."""
    rng = np.random.Generator(np.random.Philox(seed))
    steps = rng.multinomial(n, kraus_weights(params), size=trials)
    s = steps[:, 2] - steps[:, 0]
    lo = s.min()
    tally = np.bincount(s - lo)
    seen = np.flatnonzero(tally)
    return seen + lo, tally[seen]


def per_state_channel_check() -> float:
    """Check 1's measured value, one whole-window state at a time: for each of the 20
    states of seed 11, `apply_channel` and `channel_oracle` at the three alphas, and the
    largest trace norm of the three differences (`_trace_norm`)."""
    params, window = CHECK_PARAMS, LatticeWindow(-32, 31, -32, 31)
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        dm = random_density(rng, window, 10)
        diffs = [apply_channel(dm, a, params).coeffs - channel_oracle(dm, a, params).coeffs
                 for a in (0.0, 0.3, 1.0)]
        worst = max(worst, _trace_norm(np.stack(diffs)))
    return worst


def per_state_propagator_check() -> float:
    """Check 2's measured value, one whole-window state at a time: for each of the 20
    joint states of seed 12, `propagate_closed` and `propagate_oracle` at the three
    times, and the largest entry of the differences."""
    params, window = CHECK_PARAMS, LatticeWindow(-24, 23, -24, 23)
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(20):
        state = random_joint(rng, window, 8)
        for t in (0.1, params.tau, 3.0 * params.tau):
            a, b = propagate_closed(state, t, params), propagate_oracle(state, t, params)
            worst = max(worst, float(np.max(np.abs(a.coeffs - b.coeffs))))
    return worst


def same_bits(a, b) -> bool:
    """a and b hold the same doubles bit for bit: equal shapes, dtypes and bytes in C
    order (a complex array as its real and imaginary parts), whatever their strides."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def same_bits_up_to_zero_signs(a, b) -> bool:
    """`same_bits` once +0.0 is added to every entry of both, which turns -0.0 into
    +0.0 and leaves every other double as it is: a route on a crop leaves +0.0 where
    the whole window's arithmetic can leave -0.0 (a phase times 0)."""
    return same_bits(np.asarray(a) + 0.0, np.asarray(b) + 0.0)


def whole_window_blocks(builder, t, params: ModelParams, window: LatticeWindow,
                        ks: slice) -> tuple[np.ndarray, np.ndarray]:
    """The blocks of the sectors of ks sliced from `builder`'s blocks of the whole
    window, and its edges: the reference for the builders' blocks of a k-range."""
    blocks, edges = builder(t, params, window)
    return blocks[..., ks.start:ks.stop - 1, :, :], edges


def widened_sites(occupied: np.ndarray) -> slice:
    """The sites marked in `occupied`, widened by one each side and clamped to the window;
    with no site marked, the first sector.  The reference of `state._span` at pad 1."""
    k = np.flatnonzero(occupied)
    if not k.size:
        return slice(0, 2)
    return slice(max(int(k[0]) - 1, 0), min(int(k[-1]) + 2, occupied.size))


def occupied_range(A: np.ndarray) -> slice:
    """The k-range of an atom-major joint operator A that W A W^dagger can reach: every
    k where a row or column of either atom block is nonzero, by `widened_sites`.  The
    reference of the range `state._crop` takes at atoms = 2."""
    n = A.shape[-1] // 2
    nz = A != 0
    occ = nz.any(axis=0) | nz.any(axis=1)
    return widened_sites(occ[:n] | occ[n:])


def crop_joint(A: np.ndarray, ks: slice) -> np.ndarray:
    """The atom-major 2n_k x 2n_k operator A on the k-range ks: both atom blocks, 2m x 2m."""
    n, m = A.shape[-1] // 2, ks.stop - ks.start
    return A.reshape(2, n, 2, n)[:, ks, :, ks].reshape(2 * m, 2 * m)


def scatter_joint(sub: np.ndarray, ks: slice, n: int) -> np.ndarray:
    """The atom-major 2n x 2n operator that is the 2m x 2m `sub` on the k-range ks and 0
    elsewhere: the reference of `state._uncrop` at atoms = 2."""
    m = ks.stop - ks.start
    out = np.zeros((2, n, 2, n), dtype=sub.dtype)
    out[:, ks, :, ks] = sub.reshape(2, m, 2, m)
    return out.reshape(2 * n, 2 * n)


def stacked_support_square(diffs: np.ndarray) -> slice:
    """The smallest square holding the nonzero rows and columns of every matrix in a
    stack, as a slice (empty if there are none): the reference of the crop of
    `verify._trace_norm`."""
    nz = np.any(diffs != 0.0, axis=tuple(range(diffs.ndim - 2)))    # over the stack
    idx = np.flatnonzero(nz.any(axis=0) | nz.any(axis=1))
    return slice(int(idx[0]), int(idx[-1]) + 1) if idx.size else slice(0, 0)


def dense_position_distribution(dm: ParticleDensityMatrix, F: float) -> np.ndarray:
    """`position_distribution`'s pmf with the sums over the whole window's k-range, every
    zero term included: the reference of its crop, O(n_x n_k^2)."""
    psi = transform_matrix(dm.window, F)
    return np.sum((psi @ dm.coeffs) * psi, axis=1).real


def per_state_random_states(rng, window: LatticeWindow, half: int, count: int,
                            atoms: int = 1) -> tuple[np.ndarray, slice]:
    """`verify._random_states` one state at a time: two normal draws per state, one
    Gram matrix each, placed on the widened k-range through `np.ix_`."""
    s = 2 * half + 1
    i0 = window.k_index(-half)
    occupied = np.zeros(window.n_k, dtype=bool)
    occupied[i0:i0 + s] = True
    ks = widened_sites(occupied)
    m = ks.stop - ks.start
    idx = (m * np.arange(atoms)[:, None] + np.arange(i0 - ks.start, i0 - ks.start + s)).ravel()
    block_of = np.ix_(idx, idx)
    stack = np.zeros((count, atoms * m, atoms * m), dtype=complex)
    for coeffs in stack:
        g = rng.normal(size=(atoms * s, atoms * s)) + 1j * rng.normal(size=(atoms * s, atoms * s))
        block = g @ g.conj().T
        block /= np.trace(block).real
        coeffs[block_of] = block
    return stack, ks


def whole_window_position_oracle(t: np.ndarray, initial: JointDensityMatrix,
                                 params: ModelParams) -> np.ndarray:
    """`position_oracle` on blocks of every sector of the window, all times at once,
    the sectors of the occupied range sliced out of them."""
    times = np.asarray(t, dtype=float)
    ks = occupied_range(initial.coeffs)
    m = ks.stop - ks.start
    X = position_operator(initial.window, params.F)[ks, ks]
    evolved = _conjugate_on(*whole_window_blocks(_oracle_blocks, times, params,
                                                 initial.window, ks),
                            crop_joint(initial.coeffs, ks))
    return np.sum(X.T * (evolved[..., :m, :m] + evolved[..., m:, m:]), axis=(-2, -1)).real


def dense_kolmogorov(law: LatticeLaw, mu: float, sigma: float) -> float:
    """Check 5's Kolmogorov distance over every site of the law, its zeros included."""
    z = (law.dx - mu) / sigma
    cdf = np.cumsum(law.pmf)
    phi = _normal_cdf(z)
    return float(np.max(np.maximum(np.abs(cdf - phi),
                                   np.abs(np.concatenate([[0.0], cdf[:-1]]) - phi))))


def log_convolve_step(logp: np.ndarray, logk: np.ndarray) -> np.ndarray:
    """One log-space convolution step: support widens by one on each side."""
    m = logp.size
    padded = np.full((3, m + 2), -np.inf)
    for i in range(3):
        padded[i, i:i + m] = logp + logk[i]
    return np.logaddexp.reduce(padded, axis=0)


def per_n_walk_fluctuation(params: ModelParams, steps: int) -> tuple[float, float]:
    """The walk part of check 7 one n at a time: (defect, gap) from `steps` successive
    `log_convolve_step` calls, the defects of each n reduced before the next step."""
    be = params.beta * params.E
    logk = log_step_kernel(params)
    logp = np.array([0.0])
    worst = 0.0
    for n in range(1, steps + 1):
        logp = log_convolve_step(logp, logk)
        k = np.arange(1, n + 1)
        worst = max(worst, float(np.max(np.abs(logp[n - k] - (logp[n + k] - be * k)))))
    gap = float(np.max(np.abs(walk_log_pmf(steps, params) - logp)
                       / np.maximum(1.0, np.abs(logp))))
    return worst, gap


def full_run_leaks(n: int, eta: float, rho_p: ParticleDensityMatrix,
                   params: ModelParams) -> bool:
    """Whether `position_cgf_oracle` refuses n steps at eta, by running all n steps of
    the deformed weights on the x-window and comparing the weight lost past it with
    `TOL.position_cgf_identity` of the weight left: the reference for its early refusal."""
    weights = deformed_weights(-eta, params)
    w = position_distribution(rho_p, params.F)[1]
    lost = 0.0
    for _ in range(n):
        out = np.convolve(w, weights)
        lost += out[0] + out[-1]
        w = out[1:-1]
    return lost > TOL.position_cgf_identity * float(np.sum(w))


def apply_deformed(dm: ParticleDensityMatrix, alpha: float,
                   params: ModelParams) -> ParticleDensityMatrix:
    """One deformed interaction-picture step (no free evolution): `apply_channel`
    without its free phases, on the occupied k-range of dm (`_crop`).

    Refuses with WindowError when support touches the boundary: mass is
    never silently truncated.
    """
    alpha = _require_real(alpha, "alpha")
    require_interior(np.diagonal(dm.coeffs))
    w = deformed_weights(alpha * params.beta * params.E, params)
    sub, ks = _crop(dm.coeffs)
    return ParticleDensityMatrix(dm.window, _uncrop(_kick(sub, w), ks, dm.window.n_k))


def adjoint_apply(B: np.ndarray, window: LatticeWindow, alpha: float,
                  params: ModelParams) -> np.ndarray:
    """Heisenberg-picture counterpart: adjoint Kraus step, then inverse free phases.

    On interior entries the identity observable satisfies
    adjoint(I) = theta(alpha) I exactly.
    """
    _require_real(alpha, "alpha")
    w = deformed_weights(alpha * params.beta * params.E, params)
    out = _kick(np.asarray(B, dtype=complex), w[::-1])
    _require_phase(params.tau * params.F, window.k_values)
    u = np.exp(1j * params.tau * params.F * window.k_values)
    return u.conj()[:, None] * out * u[None, :]


def from_diagonal(window: LatticeWindow, weights: np.ndarray) -> ParticleDensityMatrix:
    """The eigenbasis-diagonal state with the given weights on the window's k-range."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (window.n_k,):
        raise ConfigError("diagonal weight vector does not match window size")
    return ParticleDensityMatrix(window, np.diag(w.astype(complex)))


def closed_unitary(t: float, params: ModelParams, window: LatticeWindow) -> np.ndarray:
    """e^{-itH} from the closed form: rotation, diagonal phases, rotation back.

    Every sector is e^{-it(E_k + (E - F)/2)} R diag(e^{it omega0/2}, e^{-it omega0/2}) R^T,
    with R the real rotation by the mixing angle onto the dressed states
    (cos|k,g> - sin|k+1,e>, sin|k,g> + cos|k+1,e>); the two unpaired edge
    states take their bare phases.  t is one real time: the result is one matrix.
    """
    return _scatter(*_closed_blocks(_require_real(t, "t"), params, window))


def environment_power(cfg: ReservoirConfig, a: float) -> np.ndarray:
    """Diagonal of (rho_beta^a)^{(x)n} over the n atoms' bit configurations, from one
    atom's `AtomGibbs.power`; NumericsError where that power or a product of n of them
    is not a finite double."""
    ground, excited = np.diagonal(AtomGibbs.from_params(cfg.params).power(a)).tolist()
    with np.errstate(over="ignore"):
        w = np.prod(np.where(_occupations(cfg.n), excited, ground), axis=1)
    if not np.all(np.isfinite(w)):
        raise NumericsError(f"rho_beta^a on {cfg.n} atoms at a = {a!r} overflows a double")
    return w


def environment_reduced_map(cfg: ReservoirConfig, window: LatticeWindow, A: np.ndarray,
                            alpha: float = 0.0) -> np.ndarray:
    """Brute-force deformed reduction: trace the reservoir out of U (A x rho^{1-a}) U*,
    with U the dense propagator on `window`.

    For alpha = 0 this is the reduced Schroedinger dynamics after n
    interactions; for general alpha it must agree with n applications of
    the deformed channel.  NumericsError where alpha is NaN or either power of
    rho_beta is not a finite double (`environment_power`).
    """
    alpha = _require_real(alpha, "alpha")
    K, B = window.n_k, 1 << cfg.n
    # rho_beta^{1-alpha} and rho_beta^{alpha} are diagonal over bit configurations
    kept, traced = environment_power(cfg, 1.0 - alpha), environment_power(cfg, alpha)
    U = repeated_interaction_propagator(cfg, window)
    joint = np.kron(np.diag(kept.astype(complex)), np.asarray(A, dtype=complex))
    evolved = (U @ joint @ U.conj().T).reshape(B, K, B, K)
    return np.einsum("b,bkbl->kl", traced, evolved)


def rate_function_entropy(s: float, params: ModelParams) -> float:
    """Rate function of the entropy-like increment per step.

    phi(s) = sup_alpha (alpha s - log theta(alpha)) = I(-s / (beta E)), read
    off the closed-form `rate_function`; +inf past the endpoints.  Requires
    beta E > 0; satisfies phi(-s) = phi(s) - s.
    """
    _require_real(s, "s")
    be = params.beta * params.E
    if be <= 0.0:
        raise ConfigError("entropy rate function needs beta E > 0")
    x = -s / be
    if math.isnan(x):
        raise NumericsError("rate function of NaN")
    return _rate(x, log_step_kernel(params).tolist(), be)
