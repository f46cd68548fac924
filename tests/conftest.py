"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the package's own code paths:
Bessel values come from the power series evaluated in 50-digit
arithmetic, propagators from scipy's expm on a directly assembled
Hamiltonian, walk expectations from explicit enumeration, and the walk
law from n sequential convolutions of the step law.
"""
import sys

import mpmath as mp
import numpy as np
import pytest

from starkwalk import (
    TOL,
    AtomGibbs,
    JointDensityMatrix,
    LatticeLaw,
    LatticeWindow,
    ModelParams,
    ParticleDensityMatrix,
    kraus_weights,
    propagate_oracle,
)


@pytest.fixture
def params():
    return ModelParams(E=2.0, F=1.0, lam=0.5, tau=1.0, beta=1.0)


def bessel_series(nu: int, z: float, dps: int = 50) -> float:
    """Power-series oracle: J_nu(z) = sum (-1)^m (z/2)^{2m+nu} / (m! (m+nu)!)."""
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
    kernel = kraus_weights(params).as_array()
    pmf = np.array([1.0])
    for _ in range(n):
        pmf = np.convolve(pmf, kernel)
    return LatticeLaw(n=n, first=-n, pmf=pmf)
