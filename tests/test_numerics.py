"""The numerical kernels the package relies on, each tested where it now lives.

Eigenvalues come from `np.linalg.eigvals`, ranks from the SVD rank
`np.linalg.matrix_rank` with `plant.RANK_RTOL`, square solves from
`scipy.linalg.solve`, and every Q = I Lyapunov certificate from
`numerics.lyapunov_certificate`.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from ptcor.numerics import lyapunov_certificate
from ptcor.plant import RANK_RTOL, AgentModel, Exosystem, solve_regulator
from tests.oracle import solve_lyapunov

# RLC-circuit agent, Rbar = 1/(R1+R2) = 0.25 with R1 = 3, R2 = 1, C = L = 1.
A1 = 0.25 * np.array([[-1.0, -3.0], [3.0, -3.0]])
B1 = 0.25 * np.array([[1.0, 1.0], [1.0, -3.0]])
C1 = 0.25 * np.array([[-3.0, 3.0], [-1.0, -3.0]])
D1 = 0.25 * np.array([[3.0, 3.0], [1.0, 1.0]])
K1 = np.array([[-9.0, -3.0], [-3.0, 3.0]])


def spectra_close(got, expected, tol=1e-9):
    got = sorted(np.asarray(got, dtype=complex), key=lambda z: (z.real, z.imag))
    expected = sorted(np.asarray(expected, dtype=complex), key=lambda z: (z.real, z.imag))
    return all(abs(g - e) <= tol for g, e in zip(got, expected)) and len(got) == len(expected)


def rank(M):
    return np.linalg.matrix_rank(M, rtol=RANK_RTOL)


small_real = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False)


def square_matrices(max_n=6):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.lists(small_real, min_size=n * n, max_size=n * n).map(
            lambda vals: np.array(vals).reshape(n, n)
        )
    )


class TestEig:
    """`np.linalg.eigvals`, behind every spectral test in the package."""

    def test_diagonal(self):
        assert spectra_close(np.linalg.eigvals([[-3.0, 0.0], [0.0, -3.0]]), [-3, -3])

    def test_rotation_generator(self):
        assert spectra_close(np.linalg.eigvals([[0.0, 1.0], [-1.0, 0.0]]), [1j, -1j])

    def test_rlc_state_loop_product(self):
        # hand product: B1 @ K1 = -3 I
        assert np.allclose(B1 @ K1, -3.0 * np.eye(2))
        assert spectra_close(np.linalg.eigvals(B1 @ K1), [-3, -3])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            lyapunov_certificate(np.zeros((2, 3)))

    @given(square_matrices())
    @settings(max_examples=60, deadline=None)
    def test_conjugate_closed_and_trace(self, M):
        lam = np.linalg.eigvals(M)
        scale = max(1.0, np.abs(lam).max())
        # conjugate closure: the multiset equals its own conjugate
        assert spectra_close(lam, np.conj(lam), tol=1e-7 * scale)
        assert abs(lam.sum() - np.trace(M)) <= 1e-8 * max(1.0, abs(np.trace(M)))

    @given(square_matrices(max_n=5))
    @settings(max_examples=40, deadline=None)
    def test_reproduces_characteristic_polynomial(self, M):
        lam = np.linalg.eigvals(M)
        mine = np.poly(lam)
        # independent route: Faddeev-LeVerrier recursion for the coefficients
        n = M.shape[0]
        coeffs = [1.0]
        Mk = M.copy()
        for k in range(1, n + 1):
            c = -np.trace(Mk) / k
            coeffs.append(c)
            if k < n:
                Mk = M @ (Mk + c * np.eye(n))
        scale = max(1.0, float(np.abs(coeffs).max()))
        assert np.allclose(mine.real, coeffs, atol=1e-6 * scale)
        assert np.abs(mine.imag).max() <= 1e-7 * scale


class TestCrank:
    """The SVD rank with the package's relative cutoff `RANK_RTOL`."""

    def test_identity(self):
        assert rank(np.eye(3)) == 3

    def test_zero(self):
        assert rank(np.zeros((2, 3))) == 0

    def test_empty(self):
        assert rank(np.zeros((0, 0))) == 0

    def test_rlc_regulation_block_at_i(self):
        c = 1j
        block = np.block([
            [A1 - c * np.eye(2), B1.astype(complex)],
            [C1.astype(complex), D1.astype(complex)],
        ])
        assert rank(block) == 4

    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=5),
        st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=5, max_size=5),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_row_scaling_invariance(self, n, r, scales, rng):
        r = min(r, n)
        # rank-r matrix with well-separated structure
        rs = np.random.RandomState(rng.randint(0, 2**31 - 1))
        left = rs.uniform(-2, 2, size=(n, r)) + np.eye(n, r)
        right = rs.uniform(-2, 2, size=(r, n)) + np.eye(r, n)
        M = left @ right
        base = rank(M)
        assert base == np.linalg.matrix_rank(M, tol=1e-8)
        scaled = np.diag(scales[:n]) @ M
        assert rank(scaled) == base


class TestSolveLyapunov:
    """`lyapunov_certificate`: P M + M^T P = -I for Hurwitz M, and its rate."""

    def test_identity_factor(self):
        P, rate = lyapunov_certificate(-np.eye(2))
        assert np.allclose(P, 0.5 * np.eye(2), atol=1e-12)
        assert rate == pytest.approx(1.0, abs=1e-12)

    def test_rlc_state_loop(self):
        # P (-3I) + (-3I) P = -I  ->  P = I/6, i.e. certified rate 3 for BK = -3I
        P, rate = lyapunov_certificate(B1 @ K1)
        assert np.allclose(P, np.eye(2) / 6.0, atol=1e-12)
        assert rate == pytest.approx(3.0, abs=1e-12)

    def test_chain_graph_block(self):
        H = np.eye(6)
        H[np.arange(1, 6), np.arange(0, 5)] = -1.0
        P, _ = lyapunov_certificate(-H)
        assert np.abs(P @ H + H.T @ P - np.eye(6)).max() <= 1e-10
        assert np.allclose(P, solve_lyapunov(H, np.eye(6)), rtol=0, atol=1e-12 * np.abs(P).max())

    def test_resonant_pair(self):
        # eigenvalues 1 and -1 sum to zero; the Hurwitz precondition rejects them
        with pytest.raises(ValueError, match="not Hurwitz"):
            lyapunov_certificate(np.diag([1.0, -1.0]))

    @given(square_matrices(max_n=5))
    @settings(max_examples=40, deadline=None)
    def test_hurwitz_gives_positive_definite(self, M):
        n = M.shape[0]
        abscissa = max(ev.real for ev in np.linalg.eigvals(M)) + 1.0
        P, rate = lyapunov_certificate(M - abscissa * np.eye(n))
        assert np.abs(P - P.T).max() <= 1e-12
        assert np.linalg.eigvalsh(P).min() > 0
        assert 0 < rate <= 1.0 + 1e-9


class TestSolveBlockLinear:
    """`scipy.linalg.solve`, the square regulator solve inside `solve_regulator`."""

    def test_identity(self):
        b = np.array([1.0, -2.0, 3.0])
        assert np.allclose(scipy.linalg.solve(np.eye(3), b), b)

    def test_diagonal(self):
        x = scipy.linalg.solve(np.diag([2.0, 4.0]), [2.0, 8.0])
        assert np.allclose(x, [1.0, 2.0])

    def test_rlc_regulator_system(self):
        # regulator equations of the RLC agent; residual check by
        # substitution into the two matrix equations
        S0 = np.array([[0.0, 1.0], [-1.0, 0.0]])
        E1 = np.zeros((2, 2))
        F1 = np.eye(2)
        agent = AgentModel(A=A1, B=B1, E=E1, C=C1, D=D1, F=F1,
                           Cm=np.eye(2), Dm=np.zeros((2, 2)), Fm=np.zeros((2, 2)))
        sol = solve_regulator(agent, Exosystem(S0=S0, v0_init=[1.0, 0.0]))
        X, U = sol.X, sol.U
        assert np.abs(X @ S0 - A1 @ X - B1 @ U - E1).max() <= 1e-10
        assert np.abs(C1 @ X + D1 @ U + F1).max() <= 1e-10
