import numpy as np
import pytest

from ptcor.plant import (
    AgentModel,
    Exosystem,
    RegulatorError,
    check_full_rank_io,
    check_regulation_rank,
    solve_regulator,
)


def rlc_agent():
    Rb = 0.25
    return AgentModel(
        A=Rb * np.array([[-1.0, -3.0], [3.0, -3.0]]),
        B=Rb * np.array([[1.0, 1.0], [1.0, -3.0]]),
        E=np.zeros((2, 2)),
        C=Rb * np.array([[-3.0, 3.0], [-1.0, -3.0]]),
        D=Rb * np.array([[3.0, 3.0], [1.0, 1.0]]),
        F=np.eye(2),
        Cm=Rb * np.array([[-1.0, -3.0], [3.0, -3.0]]),
        Dm=Rb * np.array([[1.0, 1.0], [3.0, -3.0]]),
        Fm=np.zeros((2, 2)),
    )


def rlc_exo():
    return Exosystem(S0=np.array([[0.0, 1.0], [-1.0, 0.0]]), v0_init=np.array([1.0, 1.0]))


def scalar_agent(A=-1.0, B=1.0, C=1.0, D=0.0, E=0.0, F=-1.0):
    one = lambda v: np.array([[float(v)]])
    return AgentModel(A=one(A), B=one(B), E=one(E), C=one(C), D=one(D), F=one(F),
                      Cm=one(1.0), Dm=one(0.0), Fm=one(0.0))


def inverter_agent():
    b1 = 0.1 / 0.00135
    b2 = 1.0 / 0.00135
    F = np.array([[0.0, 0.0, -1.0, 0.0], [0.0, 0.0, 0.0, -1.0]])
    return AgentModel(
        A=np.array([[-b1, 50.0], [-50.0, -b1]]),
        B=np.diag([b2, b2]),
        E=np.array([[-b2, 0.0, 0.0, 0.0], [0.0, -b2, 0.0, 0.0]]),
        C=np.eye(2), D=np.zeros((2, 2)), F=F,
        Cm=np.eye(2), Dm=np.zeros((2, 2)), Fm=F,
    )


def inverter_exo():
    S0 = np.zeros((4, 4))
    S0[0, 1] = 0.5 * (50.0 - 48.5)
    S0[1, 0] = 0.5 * (380.0 - 375.0)
    return S0


class TestModelValidation:
    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="B"):
            AgentModel(A=np.eye(2), B=np.eye(3), E=np.zeros((2, 1)),
                       C=np.eye(2), D=np.zeros((2, 2)), F=np.zeros((2, 1)),
                       Cm=np.eye(2), Dm=np.zeros((2, 2)), Fm=np.zeros((2, 1)))

    def test_unstable_exosystem_warns(self):
        with pytest.warns(UserWarning, match="neutrally stable"):
            Exosystem(S0=inverter_exo(), v0_init=np.array([0.0, 0.0, 3.0, -1.0]))


class TestRegulationRank:
    def test_scalar_chain(self):
        res = check_regulation_rank(scalar_agent(),
                                    Exosystem(S0=np.zeros((1, 1)), v0_init=[0.0]))
        assert bool(res)
        assert res.checks == [(0j, 2)]

    def test_no_control_authority(self):
        res = check_regulation_rank(scalar_agent(A=0.0, B=0.0, C=1.0, D=0.0),
                                    Exosystem(S0=np.zeros((1, 1)), v0_init=[0.0]))
        assert not res
        assert res.checks[0][1] == 1

    def test_rlc_agent(self):
        res = check_regulation_rank(rlc_agent(), rlc_exo())
        assert bool(res)
        # distinct eigenvalues +-i, both at full rank 4
        assert len(res.checks) == 2
        assert all(r == 4 for _, r in res.checks)

    def test_repeated_exosystem_eigenvalues_deduplicated(self):
        with pytest.warns(UserWarning):
            exo = Exosystem(S0=inverter_exo(), v0_init=np.zeros(4))
        res = check_regulation_rank(inverter_agent(), exo)
        # spectrum is {+r, -r, 0, 0}; the double zero is checked once
        assert len(res.checks) == 3
        assert bool(res)


class TestFullRankIO:
    def test_identity_pair(self):
        a = scalar_agent()
        assert check_full_rank_io(a)

    def test_column_deficient(self):
        agent = AgentModel(A=np.eye(2), B=np.array([[1.0], [0.0]]), E=np.zeros((2, 1)),
                           C=np.eye(2), D=np.zeros((2, 1)), F=np.zeros((2, 1)),
                           Cm=np.eye(2), Dm=np.zeros((2, 1)), Fm=np.zeros((2, 1)))
        assert not check_full_rank_io(agent)

    def test_inverter_diag_b(self):
        assert check_full_rank_io(inverter_agent())


class TestSolveRegulator:
    def test_scalar_hand_solution(self):
        # X S0 = A X + B U + E -> 0 = -X + U; 0 = C X + D U + F -> X = 1, U = 1
        sol = solve_regulator(scalar_agent(), Exosystem(S0=np.zeros((1, 1)), v0_init=[0.0]))
        assert sol.X == pytest.approx(1.0)
        assert sol.U == pytest.approx(1.0)
        assert sol.residual_dynamics <= 1e-12
        assert sol.residual_output <= 1e-12

    def test_zero_forcing_gives_zero_solution(self):
        sol = solve_regulator(scalar_agent(E=0.0, F=0.0),
                              Exosystem(S0=np.zeros((1, 1)), v0_init=[0.0]))
        assert abs(sol.X[0, 0]) <= 1e-12
        assert abs(sol.U[0, 0]) <= 1e-12

    def test_rlc_solution(self):
        agent, exo = rlc_agent(), rlc_exo()
        sol = solve_regulator(agent, exo)
        assert np.abs(sol.X @ exo.S0 - agent.A @ sol.X - agent.B @ sol.U - agent.E).max() <= 1e-10
        assert np.abs(agent.C @ sol.X + agent.D @ sol.U + agent.F).max() <= 1e-10
        # oracle: the same vectorized system through numpy.linalg.solve
        n = m = p = q = 2
        Iq, In = np.eye(q), np.eye(n)
        M = np.vstack([
            np.hstack([np.kron(exo.S0.T, In) - np.kron(Iq, agent.A), -np.kron(Iq, agent.B)]),
            np.hstack([np.kron(Iq, agent.C), np.kron(Iq, agent.D)]),
        ])
        rhs = np.concatenate([agent.E.flatten(order="F"), -agent.F.flatten(order="F")])
        z = np.linalg.solve(M, rhs)
        assert np.allclose(sol.X, z[:4].reshape((2, 2), order="F"), atol=1e-11)
        assert np.allclose(sol.U, z[4:].reshape((2, 2), order="F"), atol=1e-11)
        # feedforward matches the bundled scenario gain to rounding
        assert np.allclose(sol.U, [[-2.0, -1.0 / 3.0], [0.0, -2.0 / 3.0]], atol=1e-12)

    def test_inverter_solution_matches_bundled_feedforward(self):
        with pytest.warns(UserWarning):
            exo = Exosystem(S0=inverter_exo(), v0_init=np.zeros(4))
        agent = inverter_agent()
        sol = solve_regulator(agent, exo)
        Kbar = np.array([[0.0973, -0.0675], [0.0675, 0.0973]])
        Ktil = sol.U - Kbar @ sol.X
        assert np.allclose(Ktil, [[1.0, 0.0, 0.0027, 0.0], [0.0, 1.0, 0.0, 0.0027]], atol=1e-12)

    def test_rank_failure_raises_not_least_squares(self):
        with pytest.raises(RegulatorError):
            solve_regulator(scalar_agent(A=0.0, B=0.0, C=1.0, D=0.0, E=1.0, F=1.0),
                            Exosystem(S0=np.zeros((1, 1)), v0_init=[0.0]))

    def test_near_singular_square_system_rejected(self):
        # [A - 0 I, B; C, D] has determinant -4.4e-16: singular to working precision
        with pytest.raises(RegulatorError, match="numerically singular"):
            solve_regulator(scalar_agent(A=1.0, B=1.0, C=1.0, D=1.0 + 4.4e-16, E=1.0, F=1.0),
                            Exosystem(S0=np.zeros((1, 1)), v0_init=[0.0]))

    def test_uniqueness_under_row_permutation(self):
        agent, exo = rlc_agent(), rlc_exo()
        sol = solve_regulator(agent, exo)
        n = q = 2
        Iq, In = np.eye(q), np.eye(n)
        M = np.vstack([
            np.hstack([np.kron(exo.S0.T, In) - np.kron(Iq, agent.A), -np.kron(Iq, agent.B)]),
            np.hstack([np.kron(Iq, agent.C), np.kron(Iq, agent.D)]),
        ])
        rhs = np.concatenate([agent.E.flatten(order="F"), -agent.F.flatten(order="F")])
        rng = np.random.RandomState(7)
        perm = rng.permutation(M.shape[0])
        z = np.linalg.solve(M[perm], rhs[perm])
        assert np.allclose(z[:4].reshape((2, 2), order="F"), sol.X, atol=1e-9)
        assert np.allclose(z[4:].reshape((2, 2), order="F"), sol.U, atol=1e-9)
