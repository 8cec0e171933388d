"""Follower and exosystem models, structural rank checks, regulator equations.

Each follower is the linear plant

    x'  = A x + B u + E v0
    e   = C x + D u + F v0         (regulated output)
    y   = Cm x + Dm u + Fm v0      (measurement output)

driven by the autonomous exosystem v0' = S0 v0.  The regulator equations

    X S0 = A X + B U + E,      0 = C X + D U + F

define the zero-error manifold x = X v0 and the feedforward input U v0.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

REGULATOR_RTOL = 1e-10
# Singular values below RANK_RTOL * sigma_max do not count towards a rank.
RANK_RTOL = 1e-9
# Repeated exosystem eigenvalues are collapsed before the rank loop.
EIGENVALUE_DEDUP_TOL = 1e-8


class RegulatorError(ValueError):
    """The regulator equations are not (numerically) solvable."""


def _mat(value, rows, cols, name):
    M = np.asarray(value, dtype=float)
    if M.shape != (rows, cols):
        raise ValueError(f"{name} has shape {M.shape}, expected ({rows}, {cols})")
    if not np.isfinite(M).all():
        raise ValueError(f"{name} contains non-finite entries")
    return M


def _rows_cols(value) -> tuple:
    """The first two axes of `value`'s shape, -1 where it has fewer; `_mat` rejects all but two."""
    return (np.shape(value) + (-1, -1))[:2]


@dataclass(eq=False)
class AgentModel:
    """State-space matrices of one follower; dimensions are cross-checked."""

    A: np.ndarray
    B: np.ndarray
    E: np.ndarray
    C: np.ndarray
    D: np.ndarray
    F: np.ndarray
    Cm: np.ndarray
    Dm: np.ndarray
    Fm: np.ndarray

    def __post_init__(self):
        # n, m, q, p, pm: the rows of A, the columns of B and E, the rows of C and Cm; _mat checks every shape
        (n, _), (_, m), (_, q), (p, _), (pm, _) = map(_rows_cols, (self.A, self.B, self.E, self.C, self.Cm))
        self.A = _mat(self.A, n, n, "A")
        self.B = _mat(self.B, n, m, "B")
        self.E = _mat(self.E, n, q, "E")
        self.C = _mat(self.C, p, n, "C")
        self.D = _mat(self.D, p, m, "D")
        self.F = _mat(self.F, p, q, "F")
        self.Cm = _mat(self.Cm, pm, n, "Cm")
        self.Dm = _mat(self.Dm, pm, m, "Dm")
        self.Fm = _mat(self.Fm, pm, q, "Fm")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]

    @property
    def pm(self) -> int:
        return self.Cm.shape[0]

    @property
    def q(self) -> int:
        return self.E.shape[1]


@dataclass(eq=False)
class Exosystem:
    """Autonomous reference generator v0' = S0 v0.

    S0 is expected to be neutrally stable (spectrum in the closed left half
    plane).  A violation is reported as a warning rather than an error so
    that exploratory scenarios can still be simulated.
    """

    S0: np.ndarray
    v0_init: np.ndarray

    def __post_init__(self):
        q = _rows_cols(self.S0)[0]
        self.S0 = _mat(self.S0, q, q, "S0")
        self.v0_init = _mat(np.reshape(self.v0_init, (1, -1)), 1, q, "v0_init")[0]
        worst = float(np.linalg.eigvals(self.S0).real.max())
        if worst > 1e-9:
            warnings.warn(
                f"exosystem is not neutrally stable: max Re(eig(S0)) = {worst:.4g} > 0",
                stacklevel=2,
            )

    @property
    def q(self) -> int:
        return self.S0.shape[0]


@dataclass(eq=False)
class RegulatorSolution:
    """Solution (X, U) of the regulator equations with achieved residuals."""

    X: np.ndarray
    U: np.ndarray
    residual_dynamics: float
    residual_output: float


@dataclass
class RegulationRankResult:
    """Outcome of the per-eigenvalue rank test, truthy iff all ranks are full."""

    ok: bool
    required: int
    checks: list = field(default_factory=list)  # (eigenvalue, measured rank)

    def __bool__(self) -> bool:
        return self.ok


def _distinct_eigenvalues(S0: np.ndarray) -> list[complex]:
    distinct: list[complex] = []
    for ev in np.linalg.eigvals(S0):
        if all(abs(ev - seen) > EIGENVALUE_DEDUP_TOL for seen in distinct):
            distinct.append(complex(ev))
    return distinct


def check_regulation_rank(agent: AgentModel, exo: Exosystem) -> RegulationRankResult:
    """Test that [A - cI, B; C, D] has full row rank n+p at every exosystem eigenvalue.

    This is the solvability condition for the regulator equations; the
    result records the measured SVD rank per distinct eigenvalue.
    """
    n, p = agent.n, agent.p
    required = n + p
    result = RegulationRankResult(ok=True, required=required)
    for c in _distinct_eigenvalues(exo.S0):
        block = np.block([
            [agent.A - c * np.eye(n), agent.B.astype(complex)],
            [agent.C.astype(complex), agent.D.astype(complex)],
        ])
        r = int(np.linalg.matrix_rank(block, rtol=RANK_RTOL))
        result.checks.append((c, r))
        if r != required:
            result.ok = False
    return result


def check_full_rank_io(agent: AgentModel) -> bool:
    """True iff rank(B) = rank(Cm) = n, the prerequisite for the closed-form gain rules."""
    n = agent.n
    return bool(np.linalg.matrix_rank(agent.B, rtol=RANK_RTOL) == n
                and np.linalg.matrix_rank(agent.Cm, rtol=RANK_RTOL) == n)


def solve_regulator(agent: AgentModel, exo: Exosystem) -> RegulatorSolution:
    """Solve X S0 = A X + B U + E and 0 = C X + D U + F by vectorization.

    The two matrix equations become one linear system in (vec X, vec U);
    with p = m the system is square and solved directly, otherwise a
    least-squares solution is accepted only if it meets the same residual
    tolerance, so a rank-deficient problem can never return a spurious fit.
    """
    A, B, E = agent.A, agent.B, agent.E
    C, D, F = agent.C, agent.D, agent.F
    S0 = exo.S0
    n, m, p, q = agent.n, agent.m, agent.p, agent.q

    In, Iq = np.eye(n), np.eye(q)
    top = np.hstack([np.kron(S0.T, In) - np.kron(Iq, A), -np.kron(Iq, B)])
    bottom = np.hstack([np.kron(Iq, C), np.kron(Iq, D)])
    M = np.vstack([top, bottom])
    rhs = np.concatenate([E.flatten(order="F"), -F.flatten(order="F")])

    try:
        if M.shape[0] == M.shape[1]:
            with warnings.catch_warnings():
                # an ill-conditioned square system is as unusable as a singular one
                warnings.simplefilter("error", scipy.linalg.LinAlgWarning)
                z = scipy.linalg.solve(M, rhs)
        else:
            z, *_ = np.linalg.lstsq(M, rhs, rcond=None)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgWarning) as exc:
        raise RegulatorError(
            "regulator equations are numerically singular; the rank condition "
            "on [A - cI, B; C, D] fails at some exosystem eigenvalue "
            "(run check_regulation_rank for the per-eigenvalue detail)"
        ) from exc

    X = z[: n * q].reshape((n, q), order="F")
    U = z[n * q:].reshape((m, q), order="F")
    res_dyn = float(np.abs(X @ S0 - A @ X - B @ U - E).max())
    res_out = float(np.abs(C @ X + D @ U + F).max())
    scale_dyn = max(1.0, np.abs(X @ S0).max(), np.abs(A @ X).max(), np.abs(B @ U).max(), np.abs(E).max())
    scale_out = max(1.0, np.abs(C @ X).max(), np.abs(D @ U).max(), np.abs(F).max())
    if res_dyn > REGULATOR_RTOL * scale_dyn or res_out > REGULATOR_RTOL * scale_out:
        raise RegulatorError(
            f"regulator residuals too large (dynamics {res_dyn:.3e}, output {res_out:.3e}); "
            "the rank condition on [A - cI, B; C, D] fails numerically"
        )
    return RegulatorSolution(X=X, U=U, residual_dynamics=res_dyn, residual_output=res_out)
