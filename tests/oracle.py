"""Independent references for the tests: literal closed loops, a scalar RK4 driver and a
Kronecker Lyapunov solve.

The integrator runs every mode in regulation-error coordinates.  The
functions here write the same loops per agent, straight from the control
laws, in plant coordinates (leader state v0, observer states v_i, plant
states x_i, local observer states xhat_i), and map between the two
coordinate systems, so the tests can compare both routes.

`drive` is the integrator loop that takes every step as four right-hand-side
calls and decides each step as it goes; `ptcor.sim._drive` walks a plan of
steps and samples fixed beforehand, takes most full steps as one product with
a precomputed step map, and must land on the same times.

`solve_lyapunov` solves P M + M^T P = Q through the dense (n^2, n^2)
Kronecker system, a route that shares nothing with the Bartels-Stewart
solver behind `ptcor.numerics.lyapunov_certificate`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ptcor.sim import (ESCAPE_NORM, TIME_RTOL, BaselineConstants, ClosedLoopModel, MuSchedule,
                       SimConfig, mu, sig)

BASELINE_KINDS = ("asymptotic", "fixed_time")


@dataclass(eq=False)
class ClosedLoopState:
    """Plant-coordinate snapshot: leader state, observer states, plant states.

    `xhat` is None in state-feedback configurations.
    """

    v0: np.ndarray
    v: np.ndarray          # (N, q)
    x: list                # N vectors, agent i of length n_i
    xhat: list | None = None


def split_state(state: ClosedLoopState):
    return (np.asarray(state.v0, dtype=float),
            np.asarray(state.v, dtype=float),
            [np.asarray(xi, dtype=float) for xi in state.x],
            None if state.xhat is None else [np.asarray(h, dtype=float) for h in state.xhat])


def consensus_terms(model: ClosedLoopModel, v0: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per-agent neighbourhood disagreement sum_j a_ij (v_j - v_i), leader included."""
    A = model.network.adjacency
    out = np.zeros_like(v)
    for i in range(1, model.N + 1):
        acc = np.zeros(model.q)
        for j in range(model.N + 1):
            w = A[i, j]
            if w > 0:
                vj = v0 if j == 0 else v[j - 1]
                acc += w * (vj - v[i - 1])
        out[i - 1] = acc
    return out


def _check_finite(arrs, t: float) -> None:
    for a in arrs:
        if not np.all(np.isfinite(a)):
            raise FloatingPointError(f"non-finite derivative at t = {t:.9g}; integration aborted")


def rhs_state_fb(state: ClosedLoopState, t: float, model: ClosedLoopModel) -> ClosedLoopState:
    """Distributed observer plus state-feedback controller, written per agent."""
    v0, v, x, _ = split_state(state)
    m = mu(model.schedule, t)
    g = model.gains
    dv0 = model.exo.S0 @ v0
    dv = model.exo.S0 @ v.T
    dv = dv.T + g.psi * m * consensus_terms(model, v0, v)
    dx = []
    for i, agent in enumerate(model.agents):
        u_i = g.Kbar[i] @ x[i] + g.Ktil[i] @ v[i] + m * (g.K[i] @ (x[i] - model.regs[i].X @ v[i]))
        dx.append(agent.A @ x[i] + agent.B @ u_i + agent.E @ v0)
    _check_finite([dv0, dv] + dx, t)
    return ClosedLoopState(v0=dv0, v=dv, x=dx, xhat=None)


def rhs_output_fb(state: ClosedLoopState, t: float, model: ClosedLoopModel) -> ClosedLoopState:
    """Distributed observer, local observers, and measurement-feedback controller.

    The feedthrough Dm u appears in both the measurement and the observer
    reconstruction, so it cancels from the innovation; u is computed first
    from the observer state and substituted, no implicit solve is needed.
    """
    if model.gains.L is None:
        raise ValueError("model has no output-injection gains; synth L/Ltil first")
    v0, v, x, xhat = split_state(state)
    if xhat is None:
        raise ValueError("output-feedback mode needs observer states xhat")
    m = mu(model.schedule, t)
    g = model.gains
    dv0 = model.exo.S0 @ v0
    dv = (model.exo.S0 @ v.T).T + g.psi * m * consensus_terms(model, v0, v)
    dx, dxh = [], []
    for i, agent in enumerate(model.agents):
        u_i = g.Kbar[i] @ xhat[i] + g.Ktil[i] @ v[i] + m * (g.K[i] @ (xhat[i] - model.regs[i].X @ v[i]))
        y_i = agent.Cm @ x[i] + agent.Dm @ u_i + agent.Fm @ v0
        innovation = y_i - agent.Cm @ xhat[i] - agent.Dm @ u_i - agent.Fm @ v[i]
        dx.append(agent.A @ x[i] + agent.B @ u_i + agent.E @ v0)
        dxh.append(agent.A @ xhat[i] + agent.B @ u_i + agent.E @ v[i]
                   + (g.L[i] + m * g.Ltil[i]) @ innovation)
    _check_finite([dv0, dv] + dx + dxh, t)
    return ClosedLoopState(v0=dv0, v=dv, x=dx, xhat=dxh)


def rhs_baseline(state: ClosedLoopState, t: float, model: ClosedLoopModel, kind: str,
                 constants: BaselineConstants | None = None) -> ClosedLoopState:
    """Asymptotic or fixed-time comparison controller, written per agent.

    The fixed-time law replaces the mu-weighted corrections with sign and
    signed-power terms on the same error quantities; its relay terms are
    integrated as-is, without chattering mitigation.
    """
    if kind not in BASELINE_KINDS:
        raise ValueError(f"kind must be one of {BASELINE_KINDS}, got {kind!r}")
    if model.gains.L is None:
        raise ValueError("baselines use the local observer; synth L/Ltil first")
    c = constants or BaselineConstants()
    v0, v, x, xhat = split_state(state)
    g = model.gains
    dv0 = model.exo.S0 @ v0
    chi = consensus_terms(model, v0, v)
    dv = (model.exo.S0 @ v.T).T
    if kind == "asymptotic":
        dv = dv + g.psi * chi
    else:
        dv = dv + c.c1 * chi + c.c2 * np.sign(chi) + c.c3 * sig(chi, c.c4)
    dx, dxh = [], []
    for i, agent in enumerate(model.agents):
        if kind == "asymptotic":
            u_i = g.Kbar[i] @ xhat[i] + g.Ktil[i] @ v[i]
        else:
            track = xhat[i] - model.regs[i].X @ v[i]
            u_i = (g.Kbar[i] @ xhat[i] + g.Ktil[i] @ v[i]
                   + g.K[i] @ np.sign(track) + g.K[i] @ sig(track, c.c4))
        y_i = agent.Cm @ x[i] + agent.Dm @ u_i + agent.Fm @ v0
        innovation = y_i - agent.Cm @ xhat[i] - agent.Dm @ u_i - agent.Fm @ v[i]
        obs = agent.A @ xhat[i] + agent.B @ u_i + agent.E @ v[i] + g.L[i] @ innovation
        if kind == "fixed_time":
            obs = obs + g.Ltil[i] @ np.sign(innovation) + g.Ltil[i] @ sig(innovation, c.c4)
        dxh.append(obs)
        dx.append(agent.A @ x[i] + agent.B @ u_i + agent.E @ v0)
    _check_finite([dv0, dv] + dx + dxh, t)
    return ClosedLoopState(v0=dv0, v=dv, x=dx, xhat=dxh)


# -- reference integrator ----------------------------------------------------------


def drive(op, y0: np.ndarray, schedule: MuSchedule, cfg: SimConfig):
    """Reference RK4 driver: four `op.rhs` calls per step, every step scalar.

    Returns (times, samples, escaped, escape_time, diagnostic), like
    `ptcor.sim._drive`, which must take the same steps at the same times.
    """
    ts, ys = [], []
    y = y0.copy()
    t = schedule.t0
    horizon = schedule.horizon
    clamp_t = horizon - schedule.eps
    rhs = op.rhs

    def near(a, b):
        return abs(a - b) <= TIME_RTOL * max(1.0, abs(a))

    def record(t_, y_):
        if not ts or not near(t_, ts[-1]):
            ts.append(t_)
            ys.append(y_)

    record(t, y)
    steps = 0
    while t < cfg.duration and not near(t, cfg.duration):
        if op.guarded and t < clamp_t:
            h = min(cfg.dt, cfg.guard / mu(schedule, t))
            boundary = min(clamp_t, cfg.duration)
        else:
            h = cfg.dt
            past = t >= horizon or near(t, horizon)
            boundary = cfg.duration if past else min(horizon, cfg.duration)
        if t + h > boundary or near(t + h, boundary):
            h = boundary - t
        if h <= 0:
            break
        if t + h == t:
            raise ValueError(f"guard: a step of {h:.3g} does not advance t = {t:.17g}")
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = t + h
        steps += 1
        # NaN fails the comparison, so one pass catches non-finite and escaped states
        if not float(np.abs(y).max()) <= ESCAPE_NORM:
            diag = f"finite-escape detected at t = {t:.9g} (state norm > {ESCAPE_NORM:g})"
            return np.array(ts), np.vstack(ys), True, t, diag
        at_clamp = op.guarded and near(t, clamp_t) and clamp_t < cfg.duration
        at_boundary = near(t, boundary)
        if steps % cfg.stride == 0 or at_clamp or at_boundary:
            record(t, y)
        if at_clamp:
            # Jump across the capped sliver [horizon - eps, horizon]; the
            # post-horizon branch continues from the clamped state.
            t = horizon
            if t < cfg.duration and not near(t, cfg.duration):
                record(t, y)
    record(t, y)
    return np.array(ts), np.vstack(ys), False, None, ""


# -- plant <-> error coordinates ----------------------------------------------------


def error_coordinates(model: ClosedLoopModel, state: ClosedLoopState) -> np.ndarray:
    """(v0, v_i - v0, x_i - X_i v0, xhat_i - x_i) stacked, the last block only with xhat.

    The map is linear, so it also carries a plant-coordinate derivative to
    the error-coordinate derivative.
    """
    v0, v, x, xhat = split_state(state)
    parts = [v0, (v - v0).reshape(-1)]
    parts += [xi - reg.X @ v0 for xi, reg in zip(x, model.regs)]
    if xhat is not None:
        parts += [h - xi for h, xi in zip(xhat, x)]
    return np.concatenate(parts)


def plant_state(model: ClosedLoopModel, y: np.ndarray, observer: bool) -> ClosedLoopState:
    """Inverse of `error_coordinates` for one sample."""
    N, q = model.N, model.q
    v0 = y[:q]
    v = y[q:q + N * q].reshape(N, q) + v0
    x, xhat, start = [], [], q + N * q
    for agent, reg in zip(model.agents, model.regs):
        x.append(y[start:start + agent.n] + reg.X @ v0)
        start += agent.n
    if observer:
        for xi in x:
            xhat.append(y[start:start + len(xi)] + xi)
            start += len(xi)
    return ClosedLoopState(v0=v0, v=v, x=x, xhat=xhat if observer else None)


def _as_square(M, name: str = "matrix") -> np.ndarray:
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError(f"{name} contains non-finite entries")
    return A


def solve_lyapunov(m_factor, Q) -> np.ndarray:
    """Solve ``P @ M + M.T @ P = Q`` for symmetric positive definite Q.

    The equation is vectorized into a dense ``(n^2, n^2)`` Kronecker system
    and solved directly.  Callers that want the Hurwitz-style form
    ``P M + M.T P = -Q`` pass ``-M``.  Raises ValueError when two
    eigenvalues of M sum to zero (the linear map ``P -> P M + M.T P`` is
    singular) or when the residual exceeds ``1e-10 * ||Q||_inf``.
    """
    M = _as_square(m_factor, "m_factor")
    Qm = _as_square(Q, "Q")
    n = M.shape[0]
    if Qm.shape != M.shape:
        raise ValueError(f"Q shape {Qm.shape} does not match m_factor shape {M.shape}")
    if np.abs(Qm - Qm.T).max() > 1e-12 * max(1.0, np.abs(Qm).max()):
        raise ValueError("Q must be symmetric")
    if np.linalg.eigvalsh(Qm).min() <= 0:
        raise ValueError("Q must be positive definite")

    lam = np.linalg.eigvals(M)
    scale = max(1.0, float(np.abs(lam).max()))
    sums = lam[:, None] + lam[None, :]
    i, j = np.unravel_index(int(np.argmin(np.abs(sums))), sums.shape)
    if abs(sums[i, j]) <= 1e-12 * scale:
        raise ValueError(
            f"resonant pair: eigenvalues {lam[i]:.6g} and {lam[j]:.6g} sum to ~0; "
            "the Lyapunov operator is singular"
        )

    I = np.eye(n)
    op = np.kron(M.T, I) + np.kron(I, M.T)
    vec_p = np.linalg.solve(op, Qm.flatten(order="F"))
    P = vec_p.reshape((n, n), order="F")
    P = 0.5 * (P + P.T)
    residual = np.abs(P @ M + M.T @ P - Qm).max()
    if residual > 1e-10 * max(1.0, np.abs(Qm).max()):
        raise ValueError(
            f"Lyapunov solve residual {residual:.3e} exceeds tolerance; "
            "the vectorized system is ill-conditioned"
        )
    return P
