"""Time-varying closed loop: gain schedule, error-coordinate operator, integrator.

The prescribed-time gain

    mu(t) = 1 / (T + t0 - t)   on [t0, T + t0),    mu(t) = a   afterwards

blows up as t approaches the horizon.  Numerically, mu is capped at
``mu_cap`` and the integration clamps its last pre-horizon step to
``T + t0 - 1/mu_cap`` before switching to the constant branch; the capped
trajectory coincides with the exact one up to O(1/mu_cap) because all
mu-weighted signals stay bounded for admissible gains.

Integration coordinates.  All four modes integrate the loop in
regulation-error coordinates y = (v0, v_i - v0, x_i - X_i v0, xhat_i - x_i),
the last block absent under state feedback, with one operator

    y' = M0 y + mu(t) M1 y + G rho(W y).

The prescribed-time modes are linear time-varying (no relay term), the
asymptotic baseline is LTI (no M1), and the fixed-time baseline is LTI plus
the relay rho = a sign + b sig(., c4) acting on the consensus disagreement,
the tracking error and the innovation.  Given the regulator equations this
form is algebraically identical to the plant coordinates, and it keeps the
terminal-phase signals well scaled: near the horizon the physical states
agree to machine precision while the errors span many decades, so
differencing O(1) states there would drown the recorded signals in
rounding noise.  The literal plant-coordinate right-hand sides live in the
test suite (``tests/oracle.py``) as an independent cross-check.

Plan, then step.  `_plan` fixes every step and sample of a run before any
state exists, from (t0, T, mu_cap, dt, guard, stride, duration) alone: steps
of ``dt``, shrunk before the horizon to ``min(dt, guard/mu)`` (which keeps
the stiffest eigenvalue times the step inside the RK4 stability region for
the default guard) and clipped to land on the clamp, the horizon and the
end; a sample every ``stride`` steps, at each landing and at the end.  The
plan holds an entry (t_lo, m, h, full) per stretch of equal steps in a
sample interval, so it grows with the samples, not the steps.  Step times
are the running sums t + dt + dt ..., which are the same floats when summed
in blocks of BLOCK_STEPS steps, each from the last float of the one before.

One RK4 step.  `_rk4` is the only classic RK4 step: on a state it takes a
walked step, on the identity it builds R, on power-series coefficients Q and
the interval series, and on the columns [y | r_0 .. r_3] the relay step.  Its
derivative is `_Operator.stage(gain, y)` in every mode, at the gains
mu(t + tau h), tau = 0, 1/2, 1/2, 1.

A table of maps, then a walk.  `_table` turns the plan and the operator into
rows before any state exists, and `_drive` only applies them; every linear
map is y <- w (P y).reshape(len(w), dim).  A
product row is a sample interval of m full steps as one map, R^m or a power
series in u = mu(t_lo) dt (`interval_series`), with a bound on its partial
products; the walk applies it while that bound rules out an escape, and
walks the interval otherwise.  Walked steps come in blocks of at most
BLOCK_STEPS steps of one stretch, each summed once and with one step
function: past the horizon, and in the asymptotic baseline, R with w = [1]; up to
DENSE_MAX_DIM states a full pre-horizon step with uncapped gains is five
matrix coefficients with w = u^0 .. u^4 / d(u), u = mu(t) dt (`step_poly`);
up to RELAY_STEP_MAX_DIM a full fixed-time step is linear in y and its stage
relays (`relay_step`); other steps take the four stages at their gains.  A
walked row is the part of a block inside one sample interval, so the walk
holds at most one interval's states: it escape-tests them at once, records
the sample at the row's end and sums `Trajectory.stats` from the rows it
applied.  Only the sampled (t, y) are kept, as `Trajectory.y`.

Dense up to the cap, CSR above it.  DENSE_MAX_DIM decides both the form of
the operator and the maps: up to it `M01` is dense, with Q, the series and
R^m; above it `M01` (so M0 and M1) and `step_map`'s R are `scipy.sparse` CSR
and every full step is walked, with four stages before the horizon and
y <- R y after it.  The followers couple only through the observer's
H (x) I_q, and every agent block is block-diagonal, so `M01` is about 1%
nonzero (1630 of 168 200 entries at generated N = 48 under the local
observer), and a CSR stage costs a few microseconds where the dense one
multiplies every zero.  Q, the series and R^m stay dense-only: built on a
CSR loop they fill in (R^10 is 9.6% nonzero at N = 48), the dense
(5 dim, dim) Q costs memory: runs measured slower at N = 96 and 192 (150
against 117 ms, 639 against 307 ms), and the peak RSS of certifying N = 8,
24 and 48 in one process rose from 74 to 86 MB (2 vCPUs, one BLAS thread).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .graph import Network, partition_laplacian
from .plant import Exosystem
from .synthesis import KTIL_CONSISTENCY_TOL, GainSet, SynthesisError, ktil_mismatch

ESCAPE_NORM = 1e9
# Two times closer than a few ulps of |t| (or 1e-15 below |t| = 1) are the
# same instant.  Anything wider lets a run stop where accumulated steps fall
# short of a boundary, before the clipped step that lands on it.
TIME_RTOL = 1e-15
MAX_STEPS = 10**7  # bounds a run's time (a plan holds numbers per sample, not per step); 200x a bundled run
MIN_DT_ULPS = 10**6  # float spacings of |t| in dt: a step moves the clock by dt to 5e-7 relative
# dense with Q, the series and R^m / CSR with four stages and R, one generated run: 35/51 ms at dim 146,
# 49-52/54-55 at 170, 63-65/53-58 at 194 (kept dense: its runs stay bit-identical), 108/63 at 230, 248/68 at 290
DENSE_MAX_DIM = 200
RELAY_STEP_MAX_DIM = 88  # relay_step vs four stages at h = 1e-3: 58-79/100 us at dim 86, 79-108/69-98 at 92
SERIES_DEGREE, SERIES_TAIL = 20, 1e-16  # the interval series is cut after u^20, its tail below 1e-16 ||y||
SERIES_MIN_INTERVALS = 6  # x dim: its build (8-29 ms at dim 26-52) is repaid after 3.6-5.1 dim intervals
BLOCK_STEPS = 4096  # steps summed at once by `_plan`, and in a walked block of `_table`: bounds `_drive`'s buffer

MODES = ("state_fb", "output_fb", "baseline_asymptotic", "baseline_fixed_time")
PTCOR_MODES = ("state_fb", "output_fb")

CSV_FIXED_COLUMNS = [
    "t", "mu", "||e||", "||v_tilde||", "||x_bar||", "||x_tilde||", "||u_tilde||",
    "phi1", "phi2", "phi3", "phi4",
]


@dataclass(frozen=True)
class MuSchedule:
    """Prescribed-time gain schedule with horizon T, start t0, and numeric cap."""

    T: float
    t0: float = 0.0
    a: float | None = None
    mu_cap: float = 1e6

    def __post_init__(self):
        if not (math.isfinite(self.T) and self.T > 0):
            raise ValueError(f"T must be finite and positive, got {self.T}")
        if not math.isfinite(self.t0):
            raise ValueError(f"t0 must be finite, got {self.t0}")
        if self.a is None:
            object.__setattr__(self, "a", 1.0 / self.T)
        if not (math.isfinite(self.a) and self.a > 0):
            raise ValueError(f"a must be finite and positive, got {self.a}")
        if not (math.isfinite(self.mu_cap) and self.mu_cap >= max(self.a, 1.0 / self.T)):
            raise ValueError(f"mu_cap {self.mu_cap} must be finite and >= max(a, 1/T)")

    @property
    def horizon(self) -> float:
        return self.T + self.t0

    @property
    def eps(self) -> float:
        """Width of the clamped window before the horizon."""
        return 1.0 / self.mu_cap


def mu(s: MuSchedule, t) -> float | np.ndarray:
    """Capped gain schedule, one rule for scalars and arrays; never NaN or infinite."""
    tt = np.asarray(t, dtype=float)
    if np.any(tt < s.t0 - 1e-12):
        raise ValueError(f"mu is undefined before t0 = {s.t0}")
    rem = s.horizon - tt
    out = np.where(rem <= 0, s.a, np.where(rem <= s.eps, s.mu_cap, 1.0 / np.maximum(rem, s.eps)))
    return out if tt.ndim else float(out)


def kappa(s: MuSchedule, t) -> float | np.ndarray:
    """Normalized remaining time (T + t0 - t)/T, zero after the horizon."""
    out = np.clip((s.horizon - np.asarray(t, dtype=float)) / s.T, 0.0, None)
    return out if out.ndim else float(out)


@dataclass
class BaselineConstants:
    c1: float = 5.0
    c2: float = 5.0
    c3: float = 5.0
    c4: float = 1.1

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")


@dataclass
class SimConfig:
    """Step control, horizon, sampling, and mode for one run."""

    mode: str = "output_fb"
    dt: float = 1e-4
    guard: float = 0.1
    duration: float = 5.0
    stride: int = 10
    baseline: BaselineConstants = field(default_factory=BaselineConstants)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        for name in ("dt", "guard", "duration"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if not 1 <= self.stride <= MAX_STEPS:  # no run has more steps than MAX_STEPS
            raise ValueError(f"stride must be in [1, {MAX_STEPS:g}], got {self.stride}")


def check_step_budget(schedule: MuSchedule, cfg: SimConfig) -> None:
    """Reject a run of more than MAX_STEPS steps or whose dt is under MIN_DT_ULPS spacings.

    The message leads with the field at fault.  Each guard-shrunk step cuts the time left to the
    horizon by a factor 1 - guard, so there are at most ln(T mu_cap)/guard of them.
    """
    span, far, dt = cfg.duration - schedule.t0, max(abs(schedule.t0), abs(cfg.duration)), cfg.dt
    if span <= 0:
        raise ValueError(f"duration: {cfg.duration:g} ends at or before t0 = {schedule.t0:g}")
    if span / dt > MAX_STEPS:
        raise ValueError(f"dt: {dt:g} takes {span / dt:.3g} steps over [{schedule.t0:g}, "
                         f"{cfg.duration:g}], more than {MAX_STEPS:g}")
    if dt < MIN_DT_ULPS * math.ulp(far):
        raise ValueError(f"dt: {dt:g} is " + ("below half the float spacing" if far + dt == far else
                         f"under {MIN_DT_ULPS:g} float spacings") + f" at t = {far:g}")
    if math.log(schedule.T * schedule.mu_cap) / min(cfg.guard, 1.0) > MAX_STEPS:
        raise ValueError(f"guard: {cfg.guard:g} allows more than {MAX_STEPS:g} guard-shrunk steps")


def sig(z, c: float) -> np.ndarray:
    """Elementwise signed power sign(z) |z|^c used by the fixed-time baseline."""
    z = np.asarray(z, dtype=float)
    return np.sign(z) * np.abs(z) ** c


@dataclass(eq=False)
class Trajectory:
    """Sampled closed-loop states and the signals derived from them.

    `y` holds the raw samples in error coordinates, one row per sample
    (see the module docstring for the layout); every other column is
    derived from them after integration, never integrated separately.
    Columns that do not exist in a mode (x_tilde and phi3/phi4 under state
    feedback, every phi for baselines) are None and serialize as empty CSV
    fields.  CSV round-trips carry the derived columns only, so `y` is None
    on a loaded trajectory.
    """

    mode: str
    t: np.ndarray
    mu: np.ndarray
    e: np.ndarray                       # (S, sum p_i)
    e_norm: np.ndarray
    v_tilde_norm: np.ndarray
    x_bar_norm: np.ndarray
    x_tilde_norm: np.ndarray | None
    u_tilde_norm: np.ndarray
    phi: dict                           # {1..4: ndarray or None}
    output_dims: list                   # p_i per agent, for column labels
    y: np.ndarray | None = None         # (S, dim) raw error-coordinate samples
    finite_escape: bool = False
    escape_time: float | None = None
    diagnostic: str = ""
    stats: dict = field(default_factory=dict)  # what the integrator did: steps and intervals by kind

    def __post_init__(self):
        if len(self.t) > 1 and not (np.diff(self.t) > 0).all():
            raise ValueError("sample times must be strictly increasing")

    def index_at(self, at: float, tol: float) -> int:
        i = int(np.argmin(np.abs(self.t - at)))
        if abs(self.t[i] - at) > tol:
            raise ValueError(f"no sample within {tol:.3g}s of t={at:.6g} "
                             f"(range [{self.t[0]:.6g}, {self.t[-1]:.6g}])")
        return i

    def e_columns(self) -> list:
        return [f"e_{i}_{j}" for i, p in enumerate(self.output_dims, start=1) for j in range(1, p + 1)]

    def to_csv(self, path) -> None:
        fixed = [self.t, self.mu, self.e_norm, self.v_tilde_norm, self.x_bar_norm,
                 self.x_tilde_norm, self.u_tilde_norm] + [self.phi.get(k) for k in (1, 2, 3, 4)]
        data = np.column_stack([c for c in fixed if c is not None] + [self.e])
        # One row format, a literal empty field for each absent column, and one % per block of rows
        row = ", ".join(["" if c is None else "%.15g" for c in fixed] + ["%.15g"] * self.e.shape[1])
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(", ".join(CSV_FIXED_COLUMNS + self.e_columns()) + "\n")
            for block in np.split(data, range(512, len(data), 512)):
                fh.write((row + "\n") * len(block) % tuple(block.ravel().tolist()))

    @classmethod
    def from_csv(cls, path, mode: str = "unknown") -> "Trajectory":
        with open(path, "r", encoding="utf-8") as fh:
            header = [h.strip() for h in fh.readline().split(",")]
            first = next((line for line in fh if line.strip()), None)
        if header[: len(CSV_FIXED_COLUMNS)] != CSV_FIXED_COLUMNS:
            raise ValueError(f"unrecognized trajectory header: {header[:11]}")
        if first is None:
            raise ValueError(f"{path}: trajectory CSV has a header but no samples")
        filled = [bool(c.strip()) for c in first.split(",")]  # as in the first sample, so in every one
        present, absent = ([i for i, f in enumerate(filled) if f is want] for want in (True, False))
        if len(filled) != len(header) or absent and absent[-1] >= len(CSV_FIXED_COLUMNS):
            raise ValueError(f"{path}: the first sample does not fill the columns of the header")
        load = functools.partial(np.loadtxt, path, delimiter=",", skiprows=1, ndmin=2, encoding="utf-8")
        try:
            with warnings.catch_warnings():  # numpy's notice that a blank line is skipped
                warnings.filterwarnings("ignore", "Input line .* contained no data")
                values = load(usecols=present)  # an empty field in a float column raises ValueError
                if absent and (np.char.strip(load(usecols=absent, dtype=str)) != "").any():
                    raise ValueError("a column empty in the first sample is filled in a later one")
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from err
        data, e_names = dict(zip(present, values.T.copy())), header[len(CSV_FIXED_COLUMNS):]
        agents = [int(name.split("_")[1]) for name in e_names]
        dims = [agents.count(i) for i in range(1, max(agents, default=0) + 1)]
        return cls(mode=mode, t=data[0], mu=data[1], e=values[:, len(present) - len(e_names):].copy(),
                   e_norm=data[2], v_tilde_norm=data[3], x_bar_norm=data[4], x_tilde_norm=data.get(5),
                   u_tilde_norm=data[6], phi={k: data.get(6 + k) for k in (1, 2, 3, 4)}, output_dims=dims)


class ClosedLoopModel:
    """Lumped block-matrix form of one scenario's closed loop.

    Assembles the stacked plant/gain matrices once; the error-coordinate
    operator of every mode is built from them.
    """

    def __init__(self, network: Network, agents: list, exo: Exosystem,
                 gains: GainSet, regs: list, schedule: MuSchedule):
        N = network.n_followers
        if len(agents) != N or len(regs) != N or gains.n_agents != N:
            raise ValueError("agents, gains, and regulator solutions must match the follower count")
        q = exo.q
        for i, a in enumerate(agents):
            if a.q != q:
                raise ValueError(f"agents[{i}] has exosystem dimension {a.q}, expected {q}")
        self.network, self.agents, self.exo = network, agents, exo
        self.gains, self.regs, self.schedule = gains, regs, schedule
        self.N, self.q, self.p_i, self.nx = N, q, [a.p for a in agents], sum(a.n for a in agents)
        self.H = partition_laplacian(network).H
        self.Hq = np.kron(self.H, np.eye(q))

        bd = scipy.linalg.block_diag
        self.A_blk, self.B_blk, self.C_blk, self.D_blk, self.Cm_blk, self.E_blk, self.Fm_blk = (
            bd(*[getattr(a, k) for a in agents]) for k in ("A", "B", "C", "D", "Cm", "E", "Fm"))
        self.X_blk = bd(*[r.X for r in regs])
        self.X_stack = np.vstack([r.X for r in regs])    # acts on v0; E_blk acts on stacked per-agent v
        self.Kbar_blk, self.Ktil_blk, self.K_blk = bd(*gains.Kbar), bd(*gains.Ktil), bd(*gains.K)
        self.S0_blk = np.kron(np.eye(N), exo.S0)
        has_L = gains.L is not None and gains.Ltil is not None
        self.L_blk, self.Ltil_blk = (bd(*gains.L), bd(*gains.Ltil)) if has_L else (None, None)


def compile_model(scenario) -> ClosedLoopModel:
    """Solve the regulator equations, materialize gains, and assemble the blocks."""
    from .plant import solve_regulator
    from .synthesis import build_gain_set

    regs = [solve_regulator(a, scenario.exo) for a in scenario.agents]
    gains = build_gain_set(scenario.gain_spec, scenario.agents, regs)
    return ClosedLoopModel(scenario.network, scenario.agents, scenario.exo,
                           gains, regs, scenario.mu_schedule)


def _rk4(h: float, f, y, g):
    """One classic RK4 step of h from y, a vector, a dense block of columns or a CSR array alike; f(g[s], Y)
    is the derivative at stage s = 0 .. 3 with argument Y."""
    k1 = f(g[0], y)
    k2 = f(g[1], y + h / 2 * k1)
    k3 = f(g[2], y + h / 2 * k2)
    k4 = f(g[3], y + h * k3)
    return y + h / 6 * k1 + h / 3 * k2 + h / 3 * k3 + h / 6 * k4


def _place(out: np.ndarray, blocks: list) -> np.ndarray:
    """`out` with each (rows, cols, block) written in order."""
    for rows, cols, blk in blocks:
        out[rows, cols] = blk
    return out


class _Operator:
    """One mode's closed loop in error coordinates, y' = M0 y + mu M1 y + G rho(W y).

    `M1` is None for the baselines and `W`/`G` are None except for the
    fixed-time baseline.  The row maps `chi`, `track` and `innov` give the
    consensus disagreement -Hq v_tilde, the tracking error xhat - X v (x
    under state feedback) and the innovation; the control deviation is
    u_tilde = U0 y + mu U1 y, plus K r(track) with r = sign + sig(., c4)
    under the fixed-time relay, and the regulated output is e = C x_bar +
    D u_tilde.
    """

    def __init__(self, model: ClosedLoopModel, mode: str, constants: BaselineConstants):
        observer = mode != "state_fb"
        if observer and model.L_blk is None:
            raise ValueError(f"{mode} uses the local observer; synth L/Ltil first")
        worst = max(ktil_mismatch(model.gains, model.regs))
        if worst > KTIL_CONSISTENCY_TOL:
            raise SynthesisError(
                f"feedforward Ktil deviates from U - Kbar X by {worst:.3g} "
                f"(> {KTIL_CONSISTENCY_TOL:g}); the error-coordinate loop would not be the plant's")
        self.model, self.schedule = model, model.schedule
        self.guarded = mode in PTCOR_MODES
        m, g = model, model.gains
        N, q, nx = m.N, m.q, m.nx
        dim = q + N * q + nx + (nx if observer else 0)
        v0, vt, xb = slice(0, q), slice(q, q + N * q), slice(q + N * q, q + N * q + nx)
        xt = slice(q + N * q + nx, dim) if observer else None
        self.s_vt, self.s_xb, self.s_xt = vt, xb, xt
        row = slice(None)

        BK, BKbar = m.B_blk @ m.K_blk, m.B_blk @ m.Kbar_blk
        M0 = [(v0, v0, m.exo.S0), (vt, vt, m.S0_blk),
              (xb, xb, m.A_blk + BKbar), (xb, vt, m.B_blk @ m.Ktil_blk)]
        M1 = [(vt, vt, -g.psi * m.Hq), (xb, xb, BK), (xb, vt, -BK @ m.X_blk)]
        U0 = [(row, xb, m.Kbar_blk), (row, vt, m.Ktil_blk)]
        U1 = [(row, xb, m.K_blk), (row, vt, -m.K_blk @ m.X_blk)]
        track = [(row, xb, np.eye(nx)), (row, vt, -m.X_blk)]
        if observer:
            M0 += [(xt, xt, m.A_blk - m.L_blk @ m.Cm_blk),
                   (xt, vt, m.E_blk - m.L_blk @ m.Fm_blk), (xb, xt, BKbar)]
            M1 += [(xt, xt, -(m.Ltil_blk @ m.Cm_blk)),
                   (xt, vt, -m.Ltil_blk @ m.Fm_blk), (xb, xt, BK)]
            U0.append((row, xt, m.Kbar_blk))
            U1.append((row, xt, m.K_blk))
            track.append((row, xt, np.eye(nx)))
        if mode == "baseline_asymptotic":
            M0.append((vt, vt, m.S0_blk - g.psi * m.Hq))
        elif mode == "baseline_fixed_time":
            M0.append((vt, vt, m.S0_blk - constants.c1 * m.Hq))
        # M0 and M1 are the row blocks of one (2 dim, dim) array, so a stage is one product
        M01 = np.zeros((2 * dim if self.guarded else dim, dim))
        _place(M01[:dim], M0)
        if self.guarded:
            _place(M01[dim:], M1)
        if dim > DENSE_MAX_DIM:  # about 1% nonzero above the cap: the agent blocks and H (x) I_q
            import scipy.sparse
            M01 = scipy.sparse.csr_array(M01)
        self.dim, self.M01, self.M0 = dim, M01, M01[:dim]
        self.M1 = M01[dim:] if self.guarded else None

        mt, pm = len(m.K_blk), len(m.Cm_blk)
        self.U0 = _place(np.zeros((mt, dim)), U0)
        self.U1 = _place(np.zeros((mt, dim)), U1) if self.guarded else None
        self.E0 = _place(np.zeros((len(m.C_blk), dim)), [(row, xb, m.C_blk)]) + m.D_blk @ self.U0
        self.E1 = None if self.U1 is None else m.D_blk @ self.U1
        self.chi = _place(np.zeros((N * q, dim)), [(row, vt, -m.Hq)])
        self.track = _place(np.zeros((nx, dim)), track)
        self.innov = _place(np.zeros((pm, dim)), [(row, xt, -m.Cm_blk), (row, vt, -m.Fm_blk)]) \
            if observer else None

        self.W = self.G = None
        if mode == "baseline_fixed_time":
            c, nc = constants, N * q
            self.W = np.vstack([self.chi, self.track, self.innov])
            self.G = _place(np.zeros((dim, nc + nx + pm)), [
                (vt, slice(0, nc), np.eye(nc)), (xb, slice(nc, nc + nx), BK),
                (xt, slice(nc + nx, None), m.Ltil_blk)])
            self.a = np.r_[np.full(nc, c.c2), np.ones(nx + pm)]
            self.b = np.r_[np.full(nc, c.c3), np.ones(nx + pm)]
            self.c4 = c.c4

    def initial_state(self, v0_init, v_init, x_init, xhat_init) -> np.ndarray:
        m = self.model
        v0 = np.asarray(v0_init, dtype=float)
        v = np.asarray(v_init, dtype=float).reshape(m.N, m.q)
        x = np.concatenate([np.asarray(xi, dtype=float) for xi in x_init])
        parts = [v0, (v - v0).reshape(-1), x - m.X_stack @ v0]
        if self.s_xt is not None:
            parts.append(np.concatenate([np.asarray(h, dtype=float) for h in xhat_init]) - x)
        return np.concatenate(parts)

    def rhs(self, t: float, y: np.ndarray) -> np.ndarray:
        return self.stage(mu(self.schedule, t), y)

    def stage(self, gain: float, y: np.ndarray) -> np.ndarray:
        """y' at the gain `gain` in every mode, from one stacked product: (M0 + gain M1) y, M0 y without M1,
        plus G rho(W y) under the relay."""
        z = self.M01.dot(y)
        if self.M1 is not None:
            z = gain * z[self.dim:] + z[:self.dim]
        if self.W is not None:
            w = self.W @ y
            z = z + self.G @ (self.a * np.sign(w) + self.b * sig(w, self.c4))
        return z

    def step_map(self, h: float):
        """R with y <- R y one RK4 step of h on the LTI loop from the horizon on; CSR on a CSR operator."""
        if isinstance(self.M01, np.ndarray):
            eye = np.eye(self.dim)
        else:  # the step on the sparse identity, every stage sparse
            import scipy.sparse
            eye = scipy.sparse.eye_array(self.dim, format="csr")
        return _rk4(h, self.stage, eye, [mu(self.schedule, self.schedule.horizon)] * 4)

    def step_poly(self, h: float) -> np.ndarray:
        """Q with y <- w (Q y).reshape(5, dim), w = u^0 .. u^4 / d(u), one RK4 step of h from a time t with
        uncapped stage gains mu(t + tau h) = (u / h) / (1 - tau u), u = mu(t) h: d(u) = (1 - u/2)^2 (1 - u)
        clears their denominators, so d times the step's series, both cut after u^4, is exact."""
        S, d = self.interval_series(h, 1, degree=4).reshape(5, -1), [1.0, -2.0, 1.25, -0.25]  # d(u)
        return sum(c * np.r_[np.zeros_like(S[:n]), S[:5 - n]] for n, c in enumerate(d)).reshape(-1, self.dim)

    def interval_series(self, h: float, m: int, degree: int = SERIES_DEGREE) -> np.ndarray:
        """P with y <- w (P y).reshape(K + 1, dim) the m full RK4 steps of h from a time t with uncapped
        stage gains, w = u^0 .. u^K, u = mu(t) h.  As h mu(t + tau h) = u / (1 - tau u) = sum tau^n u^(n+1),
        the steps run on power series in u cut after u^K (K = degree), a block of identity columns at once."""
        dim, K = self.dim, degree
        e, P = np.arange(K + 1)[:, None] - np.arange(K + 1) - 1, np.zeros((K + 1, dim, dim))
        # T[tau][d, j] = tau^(d-1-j) / h for j < d: the u-coefficients of mu(t + tau h) Z from those of Z
        T = {tau: np.where(e >= 0, tau ** e.clip(0) / h, 0.0) for tau in np.arange(2 * m + 1) / 2}
        def f(tau, X):  # (M0 + gain M1) X on the coefficients X[:, d] of u^d
            Z = self.M01.dot(X.reshape(dim, -1)).reshape(2, dim, K + 1, -1)
            return Z[0] + np.matmul(T[tau], Z[1])
        for c in range(0, dim, 16):
            X = np.zeros((dim, K + 1, min(16, dim - c)))
            X[c:c + 16, 0] = np.eye(X.shape[2])
            for i in range(m):
                X = _rk4(h, f, X, i + np.array([0.0, 0.5, 0.5, 1.0]))
            P[:, :, c:c + 16] = X.transpose(1, 0, 2)
        return P.reshape(-1, dim)

    def series_reach(self, h: float, m: int):
        """(u_d, bound): cut after u^d, the series of `interval_series` is within SERIES_TAIL of the m steps
        for u <= u_d[d], and bound(u) bounds every partial product.  By Cauchy estimates on |u| = r < 1/m,
        where a stage matrix has norm <= h alpha + beta r / (1 - m r), alpha = ||M0||, beta = ||M1||."""
        ah, b = m * h * np.abs(self.M0).sum(axis=1).max(), m * np.abs(self.M1).sum(axis=1).max()
        log_bound = lambda r: ah + b * r / (1 - m * r)
        r, x = np.linspace(0, 1 / m, 102)[1:-1, None], np.linspace(0, 1, 102)[1:-1]  # u = r x
        fit = log_bound(r) - np.log1p(-x) - math.log(SERIES_TAIL)  # log(tail / SERIES_TAIL) - (d + 1) log x
        u_d = [(r * x)[fit + (d + 1) * np.log(x) <= 0].max(initial=0.0) for d in range(SERIES_DEGREE + 1)]
        return np.array(u_d), lambda u: np.exp(log_bound(u))

    def relay_step(self, h: float):
        """y -> one RK4 step of h on the fixed-time loop y' = M0 y + G rho(W y).  The relay enters only
        through r_g = [sign z_g; sig(z_g, c4)] at the stage arguments z_g (a and b folded into G), so
        the step is linear in y and r_0 .. r_3.  `_rk4` on the columns [y | r_0 .. r_3] of one array gives
        [R | C]; P y stacks R y and the y parts of z_0 .. z_3, z_g adds D_g r_<g, and the new state is
        R y + C r."""
        dim, nw, args, Gab = self.dim, len(self.W), [], np.hstack([self.G * self.a, self.G * self.b])
        def f(g, Y):  # M0 Y + Gab r_g, noting the stage argument Y
            args.append(Y)
            Z = self.M0.dot(Y)
            Z[:, dim + 2 * nw * g:dim + 2 * nw * (g + 1)] += Gab
            return Z
        phi = _rk4(h, f, np.eye(dim, dim + 8 * nw), range(4))
        P, c4 = np.vstack([phi[:, :dim]] + [np.dot(self.W, Y[:, :dim]) for Y in args]), self.c4
        C, r, py = phi[:, dim:].copy(), np.empty((4, 2, nw)), np.empty(len(P))  # r[g] = r_g; C contiguous
        D = [np.dot(self.W, Y[:, dim:dim + 2 * nw * g]) if g else None for g, Y in enumerate(args)]
        stages = list(zip(py[dim:].reshape(4, nw), D, [r[:g].reshape(-1) for g in range(4)], r))

        def step(y):
            np.dot(P, y, out=py)
            for z, D_g, r_lo, (sgn, sgp) in stages:  # z_g = (P y)_g + D_g r_<g, then r_g = r[g]
                if D_g is not None:
                    z += np.dot(D_g, r_lo)
                np.sign(z, out=sgn)
                np.multiply(sgn, np.power(np.abs(z, out=sgp), c4, out=sgp), out=sgp)
            return np.dot(C, r.reshape(-1)) + py[:dim]
        return step

    @np.errstate(all="ignore")  # as in the walk: an escaped sample, or |0|^c4 with c4 < 0, is no warning
    def signals(self, t: np.ndarray, Y: np.ndarray) -> dict:
        """Every recorded column of the samples `Y` (S x dim) taken at times `t`."""
        mus = mu(self.schedule, t)

        def scheduled(M0, M1) -> np.ndarray:
            out = Y @ M0.T
            return out if M1 is None else out + mus[:, None] * (Y @ M1.T)

        norm = functools.partial(np.linalg.norm, axis=1)
        e = scheduled(self.E0, self.E1)
        ut = scheduled(self.U0, self.U1)
        if self.W is not None:
            track = Y @ self.track.T
            relay = np.sign(track) + sig(track, self.c4)
            ut = ut + relay @ self.model.K_blk.T
            e = e + relay @ (self.model.D_blk @ self.model.K_blk).T
        phi = dict.fromkeys((1, 2, 3, 4))
        if self.guarded:  # the tracking error is phi2 under state feedback, phi4 with the local observer
            rows = {2: self.track} if self.s_xt is None else {3: self.innov, 4: self.track}
            phi.update({k: mus * norm(Y @ M.T) for k, M in {1: self.chi, **rows}.items()})
        return dict(
            mu=mus, e=e, e_norm=norm(e), v_tilde_norm=norm(Y[:, self.s_vt]),
            x_bar_norm=norm(Y[:, self.s_xb]),
            x_tilde_norm=None if self.s_xt is None else norm(Y[:, self.s_xt]),
            u_tilde_norm=norm(ut), phi=phi,
        )


def _sums(t: float, h: float, n: int) -> np.ndarray:
    """t and the running sums t + h, t + h + h, ... of n steps.  A sum continued from the last of
    them has the same floats as one sum over all the steps, so a long stretch is summed in blocks."""
    return np.add.accumulate(np.concatenate(([t], np.full(n, h))))


def _plan(schedule: MuSchedule, cfg: SimConfig, guarded: bool):
    """Every step and sample of a run, decided before any state exists: (entries, samples).

    `entries` has a row (t_lo, m, h, full) per stretch of m steps of size h from t_lo within one
    sample interval; full (1) if they are ``dt`` steps, neither guard-shrunk nor clipped onto a
    boundary.  The samples are (time, steps taken); the clamp sample and the horizon sample after
    the jump are two samples of one state.
    """
    dt, stride, end, horizon = cfg.dt, cfg.stride, cfg.duration, schedule.horizon
    clamp_t = horizon - schedule.eps  # the clamp: where the last pre-horizon step lands
    entries, samples = [np.empty((0, 4))], [(schedule.t0, 0)]

    def near(a, b):
        return abs(a - b) <= TIME_RTOL * max(1.0, abs(a))

    def record(t_, k_):
        if not near(t_, samples[-1][0]):
            samples.append((t_, k_))

    t, k = schedule.t0, 0
    while t < end and not near(t, end):
        pre = guarded and t < clamp_t
        past = t >= horizon or near(t, horizon)
        boundary = min(clamp_t, end) if pre else end if past else min(horizon, end)
        h = min(dt, cfg.guard / mu(schedule, t)) if pre else dt
        if h == dt:
            # the sums of t = t + dt, BLOCK_STEPS at a time; the leading steps that neither pass nor land
            # near() the boundary, nor are shrunk by the guard, are full steps, cut into entries at
            # the stride samples (none is near() an earlier one: dt spans MIN_DT_ULPS float spacings)
            cut_t, cut_k, more = [[t]], [[k]], True
            while more:
                tk = _sums(t, dt, min(int((boundary - t) / dt) + 2, BLOCK_STEPS))
                nxt = tk[1:]
                ok = (nxt <= boundary) & (np.abs(nxt - boundary) > TIME_RTOL * np.maximum(1.0, np.abs(nxt)))
                if pre:
                    ok &= dt <= cfg.guard / mu(schedule, tk[:-1])
                n = len(nxt) if ok.all() else int(ok.argmin())
                more = n == len(nxt)
                i = np.arange(stride - k % stride, n + 1, stride)
                cut_t.append(tk[i])
                cut_k.append(k + i)
                t, k = float(tk[n]), k + n
            if k > cut_k[0][0]:  # the stretch ends at (t, k), which may also be a cut
                lo, kk = np.concatenate(cut_t + [[t]]), np.concatenate(cut_k + [[k]])
                samples += zip(lo[1:-1].tolist(), kk[1:-1].tolist())
                m = np.diff(kk)
                entries.append(np.column_stack([lo[:-1], m, np.full(len(m), dt), np.ones(len(m))])[m > 0])
                continue
        if t + h > boundary or near(t + h, boundary):
            h = boundary - t  # positive: t is short of the boundary
        if t + h == t:
            raise ValueError(f"guard: a step of {h:.3g} does not advance t = {t:.17g}")
        entries.append([[t, 1, h, 0]])
        t, k = t + h, k + 1
        at_clamp = guarded and near(t, clamp_t) and clamp_t < end
        if k % stride == 0 or at_clamp or near(t, boundary):
            record(t, k)
        if at_clamp:
            # Jump across the capped sliver [horizon - eps, horizon]; the
            # post-horizon branch continues from the clamped state.
            t = horizon
            record(t, k)
    record(t, k)
    return np.concatenate(entries), samples


def _lin(P: np.ndarray, w: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Every linear map of the walk: y <- w (P y).reshape(len(w), dim)."""
    return w.dot(P.dot(y).reshape(len(w), -1))


def _table(op: _Operator, schedule: MuSchedule, cfg: SimConfig, entries: np.ndarray, ks: np.ndarray,
           ts: np.ndarray):
    """Yield the rows that carry a run through the plan `entries`, whose samples take ks steps at times ts.

    A product row (interval key, step key, n, P, w, bound) is a sample interval of n > 1 full steps as one
    map y <- `_lin(P, w, y)`: R^n, or `interval_series` cut to the terms its tail needs; ||y|| bound bounds
    every partial product.  The walk sends back whether it applied the row; if it did not, the interval's
    steps follow as walked rows.  Walked steps are taken in blocks of at most BLOCK_STEPS steps of one stretch:
    a block is summed once, and its step function, R or the relay step, the five-term step with its
    weights u^0 .. u^4 / d(u), or four stages at their gains, is made once from those sums.  A walked row
    (step key, o, c, tk, advance, j) is the c steps of one block that lie in one sample interval, from
    step o of the block: tk holds the block's sums, advance(o + i, y) takes step i, and the samples
    before j have been reached at the row's end.  The last row is None.
    """
    t_lo, m, size, full = entries.T
    dim, dt, horizon, full = op.dim, cfg.dt, schedule.horizon, full == 1
    k, small, one = np.r_[0, np.cumsum(m)].astype(int), dim <= DENSE_MAX_DIM, np.ones(1)
    # an entry's path: 2 for R or the relay step, 1 for the five-term step while its gains are uncapped
    # (to its end, the next entry's start), 0 for four stages
    mapped = full & (dim <= RELAY_STEP_MAX_DIM if op.W is not None else (op.M1 is None) | (t_lo >= horizon))
    paths = np.where(mapped, 2, full & op.guarded & small & (horizon - np.r_[t_lo[1:], ts[-1]] > schedule.eps))
    R = op.step_map(dt) if op.W is None and mapped.any() else None
    step = op.relay_step(dt) if op.W is not None and mapped.any() else functools.partial(_lin, R, one)
    Q = op.step_poly(dt) if (paths == 1).any() else None
    # An entry that is a whole sample interval of more than one step is one product while a ||y|| bound rules
    # out an escape: R^n for LTI steps, and for five-term steps, when enough intervals repay its build,
    # `interval_series` cut to the terms its tail needs
    whole = (np.diff(ks.searchsorted(k)) > 0) & (np.diff(ks.searchsorted(k, "right")) > 0) & (m > 1)
    jump, series = whole & small & (op.W is None) & (paths == 2), whole & (paths == 1)
    maps, u = {}, mu(schedule, t_lo) * dt  # the product rows by entry; u = mu(t_lo) dt
    for n in set(m[jump].astype(int).tolist()):  # ||y|| max(1, ||R||)^n bounds ||R^j y||
        row = ("jump_intervals", "jump_steps", n, np.linalg.matrix_power(R, n), one,
               max(1, abs(R).sum(axis=1).max()) ** n)
        maps.update(dict.fromkeys(np.flatnonzero(jump & (m == n)).tolist(), row))
    for n in set(m[series].astype(int).tolist()):
        u_d, bound = op.series_reach(dt, n)
        on = np.flatnonzero(series & (m == n) & (u <= u_d[-1]))
        if len(on) >= SERIES_MIN_INTERVALS * dim:  # w = u^0 .. u^(c-1), c terms
            P, v = op.interval_series(dt, n), u[on]
            c, W, b = np.searchsorted(u_d, v) + 1, v[:, None] ** np.arange(SERIES_DEGREE + 1), bound(v)
            maps.update((e, ("series_intervals", "series_steps", n, P[:c[i] * dim], W[i, :c[i]], b[i]))
                        for i, e in enumerate(on.tolist()))
    # the stage gains mu(t + tau h), here of each entry's first step: all that a one-step entry needs
    tau, powers = np.array([0.0, 0.5, 0.5, 1.0]), np.arange(5)
    first = mu(schedule, t_lo[:, None] + size[:, None] * tau)

    # runs of walked entries: a clipped or guard-shrunk step, or the full steps of a stretch between products
    # (a stretch's entries share one path: it ends before the clamp, and before the horizon)
    cut = np.isin(np.arange(len(m)), np.fromiter(maps, int, len(maps))) | ~full
    starts = np.flatnonzero(cut | np.r_[True, cut[:-1]]).tolist()
    for e, e1 in zip(starts, starts[1:] + [len(m)]):
        if e in maps and (yield maps[e]):
            continue
        tk, h, path = [t_lo[e]], size[e].item(), paths[e]
        for b in range(k[e], k[e1], BLOCK_STEPS):  # each block summed on from the last float of the one before
            tk = _sums(tk[-1], h, min(k[e1] - b, BLOCK_STEPS))
            if path == 2:
                key, advance = "map_steps", lambda i, y: step(y)
            elif path == 1:
                v = mu(schedule, tk[:-1, None]) * dt  # u = mu(t) dt
                w = v ** powers / ((1.0 - 0.5 * v) ** 2 * (1.0 - v))  # u^0 .. u^4 / d(u)
                key, advance = "poly_steps", lambda i, y, w=w: _lin(Q, w[i], y)
            else:
                g = mu(schedule, tk[:-1, None] + h * tau) if full[e] else first[e:e + 1]
                key, advance = "stage_steps", lambda i, y, g=g: _rk4(h, op.stage, y, g[i])
            # a row per sample interval the block reaches into: inside a run the samples are every stride steps
            cuts = [b, *range(b - b % cfg.stride + cfg.stride, b + len(tk) - 1, cfg.stride), b + len(tk) - 1]
            for lo, hi, j in zip(cuts, cuts[1:], ks.searchsorted(cuts[1:], "right").tolist()):
                yield key, lo - b, hi - lo, tk, advance, j
    yield None


def _drive(op: _Operator, y0: np.ndarray, schedule: MuSchedule, cfg: SimConfig):
    """Apply the rows of `_table` from y0.  Returns (times, samples, escaped, escape_time, diagnostic, stats)."""
    entries, samples = _plan(schedule, cfg, op.guarded)
    ts, ks = np.array([t for t, _ in samples]), np.array([k for _, k in samples])
    rows, taken, t_esc = _table(op, schedule, cfg, entries, ks, ts), None, None
    stats = dict.fromkeys(("series_intervals", "series_steps", "jump_intervals", "jump_steps", "poly_steps",
                           "map_steps", "stage_steps"), 0)
    # a walked row holds at most the steps of one sample interval, and at most a block's BLOCK_STEPS
    Y, buf, y, j, stop = (np.empty((len(ts), op.dim)),
                          np.empty((min(int(np.diff(ks).max(initial=0)), BLOCK_STEPS), op.dim)), y0, 1, len(ts))
    Y[0] = y0
    with np.errstate(all="ignore"):
        while (row := rows.send(taken)) is not None:
            if row[0] in ("jump_intervals", "series_intervals"):  # the next sample interval, if its bound allows
                ikey, skey, n, P, w, bound = row
                taken = np.abs(y).max() * bound <= 0.5 * ESCAPE_NORM
                if taken:
                    y = Y[j] = _lin(P, w, y)
                    j += 1
                    stats[ikey] += 1
                    stats[skey] += n
            else:
                key, o, c, tk, advance, hi = row
                for i in range(c):
                    y = buf[i] = advance(o + i, y)
                # NaN fails the comparison, so one test catches escaped and non-finite states
                ok = np.abs(buf[:c]).max(axis=1) <= ESCAPE_NORM
                if t_esc is None and not ok.all():  # the interval holding it, Y[j], is walked to its end
                    t_esc, stop = float(tk[o + ok.argmin() + 1]), j
                stats[key] += c
                Y[j:hi], j = y, hi  # the samples at the row's end
                if j > stop:
                    return (ts[:stop], Y[:stop], True, t_esc,
                            f"finite-escape detected at t = {t_esc:.9g} (state norm > {ESCAPE_NORM:g})", stats)
    return ts, Y, False, None, "", stats


def integrate(scenario, config: SimConfig | None = None,
              model: ClosedLoopModel | None = None) -> Trajectory:
    """Integrate one scenario in the requested mode and sample the run.

    `scenario` provides the network, agents, exosystem, gain declaration, mu schedule, simulation
    config, and initial conditions.  A finite escape does not raise: the truncated trajectory is
    returned with the escape flagged, since divergence is itself a meaningful outcome.  A feedforward
    gain violating Ktil = U - Kbar X raises `SynthesisError`; a run over `check_step_budget`, or a
    `model` compiled for another schedule than the scenario's, raises ValueError before anything runs.
    """
    cfg = config or scenario.sim_config
    sched = scenario.mu_schedule
    check_step_budget(sched, cfg)
    if cfg.duration <= sched.horizon:
        warnings.warn(
            f"duration {cfg.duration} does not extend beyond the horizon {sched.horizon}; "
            "post-horizon behaviour cannot be certified", stacklevel=2)
    if model is None:
        model = compile_model(scenario)
    elif model.schedule != sched:  # the plan takes the scenario's schedule, the operator the model's
        raise ValueError(f"model: compiled for {model.schedule}, not for the scenario's {sched}")

    op = _Operator(model, cfg.mode, cfg.baseline)
    y0 = op.initial_state(scenario.exo.v0_init, scenario.v_init,
                          scenario.x_init, scenario.xhat_init)
    ts, Y, escaped, t_esc, diag, stats = _drive(op, y0, sched, cfg)
    return Trajectory(mode=cfg.mode, t=ts, output_dims=list(model.p_i), y=Y, stats=stats,
                      finite_escape=escaped, escape_time=t_esc, diagnostic=diag,
                      **op.signals(ts, Y))
