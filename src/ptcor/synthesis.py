"""Gain construction and certification for prescribed-time regulation.

The closed loop uses, per follower i,

    u_i = Kbar_i x_i + Ktil_i v_i + mu(t) K_i (x_i - X_i v_i)

(with x_i replaced by its observer estimate under output feedback, where
the observer injection gain is L_i + mu(t) Ltil_i).  Feasibility of the
time-varying part is an eigenvalue condition:

    max Re eig(B_i K_i) < -1          (state loop)
    min Re eig(Ltil_i Cm_i) > 1       (output-injection loop)

and the certified decay rates are Lyapunov ratios computed with the fixed
convention Q = I, which makes them reproducible (the ratio is invariant to
scaling P and Q jointly):

    theta_i    = 1 / (2 lambda_max(P_Ki)),  P_Ki (B_i K_i) + (B_i K_i)^T P_Ki = -I
    vartheta_i = 1 / (2 lambda_max(P_Li)),  likewise for -Ltil_i Cm_i.

`verify_gains` evaluates every sufficient-condition inequality once, as
one row of a pass/fail table, at its worst case over the followers.  The
per-agent values are gathered into arrays first; a missing certificate is
NaN there, so every row that needs it fails.  Failures are warnings because
the inequalities are sufficient, not necessary.  Only an inconsistent
feedforward gain (Ktil != U - Kbar X) is a hard error, since it breaks the
zero-error manifold itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import ObserverRate
from .numerics import lyapunov_certificate

KTIL_CONSISTENCY_TOL = 1e-8
# A boundary-inclusive (>=) row passes within this fraction of its bound: rates from
# eigen- and Lyapunov solves that sit on a bound by construction round a few ulps either side.
BOUNDARY_RTOL = 1e-12
GAIN_MATRICES = ("Kbar", "Ktil", "K", "L", "Ltil")  # the matrices of a GainSpec, each shared or per agent


class SynthesisError(ValueError):
    """A closed-form gain rule cannot be applied to the given data."""


@dataclass(eq=False)
class GainSet:
    """All designed gains plus their Lyapunov certificates.

    Per-agent lists are indexed by follower.  `theta`/`P_K` are None when
    B_i K_i is not Hurwitz (no certificate exists); `vartheta`/`P_L`, `L`,
    `Ltil` are None in state-feedback configurations.
    """

    psi: float
    Kbar: list
    Ktil: list
    K: list
    L: list | None = None
    Ltil: list | None = None
    theta: list = field(default_factory=list)
    vartheta: list = field(default_factory=list)
    P_K: list = field(default_factory=list)
    P_L: list = field(default_factory=list)

    @property
    def n_agents(self) -> int:
        return len(self.K)

    def theta_min(self) -> float | None:
        vals = [t for t in self.theta if t is not None]
        return min(vals) if len(vals) == len(self.theta) and vals else None


@dataclass
class CascadeRates:
    """Rate/exponent bundle for the two-block cascade criterion.

    alpha1, alpha2 are the prescribed-time decay rates of the driving and
    driven blocks; the driven block sees a disturbance bounded by
    sigma * mu^m_exp * ||chi_1||^n_exp, the output is bounded by
    eps_e * mu^p_exp * ||chi||, and alpha_star is the target output rate.
    """

    alpha1: float
    alpha2: float
    m_exp: float
    n_exp: float
    p_exp: float
    alpha_star: float

    def __post_init__(self):
        for name in ("alpha1", "alpha2", "m_exp", "n_exp", "p_exp", "alpha_star"):
            v = float(getattr(self, name))
            if not np.isfinite(v) or v <= 0:
                raise ValueError(f"{name} must be positive and finite, got {v}")
            setattr(self, name, v)


@dataclass
class ConditionCheck:
    name: str
    required: str
    measured: float
    passed: bool
    severity: str  # "error" | "warning"
    detail: str = ""


@dataclass
class ConditionReport:
    """Pass/fail table over every gain-design inequality, each appearing once."""

    checks: list

    def failed(self) -> list:
        return [c for c in self.checks if not c.passed]

    def has_errors(self) -> bool:
        return any(c.severity == "error" and not c.passed for c in self.checks)

    def to_text(self) -> str:
        lines = [f"{'condition':<34} {'required':<30} {'measured':>12}  {'status':<6} severity"]
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(
                f"{c.name:<34} {c.required:<30} {c.measured:>12.6g}  {status:<6} {c.severity}"
            )
            if c.detail and not c.passed:
                lines.append(f"    {c.detail}")
        return "\n".join(lines)


def check_ptor_state(B, K) -> tuple[bool, float]:
    """State-loop feasibility: max Re eig(B K) strictly below -1."""
    BK = np.asarray(B, dtype=float) @ np.asarray(K, dtype=float)
    max_re = np.linalg.eigvals(BK).real.max()
    return (max_re < -1.0, float(max_re))


def check_ptor_output(Ltil, Cm) -> tuple[bool, float]:
    """Output-injection feasibility: min Re eig(Ltil Cm) strictly above 1."""
    LC = np.asarray(Ltil, dtype=float) @ np.asarray(Cm, dtype=float)
    min_re = np.linalg.eigvals(LC).real.min()
    return (min_re > 1.0, float(min_re))


def _scaled_inverse(M, mbar: float, gain: str, of: str, directive: str) -> np.ndarray:
    """mbar M^{-1} for the closed-form gain `gain`, from the square invertible matrix `of` and mbar > 1."""
    Mm = np.asarray(M, dtype=float)
    if Mm.ndim != 2 or Mm.shape[0] != Mm.shape[1]:
        raise SynthesisError(f"closed-form {gain} needs square {of}, got shape {Mm.shape}")
    if mbar <= 1.0:
        raise SynthesisError(f"{directive} must exceed 1 (got {mbar}); otherwise the loop is too slow")
    try:
        with np.errstate(over="ignore"):  # an overflow is reported below, as a non-finite gain
            out = mbar * np.linalg.inv(Mm)
    except np.linalg.LinAlgError as exc:
        raise SynthesisError(f"closed-form {gain} needs invertible {of}") from exc
    if not np.isfinite(out).all():
        raise SynthesisError(f"{directive} = {mbar:g} gives a non-finite closed-form {gain}")
    return out


def synthesize_K(B, mbar: float) -> np.ndarray:
    """Closed-form state gain K = -B^{-1} mbar I, giving B K = -mbar I.

    Requires square invertible B and mbar > 1; the certified rate is then
    exactly mbar (with P = I).
    """
    return -_scaled_inverse(B, mbar, "K", "B", "mbar_K")


def synthesize_Ltil(Cm, mbar: float) -> np.ndarray:
    """Closed-form injection gain Ltil = mbar (Cm)^{-1}, giving Ltil Cm = mbar I."""
    return _scaled_inverse(Cm, mbar, "Ltil", "Cm", "mbar_L")


def certify_rate(Mcl) -> tuple[np.ndarray, float]:
    """Lyapunov-certified decay rate of a Hurwitz matrix with Q = I.

    Solves P Mcl + Mcl^T P = -I and returns (P, 1 / (2 lambda_max(P))).
    The rate never exceeds the spectral abscissa magnitude of Mcl.
    """
    try:
        return lyapunov_certificate(Mcl)
    except ValueError as exc:
        raise SynthesisError(str(exc)) from exc


def check_cascade_criterion(r: CascadeRates) -> bool:
    """Rate-coupling test for prescribed-time stability of the cascade.

    Both inequalities must hold (boundaries included):

        alpha2 >= 2 (p_exp + alpha_star)
        alpha1 >= max(2 (alpha2 + m_exp) / n_exp, 2 (p_exp + alpha_star))
    """
    floor = 2.0 * (r.p_exp + r.alpha_star)
    if r.alpha2 < floor:
        return False
    return r.alpha1 >= max(2.0 * (r.alpha2 + r.m_exp) / r.n_exp, floor)


def ktil_mismatch(gains: GainSet, regs: list) -> list:
    """Per-agent feedforward inconsistency ||Ktil_i - (U_i - Kbar_i X_i)||_inf."""
    return [float(np.abs(K_til - (reg.U - Kbar @ reg.X)).max())
            for K_til, Kbar, reg in zip(gains.Ktil, gains.Kbar, regs)]


def verify_gains(mode: str, gains: GainSet, rates: ObserverRate, agents: list,
                 regs: list) -> ConditionReport:
    """Evaluate every sufficient-condition inequality for the chosen mode.

    Each inequality appears exactly once, instantiated at its worst case
    over the followers; the per-agent values are kept in the detail field.
    `mode` is "state_fb" or "output_fb".  Failures are warnings except the
    feedforward consistency Ktil = U - Kbar X, which is an error.  The ``>=``
    rows pass within BOUNDARY_RTOL of their bound; strict rows stay strict.
    """
    if mode not in ("state_fb", "output_fb"):
        raise ValueError(f"mode must be 'state_fb' or 'output_fb', got {mode!r}")
    if regs is None or len(regs) != len(agents):
        raise ValueError("verify_gains needs one regulator solution per agent")
    if mode == "output_fb" and (gains.Ltil is None or gains.L is None):
        raise ValueError("output_fb verification needs L and Ltil gains")
    psi_rho = gains.psi * rates.rho_H
    checks: list[ConditionCheck] = []

    def per_agent(values) -> np.ndarray:
        # A missing certificate becomes NaN, so every comparison on it fails.
        return np.array([np.nan if v is None else v for v in values or [None] * len(agents)])

    def fmt(values) -> str:
        return "per agent: " + ", ".join("n/a" if np.isnan(v) else f"{v:.6g}" for v in values)

    def row(name, required, measured, passed, detail, severity="warning"):
        checks.append(ConditionCheck(name, required, float(measured), bool(passed), severity, detail))

    def at_least(measured, bound) -> bool:
        return measured >= bound - BOUNDARY_RTOL * abs(bound)  # NaN on either side fails

    def coupling(term, bound, detail, fallback=None):
        worst = bound.max()
        row(f"coupling: psi*rho_H >= {term}",
            f"psi*rho_H >= {fallback or term}" if np.isnan(worst) else f"psi*rho_H >= {worst:.6g}",
            psi_rho, at_least(psi_rho, worst), fmt(detail))

    theta = per_agent(gains.theta)
    max_bk = np.array([check_ptor_state(a.B, K)[1] for a, K in zip(agents, gains.K)])
    mismatch = np.array(ktil_mismatch(gains, regs))
    row("observer: psi*rho_H > 1", "psi*rho_H > 1", psi_rho, psi_rho > 1.0,
        f"psi={gains.psi:.6g}, rho_H={rates.rho_H:.6g}")
    row("state loop: theta_i > 1", "min_i theta_i > 1", theta.min(), theta.min() > 1.0, fmt(theta))
    coupling("theta_i + 1", theta + 1.0, theta)
    row("solvability: max Re eig(BK) < -1", "max_i max Re eig(B_i K_i) < -1",
        max_bk.max(), max_bk.max() < -1.0, fmt(max_bk))
    row("feedforward: Ktil = U - Kbar*X",
        f"max_i ||Ktil_i - (U_i - Kbar_i X_i)||_inf <= {KTIL_CONSISTENCY_TOL:g}",
        mismatch.max(), mismatch.max() <= KTIL_CONSISTENCY_TOL, fmt(mismatch), "error")
    if mode == "output_fb":
        vartheta = per_agent(gains.vartheta)
        min_lc = np.array([check_ptor_output(Lt, a.Cm)[1] for Lt, a in zip(gains.Ltil, agents)])
        # Spectral norm: the tightest matrix norm compatible with the Euclidean vector norm.
        fm_bound = theta + 0.5 * np.array([float(np.linalg.norm(Lt @ a.Fm, 2)) ** 2
                                          for Lt, a in zip(gains.Ltil, agents)]) + 1.0
        gap = (vartheta - theta).min()
        row("local observer: vartheta_i > 1", "min_i vartheta_i > 1",
            vartheta.min(), vartheta.min() > 1.0, fmt(vartheta))
        coupling("vartheta_i + 1", vartheta + 1.0, vartheta)
        row("cascade: vartheta_i >= theta_i + 3/2", "min_i (vartheta_i - theta_i) >= 1.5",
            gap, at_least(gap, 1.5), fmt(vartheta))
        # the per-agent bounds are listed only when every theta is certified
        coupling("theta_i + ||Ltil*Fm||^2/2 + 1", fm_bound,
                 [] if np.isnan(theta).any() else fm_bound, "theta_i + ||Ltil Fm||^2/2 + 1")
        row("solvability: min Re eig(Ltil*Cm) > 1", "min_i min Re eig(Ltil_i Cm_i) > 1",
            min_lc.min(), min_lc.min() > 1.0, fmt(min_lc))
    return ConditionReport(checks=checks)


@dataclass(eq=False)
class GainSpec:
    """Raw gain declaration from a scenario: explicit matrices and/or synthesis directives.

    Any of Kbar/Ktil/K/L/Ltil may be a single matrix (shared by all agents)
    or a per-agent list.  Missing K and Ltil are built from the closed-form
    rules when mbar_K / mbar_L are given; a missing Ktil is always derived
    as U - Kbar X from the regulator solution.  psi must be finite and
    positive, and a directive finite; mbar > 1 is checked by the rule.
    """

    psi: float
    Kbar: object = None
    Ktil: object = None
    K: object = None
    L: object = None
    Ltil: object = None
    mbar_K: float | None = None
    mbar_L: float | None = None

    def __post_init__(self):
        if not 0 < self.psi < np.inf:  # NaN fails too
            raise ValueError(f"psi must be finite and positive, got {self.psi}")
        for name, value in (("mbar_K", self.mbar_K), ("mbar_L", self.mbar_L)):
            if value is not None and not -np.inf < value < np.inf:
                raise ValueError(f"{name} must be finite, got {value}")

    def _per_agent(self, value, n_agents: int, name: str):
        if value is None:
            return None
        if isinstance(value, (list, tuple)) and all(np.ndim(v) == 2 for v in value):  # [] is a list of no matrices
            mats = [np.asarray(v, dtype=float) for v in value]
            if len(mats) != n_agents:
                raise SynthesisError(f"{name}: got {len(mats)} matrices for {n_agents} agents")
            return mats
        M = np.asarray(value, dtype=float)
        return [M.copy() for _ in range(n_agents)]


def build_gain_set(spec: GainSpec, agents: list, regs: list) -> GainSet:
    """Materialize a full GainSet from a GainSpec plus regulator solutions."""
    n_agents = len(agents)
    if len(regs) != n_agents:
        raise SynthesisError("need one regulator solution per agent")

    kbar, ktil, kk, ll, ltil = (spec._per_agent(getattr(spec, name), n_agents, name) for name in GAIN_MATRICES)
    for i, a in enumerate(agents):  # the given gains: a derived or closed-form one has its shape by construction
        shapes = ((a.m, a.n), (a.m, a.q), (a.m, a.n), (a.n, a.pm), (a.n, a.pm))
        for name, mats, shape in zip(GAIN_MATRICES, (kbar, ktil, kk, ll, ltil), shapes):
            if mats is not None and mats[i].shape != shape:
                raise SynthesisError(f"{name}[{i}] has shape {mats[i].shape}, expected {shape}")
    if kbar is None:
        kbar = [np.zeros((a.m, a.n)) for a in agents]
    if ktil is None:
        ktil = [reg.U - kb @ reg.X for reg, kb in zip(regs, kbar)]
    if kk is None:
        if spec.mbar_K is None:
            raise SynthesisError("no K gain: give explicit K or the directive mbar_K")
        kk = [synthesize_K(a.B, spec.mbar_K) for a in agents]
    if ltil is None and spec.mbar_L is not None:
        ltil = [synthesize_Ltil(a.Cm, spec.mbar_L) for a in agents]
    if ltil is not None and ll is None:
        ll = [np.zeros((a.n, a.pm)) for a in agents]
    if ll is not None and ltil is None:
        raise SynthesisError(
            "output-injection gains incomplete: L given without Ltil "
            "(give explicit Ltil or the directive mbar_L)"
        )

    def certificates(mats) -> tuple[list, list]:
        # (P, rate) per loop matrix; None where the matrix is not Hurwitz
        Ps, rates = [], []
        for M in mats:
            try:
                P, rate = certify_rate(M)
            except SynthesisError:
                P, rate = None, None
            Ps.append(P)
            rates.append(rate)
        return Ps, rates

    gains = GainSet(psi=float(spec.psi), Kbar=kbar, Ktil=ktil, K=kk, L=ll, Ltil=ltil)
    gains.P_K, gains.theta = certificates(a.B @ K for a, K in zip(agents, kk))
    if ltil is not None:
        gains.P_L, gains.vartheta = certificates(-(Lt @ a.Cm) for a, Lt in zip(agents, ltil))
    return gains
