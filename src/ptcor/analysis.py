"""Post-run certification of prescribed-time convergence and signal bounds.

A run is *settled* when the regulated output is inside tolerance at the
clamped pre-horizon sample, stays inside a (looser) tolerance after the
horizon, and no finite escape occurred.  The distributed-observer error is
additionally checked against its explicit decay envelope

    ||v_tilde(t)|| <= sqrt(lmax(P_H)/lmin(P_H)) ||v_tilde(t0)||
                      * kappa(t - t0)^(psi rho_H) * exp(varpi (t - t0) / 2)

with varpi = 2 ||P_H|| ||S0|| / lmin(P_H).  The envelope is evaluated only
on pre-horizon samples where the gain is below its cap: past the horizon
kappa vanishes, so the analytical bound degenerates to exactly zero there
and cannot be met by finite-precision data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graph import ObserverRate
from .sim import MuSchedule, Trajectory, kappa


@dataclass
class CertifyTolerances:
    """Settledness thresholds; post_tol defaults to twice tol_abs."""

    tol_abs: float = 1e-2
    tol_rel: float = 1e-3
    post_tol: float | None = None

    def __post_init__(self):
        if self.post_tol is None:
            self.post_tol = 2.0 * self.tol_abs
        for name in ("tol_abs", "tol_rel", "post_tol"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be non-negative and finite, got {value}")


@dataclass
class EnvelopeParams:
    """Constants of the observer decay envelope, plus the tracking rate if known."""

    cond_sqrt: float      # sqrt(lmax(P_H) / lmin(P_H))
    psi_rho: float        # psi * rho_H, the certified kappa exponent
    varpi: float          # 2 ||P_H|| ||S0|| / lmin(P_H)
    theta: float | None = None   # certified tracking-loop rate, for the x_bar shape constant

    @classmethod
    def from_rates(cls, rates: ObserverRate, psi: float, S0,
                   theta: float | None = None) -> "EnvelopeParams":
        eigs = np.linalg.eigvalsh(rates.P_H)
        lmin, lmax = float(eigs.min()), float(eigs.max())
        s0_norm = float(np.linalg.norm(np.asarray(S0, dtype=float), 2))
        return cls(
            cond_sqrt=float(np.sqrt(lmax / lmin)),
            psi_rho=psi * rates.rho_H,
            varpi=2.0 * lmax * s0_norm / lmin,
            theta=theta,
        )


@dataclass
class ConvergenceReport:
    """Certification outcome; `settled` is the headline verdict."""

    settled: bool
    e_initial: float
    e_at_T: float
    e_post_max: float
    envelope_violations: int
    phi_max: dict
    finite_escape: bool
    per_agent_e_at_T: list
    threshold_at_T: float
    threshold_post: float
    x_bar_envelope_constant: float | None = None
    notes: list = field(default_factory=list)

    def to_text(self) -> str:
        lines = [
            f"settled: {self.settled}",
            f"e_initial: {self.e_initial:.15g}",
            f"e_at_T: {self.e_at_T:.15g}",
            f"threshold_at_T: {self.threshold_at_T:.15g}",
            f"e_post_max: {self.e_post_max:.15g}",
            f"threshold_post: {self.threshold_post:.15g}",
            f"envelope_violations: {self.envelope_violations}",
            f"finite_escape: {self.finite_escape}",
        ]
        for k in sorted(self.phi_max):
            v = self.phi_max[k]
            lines.append(f"phi{k}_max: " + ("" if v is None else f"{v:.15g}"))
        lines.append("per_agent_e_at_T: " + ", ".join(f"{v:.15g}" for v in self.per_agent_e_at_T))
        if self.x_bar_envelope_constant is not None:
            lines.append(f"x_bar_envelope_constant: {self.x_bar_envelope_constant:.15g}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def certify(traj: Trajectory, sched: MuSchedule,
            tols: CertifyTolerances | None = None,
            envelope: EnvelopeParams | None = None) -> ConvergenceReport:
    """Certify prescribed-time convergence of a sampled trajectory.

    The trajectory must cover the clamped pre-horizon instant and extend
    beyond the horizon.  The report is a pure function of the samples, so
    certifying a CSV round-trip of the same run reproduces it exactly.
    """
    tols = tols or CertifyTolerances()
    horizon = sched.horizon
    clamp_t = horizon - sched.eps
    if traj.t[-1] <= horizon:
        raise ValueError(
            f"trajectory ends at t = {traj.t[-1]:.6g}, before the horizon {horizon:.6g}; "
            "nothing to certify after the prescribed time"
        )
    idx_clamp = traj.index_at(clamp_t, tol=max(10.0 * sched.eps, 1e-9))
    e_at_T = float(traj.e_norm[idx_clamp])
    e0 = float(traj.e_norm[0])

    post = traj.t > horizon + 1e-15
    e_post_max = float(traj.e_norm[post].max()) if post.any() else 0.0

    notes: list[str] = []
    violations = 0
    x_bar_const = None
    if envelope is not None:
        pre = traj.t < clamp_t - 1e-15     # mu below cap, kappa positive
        if pre.any():
            kap = kappa(sched, traj.t[pre])
            dt0 = traj.t[pre] - sched.t0
            v0_norm = float(traj.v_tilde_norm[0])
            bound = envelope.cond_sqrt * v0_norm * kap ** envelope.psi_rho \
                * np.exp(0.5 * envelope.varpi * dt0)
            violations = int((traj.v_tilde_norm[pre] > bound).sum())
            if envelope.theta is not None:
                ratios = traj.x_bar_norm[pre] / np.maximum(kap ** envelope.theta, 1e-300)
                x_bar_const = float(ratios.max())
                notes.append(
                    "x_bar envelope shape kappa^theta holds with leading constant "
                    f"{x_bar_const:.6g}"
                )

    thr_T = tols.tol_abs + tols.tol_rel * e0
    settled = (e_at_T <= thr_T) and (e_post_max <= tols.post_tol) and not traj.finite_escape
    per_agent = []
    col = 0
    for p in traj.output_dims:
        per_agent.append(float(np.linalg.norm(traj.e[idx_clamp, col:col + p])))
        col += p
    if traj.finite_escape:
        notes.append(traj.diagnostic or "finite escape")

    return ConvergenceReport(
        settled=bool(settled),
        e_initial=e0,
        e_at_T=e_at_T,
        e_post_max=e_post_max,
        envelope_violations=violations,
        phi_max={k: (None if arr is None else float(arr.max())) for k, arr in traj.phi.items()},
        finite_escape=traj.finite_escape,
        per_agent_e_at_T=per_agent,
        threshold_at_T=thr_T,
        threshold_post=float(tols.post_tol),
        x_bar_envelope_constant=x_bar_const,
        notes=notes,
    )


def compare_runs(runs: list, at: float, labels: list | None = None) -> list:
    """Rank runs by ||e(at)||, ascending; ties keep input order.

    A run that escaped before `at` ranks after every run that reached it,
    with ||e(at)|| = inf.  Every other run must have a sample within its
    longest sampling interval of `at`.
    """
    if not runs:
        raise ValueError("no runs to compare")
    labels = labels or [traj.mode for traj in runs]
    if len(labels) != len(runs):
        raise ValueError("one label per run required")
    rows = []
    for label, traj in zip(labels, runs):
        if traj.finite_escape and traj.escape_time < at:
            rows.append((label, math.inf))
            continue
        strides = np.diff(traj.t)
        idx = traj.index_at(at, tol=float(strides.max()) if len(strides) else 1e-9)
        rows.append((label, float(traj.e_norm[idx])))
    order = sorted(range(len(rows)), key=lambda i: rows[i][1])
    return [rows[i] for i in order]
