"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines.  The long runs (base dt 1e-4 over 5 s) are shared across
criteria through module-scoped fixtures.
"""

import time
import warnings

import numpy as np
import pytest

from ptcor.analysis import CertifyTolerances, EnvelopeParams, certify, compare_runs
from ptcor.graph import observer_rate, partition_laplacian
from ptcor.plant import solve_regulator
from ptcor.scenario import Scenario, load_scenario
from ptcor.sim import MuSchedule, SimConfig, compile_model, integrate
from ptcor.synthesis import (
    CascadeRates,
    GainSpec,
    certify_rate,
    check_cascade_criterion,
    check_ptor_state,
)

TOLS = CertifyTolerances()  # tol_abs 1e-2, tol_rel 1e-3, post_tol 2e-2


def report(num: int, passed: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if passed else 'FAIL'}  {detail}")
    assert passed, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def ex1():
    scenario = load_scenario("example1_rlc")
    model = compile_model(scenario)
    return scenario, model


@pytest.fixture(scope="module")
def ex2():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        scenario = load_scenario("example2_ccvsi")
        model = compile_model(scenario)
    return scenario, model


@pytest.fixture(scope="module")
def ex1_envelope(ex1):
    scenario, model = ex1
    rates = observer_rate(partition_laplacian(scenario.network))
    return rates, EnvelopeParams.from_rates(rates, model.gains.psi, scenario.exo.S0,
                                            theta=model.gains.theta_min())


@pytest.fixture(scope="module")
def crit3_run(ex1):
    """Full-resolution output-feedback run of the RLC scenario (dt = 1e-4, 5 s)."""
    scenario, model = ex1
    t0 = time.perf_counter()
    traj = integrate(scenario, model=model)
    elapsed = time.perf_counter() - t0
    return traj, elapsed


def variant(scenario, *, gain_spec=None, mu_schedule=None, sim_config=None,
            x_scale=1.0, name="variant"):
    return Scenario(
        name=name, network=scenario.network, agents=scenario.agents,
        exo=scenario.exo,
        gain_spec=gain_spec or scenario.gain_spec,
        mu_schedule=mu_schedule or scenario.mu_schedule,
        sim_config=sim_config or scenario.sim_config,
        x_init=[x_scale * xi for xi in scenario.x_init],
        v_init=x_scale * scenario.v_init,
        xhat_init=[x_scale * xi for xi in scenario.xhat_init],
    )


def test_criterion_1_regulator_residuals(ex1, ex2):
    t0 = time.perf_counter()
    worst_dyn = worst_out = 0.0
    for scenario, _ in (ex1, ex2):
        for agent in scenario.agents:
            sol = solve_regulator(agent, scenario.exo)
            rd = np.abs(sol.X @ scenario.exo.S0 - agent.A @ sol.X - agent.B @ sol.U - agent.E).max()
            ro = np.abs(agent.C @ sol.X + agent.D @ sol.U + agent.F).max()
            worst_dyn, worst_out = max(worst_dyn, rd), max(worst_out, ro)
    elapsed = time.perf_counter() - t0
    ok = worst_dyn <= 1e-10 and worst_out <= 1e-10 and elapsed < 1.0
    report(1, ok, f"regulator residuals dyn {worst_dyn:.2e}, out {worst_out:.2e}, "
                  f"{elapsed * 1e3:.0f} ms")


def test_criterion_2_lyapunov_certificates(ex1, ex2):
    worst_res, min_eig = 0.0, np.inf
    for scenario, model in (ex1, ex2):
        parts = partition_laplacian(scenario.network)
        rates = observer_rate(parts)
        res = np.abs(rates.P_H @ parts.H + parts.H.T @ rates.P_H - rates.Q_H).max()
        worst_res = max(worst_res, res)
        min_eig = min(min_eig, np.linalg.eigvalsh(rates.P_H).min())
        for i, agent in enumerate(scenario.agents):
            BK = agent.B @ model.gains.K[i]
            P = model.gains.P_K[i]
            worst_res = max(worst_res, np.abs(P @ BK + BK.T @ P + np.eye(2)).max())
            min_eig = min(min_eig, np.linalg.eigvalsh(P).min())
            AL = -(model.gains.Ltil[i] @ agent.Cm)
            PL = model.gains.P_L[i]
            worst_res = max(worst_res, np.abs(PL @ AL + AL.T @ PL + np.eye(2)).max())
            min_eig = min(min_eig, np.linalg.eigvalsh(PL).min())
    rate_err = max(abs(certify_rate(-m * np.eye(3))[1] - m) for m in (1.5, 3.0, 10.0))
    ok = worst_res <= 1e-10 and min_eig > 0 and rate_err <= 1e-9
    report(2, ok, f"P residual {worst_res:.2e}, min eig {min_eig:.2e}, "
                  f"rate error {rate_err:.2e}")


def test_criterion_3_rlc_reproduction(ex1, crit3_run, ex1_envelope):
    scenario, model = ex1
    traj, elapsed = crit3_run
    rep = certify(traj, scenario.mu_schedule, TOLS, ex1_envelope[1])
    ok = (rep.e_at_T <= 1e-2 and rep.e_post_max <= 2e-2
          and not rep.finite_escape and rep.settled and elapsed < 10.0)
    report(3, ok, f"e(T-eps) {rep.e_at_T:.2e} <= 1e-2, post max {rep.e_post_max:.2e} "
                  f"<= 2e-2, escape {rep.finite_escape}, {elapsed:.1f} s")


def test_criterion_4_prescribed_time_invariance(ex1):
    scenario, model = ex1
    sched = scenario.mu_schedule

    scaled = variant(scenario, x_scale=10.0, name="ics_x10")
    rep_a = certify(integrate(scaled, model=model), sched, TOLS)

    boosted_spec = GainSpec(
        psi=scenario.gain_spec.psi * 1.5,
        Kbar=scenario.gain_spec.Kbar, L=scenario.gain_spec.L,
        mbar_K=scenario.gain_spec.mbar_K * 1.5,
        mbar_L=scenario.gain_spec.mbar_L * 1.5,
    )
    boosted = variant(scenario, gain_spec=boosted_spec, name="gains_x1.5")
    rep_b = certify(integrate(boosted), sched, TOLS)

    ok = rep_a.settled and rep_b.settled
    report(4, ok, f"x10 ICs: settled {rep_a.settled} (e(T-eps) {rep_a.e_at_T:.2e}); "
                  f"gains +50%: settled {rep_b.settled} (e(T-eps) {rep_b.e_at_T:.2e}); same T = {sched.T}")


def test_criterion_5_necessity_probe(ex1):
    scenario, model = ex1
    sched = scenario.mu_schedule
    B = scenario.agents[0].B
    K_nominal = model.gains.K[0]

    def state_fb_run(K):
        spec = GainSpec(psi=scenario.gain_spec.psi, Kbar=scenario.gain_spec.Kbar, K=K)
        cfg = SimConfig(mode="state_fb", dt=scenario.sim_config.dt,
                        duration=scenario.sim_config.duration,
                        stride=scenario.sim_config.stride)
        return certify(integrate(variant(scenario, gain_spec=spec, sim_config=cfg)),
                       sched, TOLS)

    K_slow = K_nominal / 6.0
    ok_slow, re_slow = check_ptor_state(B, K_slow)
    rep_slow = state_fb_run(K_slow)
    ok_fast, re_fast = check_ptor_state(B, K_nominal)
    rep_fast = state_fb_run(K_nominal)

    diverged = (not rep_slow.settled) and rep_slow.e_at_T > 0.1 * rep_slow.e_initial
    ok = (abs(re_slow + 0.5) < 1e-9 and not ok_slow and diverged
          and abs(re_fast + 3.0) < 1e-9 and ok_fast and rep_fast.settled)
    report(5, ok, f"max Re eig(BK) = -0.5: settled {rep_slow.settled}, "
                  f"e(T-eps)/e(t0) = {rep_slow.e_at_T / rep_slow.e_initial:.3g}; "
                  f"max Re eig(BK) = -3: settled {rep_fast.settled}")


def test_criterion_6_observer_envelope(ex1, crit3_run, ex1_envelope):
    scenario, _ = ex1
    traj, _ = crit3_run
    rates, envelope = ex1_envelope
    rep = certify(traj, scenario.mu_schedule, TOLS, envelope)
    pre = traj.t < scenario.mu_schedule.horizon - scenario.mu_schedule.eps - 1e-15
    ok = rep.envelope_violations == 0 and pre.sum() > 100
    report(6, ok, f"envelope violations {rep.envelope_violations} over {int(pre.sum())} "
                  f"uncapped samples (exponent psi*rho_H = {envelope.psi_rho:.3f})")


def test_criterion_7_phi_saturation(ex1, crit3_run):
    scenario, _ = ex1
    traj_lo, _ = crit3_run
    raised = variant(
        scenario,
        mu_schedule=MuSchedule(T=scenario.mu_schedule.T, t0=scenario.mu_schedule.t0,
                               a=scenario.mu_schedule.a, mu_cap=1e7),
        name="cap_1e7",
    )
    traj_hi = integrate(raised, model=compile_model(raised))
    deltas = {}
    for k in (1, 3, 4):
        lo = float(traj_lo.phi[k].max())
        hi = float(traj_hi.phi[k].max())
        deltas[k] = abs(hi - lo) / lo
    ok = all(d < 0.05 for d in deltas.values())
    report(7, ok, "max phi change under cap 1e6 -> 1e7: "
                  + ", ".join(f"phi{k} {d * 100:.3f}%" for k, d in deltas.items()))


def test_criterion_8_cascade_criterion():
    results = []
    for theta in (1.5, 3.0, 10.0):
        tight = CascadeRates(alpha1=2.0 * (theta + 1.0), alpha2=2.0 * theta,
                             m_exp=2.0, n_exp=2.0, p_exp=1.0, alpha_star=theta - 1.0)
        slack = CascadeRates(alpha1=2.0 * (theta + 1.0 - 0.01), alpha2=2.0 * theta,
                             m_exp=2.0, n_exp=2.0, p_exp=1.0, alpha_star=theta - 1.0)
        results.append(check_cascade_criterion(tight) and not check_cascade_criterion(slack))
    ok = all(results)
    report(8, ok, f"tight instantiation true / -0.01 false across theta in (1.5, 3, 10): {results}")


def test_criterion_9_baseline_comparison(ex2):
    scenario, model = ex2
    horizon = scenario.mu_schedule.horizon
    cfg = SimConfig(mode="output_fb", dt=scenario.sim_config.dt, duration=1.5,
                    stride=scenario.sim_config.stride,
                    baseline=scenario.sim_config.baseline)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        runs = [integrate(scenario, cfg, model=model)]
        labels = ["ptcor"]
        for kind in ("asymptotic", "fixed_time"):
            runs.append(integrate(scenario,
                                  SimConfig(mode=f"baseline_{kind}", dt=cfg.dt,
                                            duration=cfg.duration, stride=cfg.stride,
                                            baseline=cfg.baseline),
                                  model=model))
            labels.append(kind)
    table = dict(compare_runs(runs, at=horizon, labels=labels))
    ok = table["ptcor"] < table["asymptotic"] and table["ptcor"] < table["fixed_time"]
    report(9, ok, f"||e(T)||: ptcor {table['ptcor']:.2e} < "
                  f"asymptotic {table['asymptotic']:.2e} and fixed_time {table['fixed_time']:.2e}")


def test_criterion_10_step_refinement(ex1, crit3_run):
    scenario, model = ex1
    traj_base, _ = crit3_run
    halved = variant(
        scenario,
        sim_config=SimConfig(mode="output_fb", dt=scenario.sim_config.dt / 2.0,
                             duration=scenario.sim_config.duration,
                             stride=scenario.sim_config.stride),
        name="half_dt",
    )
    traj_half = integrate(halved, model=model)
    sched = scenario.mu_schedule
    a = certify(traj_base, sched, TOLS).e_at_T
    b = certify(traj_half, sched, TOLS).e_at_T
    rel = abs(a - b) / a
    ok = rel < 0.10
    report(10, ok, f"e(T-eps) {a:.3e} vs {b:.3e} at dt/2, relative change {rel * 100:.3f}%")
