import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ptcor.graph import network_from_edges, observer_rate, partition_laplacian
from ptcor.plant import solve_regulator
from ptcor.scenario import load_scenario
from ptcor.sim import compile_model
from ptcor.synthesis import (
    CascadeRates,
    GainSpec,
    SynthesisError,
    build_gain_set,
    certify_rate,
    check_cascade_criterion,
    check_ptor_output,
    check_ptor_state,
    synthesize_K,
    synthesize_Ltil,
    verify_gains,
)
from tests.oracle import solve_lyapunov
from tests.test_plant import rlc_agent, rlc_exo

B1 = 0.25 * np.array([[1.0, 1.0], [1.0, -3.0]])
K1 = np.array([[-9.0, -3.0], [-3.0, 3.0]])
Cm1 = 0.25 * np.array([[-1.0, -3.0], [3.0, -3.0]])
Ltil1 = np.array([[-4.0, 4.0], [-4.0, -4.0 / 3.0]])


class TestPtorChecks:
    def test_state_rlc(self):
        ok, max_re = check_ptor_state(B1, K1)
        assert ok and max_re == pytest.approx(-3.0, abs=1e-12)

    def test_state_zero_gain(self):
        ok, max_re = check_ptor_state(B1, np.zeros((2, 2)))
        assert not ok and max_re == pytest.approx(0.0, abs=1e-12)

    def test_state_boundary_excluded(self):
        ok, max_re = check_ptor_state(np.eye(2), -np.eye(2))
        assert max_re == pytest.approx(-1.0, abs=1e-12)
        assert not ok

    def test_output_rlc(self):
        ok, min_re = check_ptor_output(Ltil1, Cm1)
        assert ok and min_re == pytest.approx(4.0, abs=1e-9)

    def test_output_zero_gain(self):
        ok, min_re = check_ptor_output(np.zeros((2, 2)), Cm1)
        assert not ok and min_re == pytest.approx(0.0, abs=1e-12)

    def test_output_diagonal(self):
        ok, min_re = check_ptor_output(2.0 * np.eye(2), np.eye(2))
        assert ok and min_re == pytest.approx(2.0, abs=1e-12)


class TestClosedFormGains:
    def test_identity_b(self):
        assert np.allclose(synthesize_K(np.eye(2), 2.0), -2.0 * np.eye(2))

    def test_rlc_b_reproduces_scenario_gain(self):
        K = synthesize_K(B1, 3.0)
        assert np.allclose(K, K1, atol=1e-12)
        assert np.allclose(B1 @ K, -3.0 * np.eye(2), atol=1e-12)

    def test_mbar_boundary(self):
        with pytest.raises(SynthesisError):
            synthesize_K(np.eye(2), 1.0)

    def test_singular_b(self):
        with pytest.raises(SynthesisError):
            synthesize_K(np.array([[1.0, 1.0], [1.0, 1.0]]), 2.0)

    def test_ltil_identity(self):
        assert np.allclose(synthesize_Ltil(np.eye(2), 4.0), 4.0 * np.eye(2))

    def test_ltil_rlc_reproduces_scenario_gain(self):
        Lt = synthesize_Ltil(Cm1, 4.0)
        assert np.allclose(Lt, Ltil1, atol=1e-12)

    def test_ltil_mbar_boundary(self):
        with pytest.raises(SynthesisError):
            synthesize_Ltil(np.eye(2), 0.5)

    @given(st.lists(st.floats(min_value=-3, max_value=3), min_size=4, max_size=4),
           st.floats(min_value=1.01, max_value=50.0))
    @settings(max_examples=60, deadline=None)
    def test_synthesized_gain_always_feasible(self, vals, mbar):
        B = np.array(vals).reshape(2, 2) + 4.0 * np.eye(2)
        # the draw can be singular, e.g. [[3, -1], [-3, 1]], and synthesize_K rightly raises on it;
        # B K = -mbar I then holds to about cond(B) times the float precision
        assume(np.linalg.cond(B) < 1e6)
        K = synthesize_K(B, mbar)
        ok, max_re = check_ptor_state(B, K)
        assert ok
        assert max_re == pytest.approx(-mbar, rel=1e-8)


class TestCertifyRate:
    @pytest.mark.parametrize("mbar", [1.5, 3.0, 10.0])
    def test_scaled_identity(self, mbar):
        P, rate = certify_rate(-mbar * np.eye(2))
        assert np.allclose(P, np.eye(2) / (2.0 * mbar), atol=1e-12)
        assert rate == pytest.approx(mbar, abs=1e-9)

    def test_jordan_block_rate_below_abscissa(self):
        M = np.array([[-2.0, 1.0], [0.0, -2.0]])
        P, rate = certify_rate(M)
        assert rate <= 2.0 + 1e-12
        P_oracle = scipy.linalg.solve_continuous_lyapunov(M.T, -np.eye(2))
        rate_oracle = 1.0 / (2.0 * np.linalg.eigvalsh(P_oracle).max())
        assert rate == pytest.approx(rate_oracle, rel=1e-9)

    def test_non_hurwitz_rejected(self):
        with pytest.raises(SynthesisError):
            certify_rate(np.eye(2))

    @given(st.floats(min_value=1e-3, max_value=100.0))
    @settings(max_examples=80, deadline=None)
    def test_uniform_contraction_rate_is_exact(self, mbar):
        _, rate = certify_rate(-mbar * np.eye(2))
        assert rate == pytest.approx(mbar, abs=1e-9, rel=1e-9)

    @given(st.lists(st.floats(min_value=-2, max_value=2), min_size=9, max_size=9),
           st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=40, deadline=None)
    def test_rate_invariant_to_joint_certificate_scaling(self, vals, c):
        M = np.array(vals).reshape(3, 3) - 5.0 * np.eye(3)
        P1 = solve_lyapunov(-M, np.eye(3))
        Pc = solve_lyapunov(-M, c * np.eye(3))
        r1 = 1.0 / (2.0 * np.linalg.eigvalsh(P1).max())
        rc = c / (2.0 * np.linalg.eigvalsh(Pc).max())
        assert rc == pytest.approx(r1, rel=1e-8)
        assert certify_rate(M)[1] == pytest.approx(r1, rel=1e-8)

    def test_agent_order_past_old_eigenvalue_cap(self):
        B = np.eye(40)
        K = synthesize_K(B, 3.0)
        assert check_ptor_state(B, K) == (True, -3.0)
        P, rate = certify_rate(B @ K)
        assert rate == pytest.approx(3.0, abs=1e-12)
        assert np.allclose(P, np.eye(40) / 6.0, atol=1e-12)


class TestCascadeCriterion:
    @pytest.mark.parametrize("theta", [1.5, 3.0, 10.0])
    def test_tight_instantiation_passes(self, theta):
        psi_rho = theta + 1.0
        r = CascadeRates(alpha1=2.0 * psi_rho, alpha2=2.0 * theta,
                         m_exp=2.0, n_exp=2.0, p_exp=1.0, alpha_star=theta - 1.0)
        assert check_cascade_criterion(r)

    @pytest.mark.parametrize("theta", [1.5, 3.0, 10.0])
    def test_slightly_slow_observer_fails(self, theta):
        psi_rho = theta + 1.0 - 0.01
        r = CascadeRates(alpha1=2.0 * psi_rho, alpha2=2.0 * theta,
                         m_exp=2.0, n_exp=2.0, p_exp=1.0, alpha_star=theta - 1.0)
        assert not check_cascade_criterion(r)

    def test_first_branch_violation(self):
        r = CascadeRates(alpha1=2.0 * (1.0 + 2.0) - 0.05, alpha2=2.0 * 2.0 + 2.0,
                         m_exp=2.0, n_exp=2.0, p_exp=1.0, alpha_star=2.0)
        # alpha1 just below 2(p + alpha*) = 6
        assert not check_cascade_criterion(r)

    def test_literal_small_values(self):
        r = CascadeRates(alpha1=0.1, alpha2=0.1, m_exp=0.1, n_exp=0.1,
                         p_exp=0.01, alpha_star=0.01)
        # alpha2 = 0.1 >= 0.04 but alpha1 = 0.1 < 2(0.1+0.1)/0.1 = 4
        assert not check_cascade_criterion(r)

    def test_rejects_nonpositive_fields(self):
        with pytest.raises(ValueError):
            CascadeRates(alpha1=1.0, alpha2=0.0, m_exp=1.0, n_exp=1.0, p_exp=1.0, alpha_star=1.0)


def chain_setup(psi=8.0, mbar_K=3.0, mbar_L=4.0, n_agents=6):
    agents = [rlc_agent() for _ in range(n_agents)]
    exo = rlc_exo()
    regs = [solve_regulator(a, exo) for a in agents]
    net = network_from_edges(n_agents, [(k, k + 1, 1.0) for k in range(n_agents)])
    rates = observer_rate(partition_laplacian(net))
    spec = GainSpec(psi=psi, Kbar=np.zeros((2, 2)),
                    L=np.array([[1.0, -2.0], [2.0, -0.3]]),
                    mbar_K=mbar_K, mbar_L=mbar_L)
    gains = build_gain_set(spec, agents, regs)
    return agents, exo, regs, rates, gains


def by_name(report) -> dict:
    return {c.name: c for c in report.checks}


class TestVerifyGains:
    def test_rlc_state_feedback(self):
        agents, exo, regs, rates, gains = chain_setup()
        report = verify_gains("state_fb", gains, rates, agents, regs)
        checks = by_name(report)
        assert checks["state loop: theta_i > 1"].passed
        assert checks["state loop: theta_i > 1"].measured == pytest.approx(3.0, abs=1e-9)
        coupling = checks["coupling: psi*rho_H >= theta_i + 1"]
        assert coupling.measured == pytest.approx(8.0 * rates.rho_H, rel=1e-12)
        assert coupling.passed == (8.0 * rates.rho_H >= 4.0)
        assert not report.has_errors()

    def test_rlc_output_feedback_reports_cascade_gap_warning(self):
        agents, exo, regs, rates, gains = chain_setup()
        report = verify_gains("output_fb", gains, rates, agents, regs)
        gap = by_name(report)["cascade: vartheta_i >= theta_i + 3/2"]
        # vartheta = 4, theta = 3: gap 1 < 1.5 is flagged, severity warning
        assert gap.measured == pytest.approx(1.0, abs=1e-9)
        assert not gap.passed
        assert gap.severity == "warning"
        assert not report.has_errors()

    def test_zero_psi_flags_coupling(self):
        agents, exo, regs, rates, gains = chain_setup(psi=1e-9)
        report = verify_gains("state_fb", gains, rates, agents, regs)
        assert not by_name(report)["coupling: psi*rho_H >= theta_i + 1"].passed

    def test_inconsistent_feedforward_is_error(self):
        agents, exo, regs, rates, gains = chain_setup()
        gains.Ktil[2] = gains.Ktil[2] + 0.01
        report = verify_gains("state_fb", gains, rates, agents, regs)
        line = by_name(report)["feedforward: Ktil = U - Kbar*X"]
        assert not line.passed
        assert line.severity == "error"
        assert report.has_errors()

    def test_every_inequality_appears_exactly_once(self):
        agents, exo, regs, rates, gains = chain_setup()
        report = verify_gains("output_fb", gains, rates, agents, regs)
        names = [c.name for c in report.checks]
        assert len(names) == len(set(names)) == 10

    def test_perturbing_psi_flips_exactly_one_line(self):
        # star graph: H = I, rho_H = 1, so psi = theta + 1 sits exactly on the bound
        agents = [rlc_agent() for _ in range(3)]
        exo = rlc_exo()
        regs = [solve_regulator(a, exo) for a in agents]
        net = network_from_edges(3, [(0, i, 1.0) for i in (1, 2, 3)])
        rates = observer_rate(partition_laplacian(net))
        assert rates.rho_H == pytest.approx(1.0, abs=1e-12)
        spec = GainSpec(psi=4.0, Kbar=np.zeros((2, 2)), mbar_K=3.0)
        gains = build_gain_set(spec, agents, regs)
        ok_report = verify_gains("state_fb", gains, rates, agents, regs)
        assert all(c.passed for c in ok_report.checks)

        gains.psi = 3.99
        bad_report = verify_gains("state_fb", gains, rates, agents, regs)
        flipped = [c.name for a, c in zip(ok_report.checks, bad_report.checks)
                   if a.passed != c.passed]
        assert flipped == ["coupling: psi*rho_H >= theta_i + 1"]

    @pytest.mark.parametrize("mbar_L, passes", [(4.5, True), (4.5 - 1e-9, False)])
    def test_cascade_boundary(self, mbar_L, passes):
        # scaled RLC circuits (A, B times s) at B K = -3 I and Ltil Cm = 4.5 I: every gap
        # vartheta - theta is 3/2 up to rounding, and s = 1.25 rounds it below
        base, exo = rlc_agent(), rlc_exo()
        agents = [replace(base, A=s * base.A, B=s * base.B) for s in (0.6, 1.0, 1.25)]
        regs = [solve_regulator(a, exo) for a in agents]
        net = network_from_edges(3, [(0, i, 4.0) for i in (1, 2, 3)])
        rates = observer_rate(partition_laplacian(net))
        spec = GainSpec(psi=2.0, Kbar=np.zeros((2, 2)), L=np.zeros((2, 2)), mbar_K=3.0, mbar_L=mbar_L)
        gains = build_gain_set(spec, agents, regs)
        checks = by_name(verify_gains("output_fb", gains, rates, agents, regs))
        cascade = checks["cascade: vartheta_i >= theta_i + 3/2"]
        assert cascade.measured < 1.5 and cascade.passed == passes
        assert (cascade.measured > 1.5 - 1e-14) == passes
        assert all(c.passed for c in checks.values() if c is not cascade)


class TestConditionText:
    """The full condition table, against text recorded before it became table-driven."""

    @pytest.mark.parametrize("name, mode, drop_theta", [
        ("example1_rlc", "state_fb", False), ("example1_rlc", "output_fb", False),
        ("example2_ccvsi", "state_fb", False), ("example2_ccvsi", "output_fb", False),
        ("example1_rlc", "output_fb", True),
    ])
    def test_matches_recorded_text(self, name, mode, drop_theta):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # example2's exosystem is deliberately unstable
            scenario = load_scenario(name)
        model = compile_model(scenario)
        gains = model.gains
        if drop_theta:
            # a zero K for the last agent leaves B K singular: no theta certificate
            K = list(gains.K[:-1]) + [np.zeros_like(gains.K[-1])]
            gains = build_gain_set(replace(scenario.gain_spec, K=K), scenario.agents, model.regs)
            assert gains.theta[-1] is None
        rates = observer_rate(partition_laplacian(scenario.network))
        text = verify_gains(mode, gains, rates, scenario.agents, model.regs).to_text()
        expected = Path(__file__).parent / "expected" / f"{name}_{mode}{'_no_theta' * drop_theta}.txt"
        assert text + "\n" == expected.read_text(encoding="utf-8")


class TestBuildGainSet:
    def test_requires_some_k(self):
        agents = [rlc_agent()]
        regs = [solve_regulator(agents[0], rlc_exo())]
        with pytest.raises(SynthesisError, match="mbar_K"):
            build_gain_set(GainSpec(psi=1.0), agents, regs)

    def test_default_ktil_from_regulator(self):
        agents, exo, regs, rates, gains = chain_setup()
        expected = regs[0].U  # Kbar = 0
        assert np.allclose(gains.Ktil[0], expected, atol=1e-12)

    def test_explicit_gain_shape_mismatch(self):
        agents = [rlc_agent()]
        regs = [solve_regulator(agents[0], rlc_exo())]
        with pytest.raises(SynthesisError, match="K\\[0\\]"):
            build_gain_set(GainSpec(psi=1.0, K=np.zeros((3, 2))), agents, regs)

    def test_injection_gain_without_ltil_rejected(self):
        agents = [rlc_agent()]
        regs = [solve_regulator(agents[0], rlc_exo())]
        spec = GainSpec(psi=1.0, mbar_K=2.0, L=np.eye(2))
        with pytest.raises(SynthesisError, match="Ltil"):
            build_gain_set(spec, agents, regs)
