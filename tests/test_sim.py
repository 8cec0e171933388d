import math
import warnings
from dataclasses import astuple, replace

import numpy as np
import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ptcor.sim
from perfbench import generate
from ptcor.graph import Network, network_from_edges
from ptcor.plant import AgentModel, Exosystem
from ptcor.scenario import Scenario, load_scenario, scenario_from_dict
from ptcor.sim import (
    CSV_FIXED_COLUMNS,
    ESCAPE_NORM,
    MAX_STEPS,
    MODES,
    PTCOR_MODES,
    RELAY_STEP_MAX_DIM,
    SERIES_DEGREE,
    DENSE_MAX_DIM,
    BaselineConstants,
    MuSchedule,
    SimConfig,
    Trajectory,
    _drive,
    _GRows,
    _Operator,
    _plan,
    _table,
    check_step_budget,
    compile_model,
    integrate,
    kappa,
    mu,
    sig,
)
from ptcor.synthesis import GainSpec, SynthesisError
from tests.oracle import (
    ClosedLoopState,
    drive,
    error_coordinates,
    plant_state,
    rhs_baseline,
    rhs_output_fb,
    rhs_state_fb,
)


class TestMuSchedule:
    def test_mu_initial(self):
        assert mu(MuSchedule(T=2.0), 0.0) == pytest.approx(0.5)

    def test_mu_post_horizon(self):
        assert mu(MuSchedule(T=2.0, a=0.5), 2.5) == pytest.approx(0.5)

    def test_mu_near_horizon(self):
        assert mu(MuSchedule(T=2.0), 1.9) == pytest.approx(10.0)

    def test_mu_capped(self):
        s = MuSchedule(T=2.0, mu_cap=1e6)
        assert mu(s, 2.0 - 1e-9) == 1e6

    def test_mu_before_start(self):
        with pytest.raises(ValueError):
            mu(MuSchedule(T=2.0, t0=1.0), 0.5)

    def test_mu_vectorized(self):
        s = MuSchedule(T=2.0)
        out = mu(s, np.array([0.0, 1.9, 3.0]))
        assert np.allclose(out, [0.5, 10.0, 0.5])

    def test_default_a_is_inverse_horizon(self):
        assert MuSchedule(T=4.0).a == pytest.approx(0.25)

    def test_kappa_values(self):
        s = MuSchedule(T=2.0)
        assert kappa(s, 0.0) == pytest.approx(1.0)
        assert kappa(s, 2.0) == 0.0
        assert kappa(s, 1.0) == pytest.approx(0.5)
        assert kappa(s, 5.0) == 0.0

    def test_invalid_schedule(self):
        with pytest.raises(ValueError):
            MuSchedule(T=-1.0)
        with pytest.raises(ValueError):
            MuSchedule(T=2.0, mu_cap=0.1)

    @pytest.mark.parametrize("field, value", [
        ("T", np.nan), ("T", np.inf), ("t0", np.nan), ("t0", -np.inf),
        ("a", np.nan), ("a", np.inf), ("mu_cap", np.nan), ("mu_cap", np.inf)])
    def test_non_finite_schedule_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            MuSchedule(**{"T": 2.0, field: value})

    # 1 / (1 / 1e5) rounds below 1e5, so the capped window must return mu_cap itself
    @pytest.mark.parametrize("cap", [1e5, 1e6])
    def test_matches_scalar_rule(self, cap):
        # the branchy scalar rule the array rule replaced
        def scalar_rule(s, t):
            if t >= s.horizon:
                return s.a
            rem = s.horizon - t
            return s.mu_cap if rem <= s.eps else 1.0 / rem

        s = MuSchedule(T=2.0, t0=0.5, a=0.3, mu_cap=cap)
        clamp = s.horizon - s.eps
        t = np.r_[np.linspace(0.5, 3.0, 1001), clamp, np.nextafter(clamp, 0), np.nextafter(clamp, 3),
                  s.horizon, np.nextafter(s.horizon, 0), np.nextafter(s.horizon, 3), 1e3]
        expected = [scalar_rule(s, ti) for ti in t.tolist()]
        assert mu(s, t).tolist() == expected
        assert [mu(s, ti) for ti in t.tolist()] == expected
        assert mu(s, s.horizon - 0.5 * s.eps) == s.mu_cap and mu(s, s.horizon) == s.a
        assert type(mu(s, 1.0)) is float


class TestSimConfig:
    @pytest.mark.parametrize("field", ["dt", "guard", "duration"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1.0])
    def test_non_finite_or_non_positive_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            SimConfig(**{field: value})

    @pytest.mark.parametrize("t0, dt, duration, match", [
        (0.0, 1e-12, 5.0, "dt: 1e-12 takes 5e"),              # 5e12 steps
        (0.0, 1e-17, 5.0, "dt: 1e-17 takes"),                 # below the float spacing too
        (1e13, 1e-4, 1e13 + 5.0, "dt: 0.0001 is below half"),  # 5e4 steps, none advancing t
        # each step advances t by 1.9e-6, the float spacing at 1e10, while the state moves by 1e-6
        (1e10, 1e-6, 1e10 + 0.01, r"dt: 1e-06 is under 1e\+06 float spacings at t = 1e\+10"),
        # a run that ends before, or where, it starts has no step to take
        (6.0, 1e-4, 5.0, "duration: 5 ends at or before t0 = 6"),
        (5.0, 1e-4, 5.0, "duration: 5 ends at or before t0 = 5"),
    ])
    def test_step_budget_checked_before_compiling(self, monkeypatch, t0, dt, duration, match):
        s = scalar_scenario()
        s.mu_schedule = MuSchedule(T=1.0, t0=t0)
        monkeypatch.setattr(ptcor.sim, "compile_model", lambda scenario: pytest.fail("compiled"))
        with pytest.raises(ValueError, match=match):
            integrate(s, SimConfig(mode="state_fb", dt=dt, duration=duration))

    def test_stride_is_at_most_max_steps(self):
        # no run has more steps; a larger stride would reach the plan as an object array
        assert SimConfig(stride=MAX_STEPS).stride == MAX_STEPS
        with pytest.raises(ValueError, match="stride"):
            SimConfig(stride=MAX_STEPS + 1)

    def test_budget_is_inclusive(self):
        sched = MuSchedule(T=1.0)
        check_step_budget(sched, SimConfig(dt=1.0, duration=float(MAX_STEPS)))
        with pytest.raises(ValueError, match="dt:"):
            check_step_budget(sched, SimConfig(dt=1.0, duration=MAX_STEPS + 1.0))

    def test_guard_budget(self):
        # ln(T mu_cap)/guard bounds the guard-shrunk steps: ln(1e6)/1e-6 is 1.4e7
        with pytest.raises(ValueError, match="guard:"):
            check_step_budget(MuSchedule(T=1.0), SimConfig(guard=1e-6))

    def test_guard_step_that_does_not_advance_t_is_rejected(self):
        # guard/mu_cap = 1e-18 is below half the float spacing near t = 1
        sched = MuSchedule(T=1.0, mu_cap=1e16)
        with pytest.raises(ValueError, match="guard: a step of .* does not advance t"):
            _plan(sched, SimConfig(mode="state_fb", dt=1e-3, guard=0.01, duration=1.5), guarded=True)

    def test_oracle_rejects_a_guard_step_that_does_not_advance_t(self):
        # the reference loop stops with the plan's error instead of stepping in place for ever
        s = scalar_scenario()
        s.mu_schedule = MuSchedule(T=1.0, mu_cap=1e16)
        op = _Operator(compile_model(s), "state_fb", BaselineConstants())
        y0 = op.initial_state(s.exo.v0_init, s.v_init, s.x_init, s.xhat_init)
        cfg = SimConfig(mode="state_fb", dt=1e-3, guard=0.01, duration=1.5)
        with pytest.raises(ValueError, match="guard: a step of .* does not advance t"):
            drive(op, y0, s.mu_schedule, cfg)


def test_sig_definition():
    assert sig(-2.0, 1.1) == pytest.approx(-(2.0 ** 1.1))
    assert sig(0.0, 1.1) == 0.0
    assert np.allclose(sig(np.array([4.0, -4.0]), 0.5), [2.0, -2.0])


def scalar_scenario(K_gain=-2.0, psi=2.0, T=1.0, mode="state_fb", duration=1.5):
    one = lambda v: np.array([[float(v)]])
    agent = AgentModel(A=one(-1.0), B=one(1.0), E=one(0.0), C=one(1.0), D=one(0.0),
                       F=one(-1.0), Cm=one(1.0), Dm=one(0.0), Fm=one(0.0))
    exo = Exosystem(S0=np.zeros((1, 1)), v0_init=np.array([1.0]))
    net = network_from_edges(1, [(0, 1, 1.0)])
    spec = GainSpec(psi=psi, Kbar=one(0.0), K=one(K_gain), L=one(1.0), Ltil=one(2.0))
    return Scenario(
        name="scalar", network=net, agents=[agent], exo=exo, gain_spec=spec,
        mu_schedule=MuSchedule(T=T, mu_cap=1e6),
        sim_config=SimConfig(mode=mode, dt=1e-3, duration=duration, stride=5),
        x_init=[np.array([2.0])], v_init=np.array([[1.0]]), xhat_init=[np.array([2.0])],
    )


@pytest.fixture(scope="module")
def rlc_model():
    scenario = load_scenario("example1_rlc")
    return scenario, compile_model(scenario)


class TestRhsStateFeedback:
    def test_scalar_hand_values(self):
        s = scalar_scenario()
        model = compile_model(s)
        state = ClosedLoopState(v0=np.array([1.0]), v=np.array([[1.0]]),
                                x=[np.array([2.0])])
        d = rhs_state_fb(state, 0.0, model)
        # X = U = 1, so u = v + mu*K*(x - v) = 1 + 1*(-2)*(2-1) = -1, dx = -x + u = -3
        assert d.v0[0] == pytest.approx(0.0)
        assert d.v[0, 0] == pytest.approx(0.0)
        assert d.x[0][0] == pytest.approx(-3.0)

    def test_regulator_manifold_is_invariant(self, rlc_model):
        scenario, model = rlc_model
        v0 = np.array([0.3, -1.2])
        state = ClosedLoopState(
            v0=v0,
            v=np.tile(v0, (6, 1)),
            x=[model.regs[i].X @ v0 for i in range(6)],
        )
        d = rhs_state_fb(state, 0.0, model)
        for i in range(6):
            # on the manifold u = U v0 and d/dt (x - X v0) = 0
            drift = d.x[i] - model.regs[i].X @ d.v0
            assert np.abs(drift).max() <= 1e-12
            assert np.abs(d.v[i] - model.exo.S0 @ v0).max() <= 1e-12

    def test_rlc_initial_derivative_is_finite(self, rlc_model):
        scenario, model = rlc_model
        state = ClosedLoopState(v0=scenario.exo.v0_init, v=scenario.v_init,
                                x=scenario.x_init)
        d = rhs_state_fb(state, 0.0, model)
        assert np.isfinite(d.v0).all()
        assert all(np.isfinite(xi).all() for xi in d.x)

    def test_non_finite_state_aborts_with_diagnostic(self, rlc_model):
        scenario, model = rlc_model
        bad = [x.copy() for x in scenario.x_init]
        bad[0] = np.array([np.inf, 0.0])
        state = ClosedLoopState(v0=scenario.exo.v0_init, v=scenario.v_init, x=bad)
        with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError, match="non-finite"):
            rhs_state_fb(state, 0.0, model)


class TestRhsOutputFeedback:
    def test_manifold_with_exact_observer(self, rlc_model):
        scenario, model = rlc_model
        v0 = np.array([1.0, 1.0])
        x = [model.regs[i].X @ v0 for i in range(6)]
        state = ClosedLoopState(v0=v0, v=np.tile(v0, (6, 1)), x=x,
                                xhat=[xi.copy() for xi in x])
        d = rhs_output_fb(state, 0.0, model)
        for i in range(6):
            assert np.abs(d.x[i] - model.regs[i].X @ d.v0).max() <= 1e-12
            # innovation vanishes, so the observer tracks the plant exactly
            assert np.abs(d.xhat[i] - d.x[i]).max() <= 1e-12

    def test_rlc_initial_derivative_is_finite(self, rlc_model):
        scenario, model = rlc_model
        state = ClosedLoopState(v0=scenario.exo.v0_init, v=scenario.v_init,
                                x=scenario.x_init, xhat=scenario.xhat_init)
        d = rhs_output_fb(state, 0.0, model)
        assert all(np.isfinite(h).all() for h in d.xhat)

    def test_zero_feedthrough_needs_no_implicit_solve(self):
        with pytest.warns(UserWarning, match="neutrally stable"):
            scenario = load_scenario("example2_ccvsi")
        model = compile_model(scenario)
        assert max(np.abs(a.Dm).max() for a in model.agents) == 0.0
        state = ClosedLoopState(v0=scenario.exo.v0_init, v=scenario.v_init,
                                x=scenario.x_init, xhat=scenario.xhat_init)
        d = rhs_output_fb(state, 0.0, model)
        assert all(np.isfinite(h).all() for h in d.xhat)

    def test_plant_and_error_coordinates_agree(self, rlc_model):
        # dual route: the literal plant-coordinate equations must match the
        # error-coordinate LTV form used by the integrator
        scenario, model = rlc_model
        system = _Operator(model, "output_fb", BaselineConstants())
        rng = np.random.RandomState(3)
        v0 = rng.uniform(-2, 2, size=2)
        v = rng.uniform(-2, 2, size=(6, 2))
        x = [rng.uniform(-3, 3, size=2) for _ in range(6)]
        xh = [rng.uniform(-3, 3, size=2) for _ in range(6)]
        state = ClosedLoopState(v0=v0, v=v, x=x, xhat=xh)
        t = 1.7  # mu(t) = 1/0.3, well inside the blow-up phase
        d = rhs_output_fb(state, t, model)

        y = system.initial_state(v0, v, x, xh)
        dy = system.rhs(t, y)
        # transform the plant-coordinate derivative into error coordinates
        dv_flat = d.v.reshape(-1) - np.tile(d.v0, 6)
        dx_flat = np.concatenate(d.x)
        dxh_flat = np.concatenate(d.xhat)
        expected = np.concatenate([
            d.v0, dv_flat, dx_flat - np.concatenate([r.X @ d.v0 for r in model.regs]), dxh_flat - dx_flat,
        ])
        assert np.abs(dy - expected).max() <= 1e-9


class TestRhsBaseline:
    def test_zero_disagreement_reduces_to_exosystem_copy(self, rlc_model):
        scenario, model = rlc_model
        v0 = np.array([1.0, -0.5])
        state = ClosedLoopState(v0=v0, v=np.tile(v0, (6, 1)),
                                x=scenario.x_init, xhat=scenario.xhat_init)
        for kind in ("asymptotic", "fixed_time"):
            d = rhs_baseline(state, 0.0, model, kind)
            for i in range(6):
                assert np.abs(d.v[i] - model.exo.S0 @ v0).max() <= 1e-12

    def test_unknown_kind_rejected(self, rlc_model):
        scenario, model = rlc_model
        state = ClosedLoopState(v0=scenario.exo.v0_init, v=scenario.v_init,
                                x=scenario.x_init, xhat=scenario.xhat_init)
        with pytest.raises(ValueError):
            rhs_baseline(state, 0.0, model, "sliding_mode")


def random_plant_state(observer: bool, seed: int) -> ClosedLoopState:
    rng = np.random.RandomState(seed)
    return ClosedLoopState(
        v0=rng.uniform(-2, 2, size=2), v=rng.uniform(-2, 2, size=(6, 2)),
        x=[rng.uniform(-3, 3, size=2) for _ in range(6)],
        xhat=[rng.uniform(-3, 3, size=2) for _ in range(6)] if observer else None,
    )


def oracle_rhs(state, t, model, mode):
    if mode == "state_fb":
        return rhs_state_fb(state, t, model)
    if mode == "output_fb":
        return rhs_output_fb(state, t, model)
    return rhs_baseline(state, t, model, mode.removeprefix("baseline_"))


class TestOperatorMatchesOracle:
    """The operator against the plant-coordinate loops of tests/oracle.py, at times given as those of
    example1_rlc (T = 2) and scaled to the loop's horizon."""

    @pytest.fixture
    def loop(self, rlc_model):
        return rlc_model

    # mu(t) = 1/(2 - t): 0.59 early, 3.3 in the blow-up phase, 1e5 near the clamp
    @pytest.mark.parametrize("t", [0.3, 1.7, 2.0 - 1e-5])
    @pytest.mark.parametrize("mode", MODES)
    def test_rhs_matches_plant_coordinates(self, loop, mode, t):
        scenario, model = loop
        t = scenario.mu_schedule.t0 + t / 2 * scenario.mu_schedule.T
        op = _Operator(model, mode, BaselineConstants())
        state = random_plant_state(mode != "state_fb", seed=11)
        y = error_coordinates(model, state)
        if op.W is not None:
            # every relay argument is far from its switching surface
            assert np.abs(op.W @ y).min() > 1e-3
        expected = error_coordinates(model, oracle_rhs(state, t, model, mode))
        # plant coordinates difference O(mu) terms, so allow rounding relative to the largest
        assert np.abs(op.rhs(t, y) - expected).max() <= 1e-10 * np.abs(expected).max()

    def test_fixed_time_outputs_match_plant_coordinates(self, loop):
        # the relay enters e and u_tilde through u; recompute both per agent
        scenario, model = loop
        scale = scenario.mu_schedule.T / 2
        cfg = SimConfig(mode="baseline_fixed_time", dt=1e-3, duration=2.1 * scale, stride=50)
        traj = integrate(scenario, cfg, model=model)
        k = int(np.argmin(np.abs(traj.t - 0.5 * scale)))
        st = plant_state(model, traj.y[k], observer=True)
        g, c = model.gains, cfg.baseline
        e, ut = [], []
        for i, agent in enumerate(model.agents):
            track = st.xhat[i] - model.regs[i].X @ st.v[i]
            assert np.abs(track).min() > 1e-6
            u = (g.Kbar[i] @ st.xhat[i] + g.Ktil[i] @ st.v[i]
                 + g.K[i] @ np.sign(track) + g.K[i] @ sig(track, c.c4))
            ut.append(u - model.regs[i].U @ st.v0)
            e.append(agent.C @ st.x[i] + agent.D @ u + agent.F @ st.v0)
        e = np.concatenate(e)
        assert np.abs(traj.e[k] - e).max() <= 1e-9 * np.abs(e).max()
        assert np.linalg.norm(np.concatenate(ut)) == pytest.approx(traj.u_tilde_norm[k], rel=1e-9)


class TestHeterogeneousOperatorMatchesOracle(TestOperatorMatchesOracle):
    """The same checks on six followers that differ (generated N = 6, T = 1): both bundled scenarios are
    six copies of one agent, on which an agent-order slip in the per-agent assembly would not show."""

    @pytest.fixture(scope="class")
    def loop(self):
        s = scenario_from_dict(yaml.safe_load(generate.scenario_yaml(6, 1)), name_fallback="n6")
        assert len({a.A.tobytes() for a in s.agents}) == 6
        return s, compile_model(s)


class TestFeedforwardConsistency:
    def inconsistent(self, mode="state_fb"):
        s = scalar_scenario(mode=mode)
        # the regulator gives U - Kbar X = 1
        s.gain_spec = replace(s.gain_spec, Ktil=np.array([[0.5]]))
        return s

    def test_plant_loop_leaves_the_manifold(self):
        model = compile_model(self.inconsistent())
        X = model.regs[0].X
        state = ClosedLoopState(v0=np.array([1.0]), v=np.array([[1.0]]), x=[X @ np.array([1.0])])
        d = rhs_state_fb(state, 0.0, model)
        assert (d.x[0] - X @ d.v0)[0] == pytest.approx(-0.5)

    @pytest.mark.parametrize("mode", MODES)
    def test_integrate_raises(self, mode):
        with pytest.raises(SynthesisError, match="Ktil"):
            integrate(self.inconsistent(mode))


class TestIntegrate:
    def test_zero_initial_errors_stay_zero(self, rlc_model):
        scenario, model = rlc_model
        v0 = scenario.exo.v0_init
        manifold = Scenario(
            name="manifold", network=scenario.network, agents=scenario.agents,
            exo=scenario.exo, gain_spec=scenario.gain_spec,
            mu_schedule=scenario.mu_schedule,
            sim_config=SimConfig(mode="output_fb", dt=1e-3, duration=2.5, stride=10),
            x_init=[model.regs[i].X @ v0 for i in range(6)],
            v_init=np.tile(v0, (6, 1)),
            xhat_init=[model.regs[i].X @ v0 for i in range(6)],
        )
        traj = integrate(manifold, model=model)
        assert traj.e_norm.max() <= 1e-6
        assert not traj.finite_escape

    def test_sample_times_strictly_increasing_and_cover_clamp(self, rlc_model):
        scenario, model = rlc_model
        cfg = SimConfig(mode="output_fb", dt=1e-3, duration=2.5, stride=7)
        traj = integrate(scenario, cfg, model=model)
        assert (np.diff(traj.t) > 0).all()
        sched = scenario.mu_schedule
        clamp = sched.horizon - sched.eps
        assert np.abs(traj.t - clamp).min() <= 1e-12
        assert np.abs(traj.t - sched.horizon).min() <= 1e-12
        assert traj.t[-1] == pytest.approx(2.5)
        assert traj.mu[np.argmin(np.abs(traj.t - clamp))] == sched.mu_cap

    def test_sampled_states_match_derived_signals(self, rlc_model):
        scenario, model = rlc_model
        cfg = SimConfig(mode="output_fb", dt=1e-3, duration=2.3, stride=20)
        traj = integrate(scenario, cfg, model=model)
        assert traj.y is not None and len(traj.y) == len(traj.t)
        first = plant_state(model, traj.y[0], observer=True)
        for i in range(6):
            assert np.allclose(first.x[i], scenario.x_init[i])
            assert np.allclose(first.xhat[i], scenario.xhat_init[i])
        # recompute the observer disagreement from plant coordinates on an
        # early sample, where it is far above rounding noise
        k = int(np.argmin(np.abs(traj.t - 0.5)))
        st = plant_state(model, traj.y[k], observer=True)
        vt = (st.v - st.v0).reshape(-1)
        assert np.linalg.norm(vt) == pytest.approx(traj.v_tilde_norm[k], rel=1e-9)

    def test_state_feedback_columns(self, rlc_model):
        scenario, model = rlc_model
        cfg = SimConfig(mode="state_fb", dt=1e-3, duration=2.2, stride=10)
        traj = integrate(scenario, cfg, model=model)
        assert traj.x_tilde_norm is None
        assert traj.phi[2] is not None
        assert traj.phi[3] is None and traj.phi[4] is None
        assert traj.phi[1] is not None

    def test_destabilizing_gain_escapes(self):
        # B K = +2 I repels from the manifold; the state grows like kappa^-2
        s = scalar_scenario(K_gain=2.0, duration=1.5)
        traj = integrate(s)
        assert traj.finite_escape
        assert traj.escape_time is not None and traj.escape_time < 1.0
        assert "finite-escape" in traj.diagnostic

    @pytest.mark.parametrize("mode", MODES)
    def test_last_sample_lands_on_duration(self, mode):
        # 1000 post-horizon steps of 1e-3 sum to 1.1e-13 short of 2
        s = scalar_scenario(mode=mode, duration=2.0)
        traj = integrate(s)
        assert traj.t[-1] == 2.0
        assert (np.diff(traj.t) > 0).all()

    def test_model_compiled_for_another_schedule_is_rejected(self, rlc_model):
        # the plan would take t0 = 3.1 from the scenario, the operator t0 = 0 from the model
        scenario, model = rlc_model
        moved = replace(scenario, mu_schedule=replace(scenario.mu_schedule, t0=3.1))
        with pytest.raises(ValueError, match=r"model: compiled for MuSchedule\(.*t0=0\.0.*t0=3\.1"):
            integrate(moved, replace(scenario.sim_config, duration=8.1), model=model)
        assert integrate(moved, replace(moved.sim_config, dt=1e-3, duration=8.1)).t[0] == 3.1

    def test_short_duration_warns(self):
        s = scalar_scenario(duration=0.5)
        with pytest.warns(UserWarning, match="horizon"):
            integrate(s)

    def test_step_guard_bounds_effective_step(self, rlc_model):
        scenario, model = rlc_model
        cfg = SimConfig(mode="output_fb", dt=1e-3, duration=2.2, stride=1, guard=0.1)
        traj = integrate(scenario, cfg, model=model)
        pre = traj.t < 2.0 - 1e-9
        gaps = np.diff(traj.t[pre])
        mus = traj.mu[pre][:-1]
        assert (gaps <= cfg.guard / mus + 1e-12).all()


class TestTrajectoryCsv:
    def test_round_trip(self, tmp_path, rlc_model):
        scenario, model = rlc_model
        cfg = SimConfig(mode="output_fb", dt=1e-3, duration=2.3, stride=25)
        traj = integrate(scenario, cfg, model=model)
        path = tmp_path / "run.csv"
        traj.to_csv(path)
        back = Trajectory.from_csv(path, mode="output_fb")
        assert np.allclose(back.t, traj.t, rtol=0, atol=1e-14)
        assert np.allclose(back.e_norm, traj.e_norm, rtol=1e-14, atol=1e-300)
        assert np.allclose(back.e, traj.e, rtol=1e-14, atol=1e-300)
        assert back.x_tilde_norm is not None
        assert back.phi[2] is None
        assert back.output_dims == traj.output_dims

    def test_header_only_file_rejected(self, tmp_path):
        path = tmp_path / "empty_run.csv"
        path.write_text(", ".join(CSV_FIXED_COLUMNS + ["e_1_1"]) + "\n")
        with pytest.raises(ValueError, match="empty_run.csv"):
            Trajectory.from_csv(path)

    def test_row_format(self, tmp_path):
        traj = Trajectory(
            mode="state_fb", t=np.array([0.0, 0.1]), mu=np.array([0.5, 1 / 3]),
            e=np.array([[1e-20, -2.0], [0.25, 1 / 7]]), e_norm=np.array([2.0, 0.5]),
            v_tilde_norm=np.array([1.0, 2.0]), x_bar_norm=np.array([3.0, 4.0]),
            x_tilde_norm=None, u_tilde_norm=np.array([5.0, 6.0]),
            phi={1: np.array([7.0, 8.0]), 2: np.array([9.0, 10.0]), 3: None, 4: None},
            output_dims=[2])
        path = tmp_path / "run.csv"
        traj.to_csv(path)
        assert path.read_text(encoding="utf-8").splitlines() == [
            ", ".join(CSV_FIXED_COLUMNS + ["e_1_1", "e_1_2"]),
            "0, 0.5, 2, 1, 3, , 5, 7, 9, , , 1e-20, -2",
            "0.1, 0.333333333333333, 0.5, 2, 4, , 6, 8, 10, , , 0.25, 0.142857142857143",
        ]

    @pytest.mark.parametrize("mode", PTCOR_MODES)
    def test_bytes_match_savetxt(self, tmp_path, rlc_model, mode):
        # state feedback leaves x_tilde, phi3 and phi4 empty; stride 1 gives several blocks of rows
        scenario, model = rlc_model
        traj = integrate(scenario, SimConfig(mode=mode, dt=1e-3, duration=2.3, stride=1), model=model)
        assert len(traj.t) > 4 * 512
        path, ref = tmp_path / "run.csv", tmp_path / "savetxt.csv"
        traj.to_csv(path)
        fixed = [traj.t, traj.mu, traj.e_norm, traj.v_tilde_norm, traj.x_bar_norm, traj.x_tilde_norm,
                 traj.u_tilde_norm] + [traj.phi[k] for k in (1, 2, 3, 4)]
        fmt = ", ".join(["" if c is None else "%.15g" for c in fixed] + ["%.15g"] * traj.e.shape[1])
        np.savetxt(ref, np.column_stack([c for c in fixed if c is not None] + [traj.e]), fmt=fmt,
                   comments="", header=", ".join(CSV_FIXED_COLUMNS + traj.e_columns()), encoding="utf-8")
        assert path.read_bytes() == ref.read_bytes()

    @staticmethod
    def savetxt_bytes(traj, path):
        """What np.savetxt writes for `traj` with the row format of `%.15g` fields and empty absent columns."""
        fixed = [traj.t, traj.mu, traj.e_norm, traj.v_tilde_norm, traj.x_bar_norm, traj.x_tilde_norm,
                 traj.u_tilde_norm] + [traj.phi[k] for k in (1, 2, 3, 4)]
        fmt = ", ".join(["" if c is None else "%.15g" for c in fixed] + ["%.15g"] * traj.e.shape[1])
        np.savetxt(path, np.column_stack([c for c in fixed if c is not None] + [traj.e]), fmt=fmt,
                   comments="", header=", ".join(CSV_FIXED_COLUMNS + traj.e_columns()), encoding="utf-8")
        return path.read_bytes()

    @pytest.mark.parametrize("name", ["example1_rlc", "example2_ccvsi"])
    @pytest.mark.parametrize("mode", MODES)
    def test_bundled_runs_match_savetxt(self, tmp_path, bundled_models, name, mode):
        # the baselines leave every phi column empty, so five empty fields follow ||u_tilde||; dt 1e-3
        # at stride 1 keeps the fixed-time runs short and gives several blocks of rows
        scenario, model = bundled_models[name]
        traj = integrate(scenario, replace(scenario.sim_config, mode=mode, dt=1e-3, stride=1), model=model)
        assert len(traj.t) > 2 * 512
        traj.to_csv(tmp_path / "run.csv")
        assert (tmp_path / "run.csv").read_bytes() == self.savetxt_bytes(traj, tmp_path / "savetxt.csv")

    def test_wide_rows_match_savetxt(self, tmp_path):
        # 72 values a row come in blocks of fewer than 512 rows, the last one short
        rng = np.random.default_rng(5)
        cols = [rng.standard_normal(700) * 10.0 ** rng.integers(-8, 20, 700) for _ in range(71)]
        traj = Trajectory(mode="baseline_asymptotic", t=np.arange(700) * 0.01, mu=cols[0], e=np.column_stack(cols[5:]),
                          e_norm=cols[1], v_tilde_norm=cols[2], x_bar_norm=cols[3], x_tilde_norm=None,
                          u_tilde_norm=cols[4], phi={k: None for k in (1, 2, 3, 4)}, output_dims=[2] * 33)
        traj.to_csv(tmp_path / "run.csv")
        assert (tmp_path / "run.csv").read_bytes() == self.savetxt_bytes(traj, tmp_path / "savetxt.csv")

    @staticmethod
    def percent_rows(block, suffixes):
        row = "%.15g" + "%.15g".join(suffixes)
        return "".join(row % tuple(r) for r in block.tolist())

    # any float64 (nan, +-inf, +-0.0 and subnormals among them), values spread over every decade, the
    # doubles nearest to 16-digit decimal ties, from the subnormals to 1e305, and the doubles just below
    # a power of ten, whose 15 digits carry into the exponent
    FLOATS = st.one_of(
        st.floats(width=64),
        st.builds(lambda m, e: m * 10.0**e, st.floats(-10.0, 10.0), st.integers(-300, 300)),
        st.builds(lambda d, e: float(f"{d}5e{e}"), st.integers(10**14, 10**15 - 1), st.integers(-345, 290)),
        st.builds(lambda e: math.nextafter(float(f"1e{e}"), 0.0), st.integers(-307, 308)),
    )

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 12), empties=st.lists(st.integers(0, 5), min_size=1, max_size=6))
    def test_rows_match_percent_format(self, data, rows, empties):
        # value c is followed by ", " and one more ", " per empty column after it; a row ends in "\n"
        suffixes = [", " * (k + 1) for k in empties[:-1]] + [", " * empties[-1] + "\n"]
        size = rows * len(suffixes)
        block = np.array(data.draw(st.lists(self.FLOATS, min_size=size, max_size=size))).reshape(rows, -1)
        assert _GRows(suffixes, 512).format(block) == self.percent_rows(block, suffixes)

    PINNED = [
        # each side of the switches between fixed and scientific notation
        *(float(np.nextafter(p, to)) for p in (1e-4, 1e-5, 1e15, 1e16) for to in (0.0, math.inf)),
        1e-4, 1e-5, 1e15, 1e16, 9.999999999999995e-5, 999999999999999.5, 99999999999999.95,
        # exact ties, the smallest subnormal and normal, the largest float, three-digit exponents
        112589990684262.5, 0.5, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e-100, -2.5e200,
        # near-ties that the rounding of |x| 10^k puts on the wrong side of one half
        2.278993156679995e-300, 9.422964153861585e41, 1.092928317403675e-241,
        # fixed notation below 1, down to the fourth zero; integers past 15 digits
        0.1, -0.012, 0.00123, 0.000999, 0.00010000000000000005, 123456789012345678.0, -1e17 + 2**4,
    ]

    @pytest.mark.parametrize("value", PINNED, ids=repr)
    def test_pinned_values_match_percent_format(self, value):
        block = np.array([[value, -value], [value / 3, value * 7]])
        suffixes = [", , , , , ", "\n"]
        assert _GRows(suffixes, 512).format(block) == self.percent_rows(block, suffixes)

    def test_unparsable_cell_names_the_file(self, tmp_path):
        path = tmp_path / "bad_cell.csv"
        path.write_text(", ".join(CSV_FIXED_COLUMNS + ["e_1_1"]) + "\n0, 1, 1, 1, 1, , 1, 1, 1, , , x\n")
        with pytest.raises(ValueError, match="bad_cell.csv: could not convert string"):
            Trajectory.from_csv(path)

    def test_blank_line_between_samples_is_skipped_quietly(self, tmp_path):
        path = tmp_path / "run.csv"
        path.write_text(", ".join(CSV_FIXED_COLUMNS + ["e_1_1"]) + "\n0, 1, 1, 1, 1, , 1, 1, 1, , , 1\n\n"
                        "0.5, 2, 1, 1, 1, , 1, 1, 1, , , 3\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = Trajectory.from_csv(path)
        assert back.t.tolist() == [0.0, 0.5] and back.e[:, 0].tolist() == [1.0, 3.0]

    def test_partly_empty_column_rejected(self, tmp_path):
        # x_tilde filled and then empty, and empty and then filled
        path = tmp_path / "run.csv"
        for x_tilde in (["1", ""], ["", "1"]):
            path.write_text(", ".join(CSV_FIXED_COLUMNS) + "\n" + "".join(
                f"{t}, 1, 1, 1, 1, {x}, 1, , , , \n" for t, x in enumerate(x_tilde)))
            with pytest.raises(ValueError):
                Trajectory.from_csv(path)

    @pytest.mark.parametrize("mode", PTCOR_MODES)
    def test_values_parse_as_python_floats(self, tmp_path, rlc_model, mode):
        # every field of every row, absent columns as None, against a row-by-row float() parse
        scenario, model = rlc_model
        path = tmp_path / "run.csv"
        integrate(scenario, SimConfig(mode=mode, dt=1e-3, duration=2.3, stride=7), model=model).to_csv(path)
        rows = [[c.strip() for c in line.split(",")] for line in path.read_text().splitlines()[1:]]
        cols = [None if not r0 else np.array([float(r[i]) for r in rows]) for i, r0 in enumerate(rows[0])]
        back = Trajectory.from_csv(path, mode=mode)
        fixed = [back.t, back.mu, back.e_norm, back.v_tilde_norm, back.x_bar_norm, back.x_tilde_norm,
                 back.u_tilde_norm] + [back.phi[k] for k in (1, 2, 3, 4)]
        for got, want in zip(fixed + list(back.e.T), cols, strict=True):
            assert (got is None) if want is None else np.array_equal(got, want)

    def test_header_format(self, tmp_path, rlc_model):
        scenario, model = rlc_model
        cfg = SimConfig(mode="state_fb", dt=1e-3, duration=2.2, stride=50)
        traj = integrate(scenario, cfg, model=model)
        path = tmp_path / "run.csv"
        traj.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header.startswith("t, mu, ||e||, ||v_tilde||, ||x_bar||, ||x_tilde||, ||u_tilde||, phi1, phi2, phi3, phi4, e_1_1")
        assert header.endswith("e_6_2")
        # state feedback: x_tilde, phi3, phi4 columns are empty
        first = path.read_text().splitlines()[1].split(",")
        assert first[5].strip() == ""
        assert first[9].strip() == "" and first[10].strip() == ""


@pytest.fixture(scope="module")
def bundled_models():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # example2's neutrally stable exosystem
        scenarios = [load_scenario(name) for name in ("example1_rlc", "example2_ccvsi")]
    return {s.name: (s, compile_model(s)) for s in scenarios}


ORACLE_RUNS = {}


def oracle_drive(op, y0, schedule, cfg):
    """`tests.oracle.drive`, run once per input: the `_drive` test classes below share its runs, and
    the oracle reads none of the constants they patch.  The key is the content of every input, never an
    id(): models are rebuilt per test, and the ids of dead ones are reused.  A CSR array keys by its
    dense content, so a loop gives one key whichever form its operator holds, except under the relay:
    the form of `W` sets the rounding of relay arguments that vanish by construction, and so their sign."""
    arrays = [getattr(op, name, None) for name in ("M01", "W", "G", "a", "b")]
    dense = [A.toarray() if hasattr(A, "toarray") else A for A in arrays]
    key = (*(None if A is None else (A.shape, A.tobytes()) for A in dense), getattr(op, "c4", None),
           type(op.W), op.schedule, schedule, astuple(cfg), y0.tobytes())
    if key not in ORACLE_RUNS:
        ORACLE_RUNS[key] = drive(op, y0, schedule, cfg)
        for shared in ORACLE_RUNS[key][:2]:  # every caller gets the same arrays
            shared.flags.writeable = False
    return ORACLE_RUNS[key]


def drive_both(scenario, model, cfg):
    op = _Operator(model, cfg.mode, cfg.baseline)
    y0 = op.initial_state(scenario.exo.v0_init, scenario.v_init, scenario.x_init, scenario.xhat_init)
    return op, _drive(op, y0, scenario.mu_schedule, cfg)[:5], oracle_drive(op, y0, scenario.mu_schedule, cfg)


class TestDriveMatchesOracle:
    """The step-map driver against the all-scalar reference loop in tests/oracle.py."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name", ["example1_rlc", "example2_ccvsi"])
    def test_same_grid_and_states(self, bundled_models, name, mode):
        scenario, model = bundled_models[name]
        cfg = replace(scenario.sim_config, mode=mode, dt=1e-3)
        op, (t, Y, escaped, _, _), (t_ref, Y_ref, escaped_ref, _, _) = drive_both(scenario, model, cfg)
        assert np.array_equal(t, t_ref)
        assert not escaped and not escaped_ref
        scale = np.abs(Y_ref).max(axis=0)
        assert (np.abs(Y - Y_ref) <= 1e-10 * scale).all()
        if op.guarded:
            # before the horizon a full step sums the RK4 polynomial in another order
            pre = t < scenario.mu_schedule.horizon
            assert (np.abs(Y[pre] - Y_ref[pre]) <= 1e-11 * scale).all()

    @pytest.mark.parametrize("mode", ["output_fb", "baseline_asymptotic"])
    def test_step_map_is_the_rk4_step(self, bundled_models, mode):
        scenario, model = bundled_models["example2_ccvsi"]
        op = _Operator(model, mode, BaselineConstants())
        h, t = 1e-3, scenario.mu_schedule.horizon + 1.0  # past the horizon, mu = a
        eye = np.eye(op.dim)
        k1 = op.rhs(t, eye)
        k2 = op.rhs(t + 0.5 * h, eye + 0.5 * h * k1)
        k3 = op.rhs(t + 0.5 * h, eye + 0.5 * h * k2)
        k4 = op.rhs(t + h, eye + h * k3)
        expected = eye + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        assert np.abs(op.step_map(h) - expected).max() <= 1e-14

    @pytest.mark.parametrize("mode, kbar, stride", [("state_fb", 3.0, 5), ("output_fb", 10.0, 8),
                                                    ("output_fb", 3.0, 5)])
    def test_escape_inside_post_horizon_stretch(self, mode, kbar, stride):
        # A + B Kbar = kbar - 1 and a K = -0.2 leave the post-horizon loop unstable
        s = scalar_scenario(mode=mode, duration=30.0)
        s.gain_spec = replace(s.gain_spec, Kbar=np.array([[kbar]]))
        s.mu_schedule = MuSchedule(T=1.0, a=0.1)
        cfg, model = replace(s.sim_config, stride=stride), compile_model(s)
        op, (t, Y, escaped, t_esc, diag), ref = drive_both(s, model, cfg)
        assert escaped and ref[2]
        assert t_esc == ref[3] and diag == ref[4]
        assert np.array_equal(t, ref[0])
        assert np.abs(Y - ref[1]).max() <= 1e-10 * np.abs(ref[1]).max()
        # sample intervals of full steps past the horizon are products while ||y|| ||R||^m stays within
        # ESCAPE_NORM / 2, and are walked step by step after that
        R = op.step_map(cfg.dt)
        reach = np.abs(Y).max(axis=1) * np.abs(R).sum(axis=1).max() ** stride / (0.5 * ESCAPE_NORM)
        post = t > s.mu_schedule.horizon + stride * cfg.dt
        assert reach[post][0] <= 1e-3 and reach[-1] > 1.0
        # a dense loop's run of stride-step intervals took two blocks of B or more before the escape's
        blocks = [len(S) // op.dim for _, _, n, S, *_ in run_rows(op, s.mu_schedule, cfg) if n == stride]
        assert len(blocks) == (not op.sparse)
        assert integrate(s, cfg, model=model).stats["jump_intervals"] >= 2 * max(blocks, default=0)
        if kbar == 3.0:
            assert t_esc == pytest.approx(26.753) and len(t) == 5369
        else:  # the escaping step is not the first of its chunk
            assert t_esc > 1.0 and round((t_esc - t[-1]) / cfg.dt) not in (1, stride)

    def test_entries_longer_than_a_block(self):
        # At stride 10 000 the first sample interval holds 4990 full pre-horizon steps before the guard
        # shrinks them, and the escape falls 4240 steps into a walked post-horizon interval of 10 000:
        # both are walked BLOCK_STEPS steps at a time, each block summed on from the last time of the one before
        s = scalar_scenario(T=10.0, duration=40.0)
        s.gain_spec = replace(s.gain_spec, Kbar=np.array([[3.0]]))
        s.mu_schedule = MuSchedule(T=10.0, a=0.1)
        cfg = replace(s.sim_config, dt=2e-3, stride=10_000)
        _, (t, Y, escaped, t_esc, diag), ref = drive_both(s, compile_model(s), cfg)
        assert escaped and ref[2]
        assert t_esc == ref[3] and diag == ref[4]
        assert np.array_equal(t, ref[0])
        assert (np.abs(Y - ref[1]) <= 1e-10 * np.abs(ref[1]).max(axis=0)).all()
        assert round((t_esc - t[-1]) / cfg.dt) > ptcor.sim.BLOCK_STEPS

    @pytest.mark.parametrize("mode", MODES)
    def test_step_landing_near_a_boundary_is_clipped(self, mode):
        # ten steps of 0.1 from 0 sum to 1 - 1.1e-16, near() the horizon at 1
        s = scalar_scenario(mode=mode, duration=2.0)
        cfg = replace(s.sim_config, dt=0.1, stride=1)
        _, (t, Y, *_), ref = drive_both(s, compile_model(s), cfg)
        assert np.array_equal(t, ref[0]) and 1.0 in t.tolist()
        assert np.abs(Y - ref[1]).max() <= 1e-12 * np.abs(ref[1]).max()

    def test_escape_before_the_horizon(self):
        s = scalar_scenario(K_gain=2.0, duration=1.5)
        _, (t, Y, escaped, t_esc, _), ref = drive_both(s, compile_model(s), s.sim_config)
        assert escaped and ref[2] and t_esc == ref[3]
        assert np.array_equal(t, ref[0])
        assert (np.abs(Y - ref[1]) <= 1e-11 * np.abs(ref[1]).max(axis=0)).all()


class TestDriveWithoutStepPolynomials(TestDriveMatchesOracle):
    """The same checks with DENSE_MAX_DIM = 0, so every loop is above the cap: its operator holds `M01`
    as CSR, every full pre-horizon step takes the four stages on it, every past-horizon step is y <- R y
    with a CSR `R`, and every fixed-time step takes the four stages on CSR `M01`, `W` and `G`."""

    @pytest.fixture(autouse=True)
    def no_step_polynomials(self, monkeypatch):
        monkeypatch.setattr(ptcor.sim, "DENSE_MAX_DIM", 0)


class TestSparseOperator:
    """Generated N = 48 under the local observer (dim 290) is above DENSE_MAX_DIM: its CSR operator
    against a dense copy of it, built with the cap raised."""

    def test_csr_products_match_a_dense_copy(self, monkeypatch):
        s = scenario_from_dict(yaml.safe_load(generate.scenario_yaml(48, seed=1)), name_fallback="n48")
        model, cfg = compile_model(s), replace(s.sim_config, mode="output_fb")
        op, stats = _Operator(model, cfg.mode, cfg.baseline), integrate(s, cfg, model=model).stats
        assert (stats["map_steps"], stats["stage_steps"]) == (1000, 1079)
        monkeypatch.setattr(ptcor.sim, "DENSE_MAX_DIM", op.dim)
        dense = _Operator(model, cfg.mode, cfg.baseline)
        assert op.dim == 290 > DENSE_MAX_DIM and isinstance(dense.M01, np.ndarray)
        # every array of the operator, the row maps too, is CSR above the cap
        arrays = [op.M01, op.M0, op.M1, op.step_map(cfg.dt), op.U0, op.U1, op.E0, op.E1, op.chi, op.track,
                  op.innov]
        assert all(type(M).__name__ == "csr_array" for M in arrays)

        def close(got, expected):
            return np.abs(got - expected).max() <= 1e-15 * np.abs(expected).max()
        y, horizon = np.random.default_rng(5).standard_normal(op.dim), s.mu_schedule.horizon
        assert all(close(op.stage(g, y), dense.stage(g, y)) for g in (0.0, 1.0, 1e6))
        assert all(close(op.rhs(t, y), dense.rhs(t, y)) for t in (0.0, 0.5 * horizon, horizon + 1.0))
        assert close(op.step_map(cfg.dt).toarray(), dense.step_map(cfg.dt))
        # the recorded columns, pre- and post-horizon, to 1e-13 of each column's scale
        t, Y = np.linspace(0.0, 2 * horizon, 9), np.random.default_rng(6).standard_normal((9, op.dim))
        got, want = op.signals(t, Y), dense.signals(t, Y)
        columns = [(got[k], want[k]) for k in want if k != "phi"]
        columns += [(got["phi"][k], want["phi"][k]) for k in (1, 3, 4)]  # phi2 is absent with the observer
        assert all((np.abs(g - w) <= 1e-13 * np.abs(w).max(axis=0)).all() for g, w in columns)

    def test_the_model_holds_only_its_inputs(self):
        # _Operator is the only assembly of the loop: the model keeps no array but the Laplacian block H
        s = scenario_from_dict(yaml.safe_load(generate.scenario_yaml(48, seed=1)), name_fallback="n48")
        model = compile_model(s)
        assert [k for k, v in vars(model).items() if isinstance(v, np.ndarray)] == ["H"]
        op = _Operator(model, "baseline_fixed_time", s.sim_config.baseline)
        assert all(type(M).__name__ == "csr_array" for M in (op.W, op.G, op.K, op.DK))


class TestDriveWithoutIntervalSeries(TestDriveMatchesOracle):
    """The same checks with the interval series never built: every sample interval of full
    pre-horizon steps is walked step by step."""

    @pytest.fixture(autouse=True)
    def no_interval_series(self, monkeypatch):
        monkeypatch.setattr(ptcor.sim, "SERIES_MIN_INTERVALS", math.inf)


BASIS_CASES = [(name, mode) for name in ("example1_rlc", "example2_ccvsi") for mode in PTCOR_MODES]


class TestStepBasis:
    """One full pre-horizon RK4 step as five matrix coefficients in u = mu(t) dt, against the four stages."""

    H = 2.0 ** -13  # a dyadic step: on a grid of H/1024 the stage times t + tau H are exact

    @pytest.fixture(scope="class")
    def polys(self, bundled_models):
        out = {}
        for name, mode in BASIS_CASES:
            scenario, model = bundled_models[name]
            op = _Operator(model, mode, BaselineConstants())
            out[name, mode] = op, scenario.sim_config.guard, op.step_poly(self.H)
        return out

    def test_dimensions_are_under_the_cap(self, polys):
        assert all(op.dim <= DENSE_MAX_DIM for op, *_ in polys.values())

    @settings(max_examples=100, deadline=None)
    @given(case=st.sampled_from(BASIS_CASES), frac=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_basis_step_is_the_four_stage_step(self, polys, case, frac, seed):
        # a full step has u = mu(t) h <= guard; the stages take the schedule's mu at t, t + h/2, t + h
        op, guard, Q = polys[case]
        s, h, grid = op.schedule, self.H, self.H / 1024
        left = h / (frac * guard) if frac * guard > h / s.T else s.T  # time left to the horizon, 1 / mu(t)
        t = s.horizon - grid * round(left / grid)
        a, b, c = (mu(s, t + tau * h) for tau in (0.0, 0.5, 1.0))
        y = np.random.default_rng(seed).standard_normal(op.dim)
        k1 = op.stage(a, y)
        k2 = op.stage(b, y + 0.5 * h * k1)
        k3 = op.stage(b, y + 0.5 * h * k2)
        k4 = op.stage(c, y + h * k3)
        expected = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        u = a * h
        w = u ** np.arange(5) / ((1.0 - 0.5 * u) ** 2 * (1.0 - u))
        assert np.abs(w @ (Q @ y).reshape(5, -1) - expected).max() <= 1e-13 * np.abs(expected).max()

    @pytest.mark.parametrize("case", BASIS_CASES)
    def test_equal_gains_give_the_step_map(self, polys, case):
        # at u = 0 every stage gain is 0 and d(0) = 1: Q_0 is the RK4 step map of M0 alone
        op, _, Q = polys[case]
        hA, term, expected = self.H * op.M0, np.eye(op.dim), np.eye(op.dim)
        for k in (1, 2, 3, 4):
            term = term @ hA / k
            expected = expected + term
        assert np.abs(Q[:op.dim] - expected).max() <= 1e-13 * np.abs(expected).max()


class TestRelayBasis:
    """One RK4 step of the fixed-time relay as linear algebra on y and its four stage relays,
    against the four stages of op.rhs."""

    @pytest.fixture(scope="class")
    def relays(self, bundled_models):
        out = {}
        for name, (scenario, model) in bundled_models.items():
            op = _Operator(model, "baseline_fixed_time", BaselineConstants())
            out.update({(name, h): (op, op.relay_step(h)) for h in (1e-4, 5e-4, 1e-3)})
        return out

    def test_dimensions_are_under_the_cap(self, relays):
        assert all(op.dim <= RELAY_STEP_MAX_DIM for op, _ in relays.values())

    @settings(max_examples=100, deadline=None)
    @given(case=st.sampled_from([(name, h) for name in ("example1_rlc", "example2_ccvsi")
                                 for h in (1e-4, 5e-4, 1e-3)]),
           scale=st.floats(-2.0, 2.0).map(lambda e: 10**e), seed=st.integers(0, 2**32 - 1))
    def test_relay_step_is_the_four_stage_step(self, relays, case, scale, seed):
        op, step = relays[case]
        h, t, y = case[1], op.schedule.horizon, scale * np.random.default_rng(seed).standard_normal(op.dim)
        k1 = op.rhs(t, y)
        k2 = op.rhs(t, y + 0.5 * h * k1)
        k3 = op.rhs(t, y + 0.5 * h * k2)
        k4 = op.rhs(t, y + h * k3)
        # away from the relay's switching surfaces, where rounding cannot flip a sign
        args = [y, y + 0.5 * h * k1, y + 0.5 * h * k2, y + h * k3]
        assume(min(np.abs(op.W @ x).min() for x in args) >= 1e-6)
        expected = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        assert np.abs(step(y) - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("cap", [RELAY_STEP_MAX_DIM, 0])
    def test_drive_takes_the_relay_step_under_the_cap(self, monkeypatch, cap):
        built, relay_step = [], _Operator.relay_step
        monkeypatch.setattr(ptcor.sim, "RELAY_STEP_MAX_DIM", cap)
        monkeypatch.setattr(_Operator, "relay_step", lambda op, h: built.append(h) or relay_step(op, h))
        s = scalar_scenario(mode="baseline_fixed_time")
        integrate(s, s.sim_config)
        assert built == ([s.sim_config.dt] if cap else [])


    def test_drive_takes_four_stages_above_the_break_even(self, monkeypatch):
        # every full step of a loop larger than RELAY_STEP_MAX_DIM takes the four stages
        s = scalar_scenario(mode="baseline_fixed_time")
        assert integrate(s).stats["map_steps"] > 0
        monkeypatch.setattr(ptcor.sim, "RELAY_STEP_MAX_DIM", 3)  # the scalar loop has 4 states
        monkeypatch.setattr(_Operator, "relay_step", lambda op, h: pytest.fail("relay step built"))
        stats = integrate(s).stats
        planned = sum(m for _, m, _, _ in _plan(s.mu_schedule, s.sim_config, False)[0])
        assert stats["map_steps"] == 0 and stats["stage_steps"] == planned


def rk4_steps(op, h, m, u, y):
    """m four-stage RK4 steps of h from a time with mu = u / h, at the stage gains mu / (1 - tau u)."""
    for i in range(m):
        ga, gb, gc = (u / h / (1.0 - tau * u) for tau in (i, i + 0.5, i + 1))
        k1 = op.stage(ga, y)
        k2 = op.stage(gb, y + 0.5 * h * k1)
        k3 = op.stage(gb, y + 0.5 * h * k2)
        k4 = op.stage(gc, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


class TestIntervalSeries:
    """The m RK4 steps of a sample interval as one power series in u = mu(t) dt, against m four-stage
    steps, and the sample intervals `_drive` takes as that product."""

    @pytest.fixture(scope="class")
    def series(self, bundled_models):
        out = {}
        for name, mode in BASIS_CASES:
            scenario, model = bundled_models[name]
            op, h = _Operator(model, mode, BaselineConstants()), scenario.sim_config.dt
            for m in (1, 3, 10):
                out[name, mode, m] = op, h, op.interval_series(h, m), op.series_reach(h, m)
        return out

    @settings(max_examples=100, deadline=None)
    @given(case=st.sampled_from(BASIS_CASES), m=st.sampled_from([1, 3, 10]), frac=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    def test_series_is_m_four_stage_steps(self, series, case, m, frac, seed):
        op, h, P, (u_d, bound) = series[(*case, m)]
        u = frac * u_d[-1]
        y = np.random.default_rng(seed).standard_normal(op.dim)
        expected = rk4_steps(op, h, m, u, y)
        d = int(np.searchsorted(u_d, u))  # the degree _drive cuts the series at
        for deg in (d, SERIES_DEGREE):
            got = (u ** np.arange(deg + 1)) @ (P[:(deg + 1) * op.dim] @ y).reshape(deg + 1, -1)
            assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()
        assert np.abs(expected).max() <= bound(u) * np.abs(y).max()

    def test_reach_grows_with_the_degree_and_shrinks_with_m(self, series):
        for name, mode in BASIS_CASES:
            reach = [series[name, mode, m][3][0] for m in (1, 3, 10)]
            assert all((np.diff(u_d) >= 0).all() and u_d[-1] * m < 1 for u_d, m in zip(reach, (1, 3, 10)))
            assert reach[0][-1] > reach[1][-1] > reach[2][-1] > 0

    @pytest.mark.parametrize("cap", [1.0, 1.0 + 1e-12, 10.0, 1e6])
    def test_capped_stage_gains_never_take_the_series(self, monkeypatch, cap):
        # with mu_cap T = 1 the clamp is at t0, so every step before the horizon has capped gains;
        # a series in u = mu dt with the uncapped 1/(T + t0 - t) would walk off the oracle
        monkeypatch.setattr(ptcor.sim, "SERIES_MIN_INTERVALS", 0)
        s = scalar_scenario(mode="output_fb", duration=2.0)
        s.mu_schedule = MuSchedule(T=1.0, mu_cap=cap)
        cfg = replace(s.sim_config, dt=0.0625 / 4, stride=4)
        _, (t, Y, *_), ref = drive_both(s, compile_model(s), cfg)
        assert np.array_equal(t, ref[0])
        assert (np.abs(Y - ref[1]) <= 1e-12 * np.abs(ref[1]).max(axis=0)).all()
        stats = integrate(s, cfg).stats
        assert (stats["series_intervals"] > 0) == (cap > 2.0)


def lti_intervals(op, schedule, cfg):
    """(lo, m) for each sample interval from sample lo that is m > 1 full LTI steps: the intervals of
    the runs that `_table` takes as products."""
    entries, samples = _plan(schedule, cfg, op.guarded)
    index, k = {t: i for i, (t, _) in enumerate(samples)}, [k for _, k in samples]
    return [(index[t], int(m)) for t, m, _, full in entries
            if full and m > 1 and (not op.guarded or t >= schedule.horizon) and t in index
            and k[index[t] + 1] - k[index[t]] == m]


def run_rows(op, schedule, cfg):
    """The rows `_table` offers for runs of LTI intervals when every product is taken whole."""
    entries, samples = _plan(schedule, cfg, op.guarded)
    ts, ks = (np.array(c) for c in zip(*samples))
    rows, taken, out = _table(op, schedule, cfg, entries, ks, ts), None, []
    while (row := rows.send(taken)) is not None:
        taken = row[-1] if row[0] in ("jump_intervals", "series_intervals") else None
        out += [row] if row[0] == "jump_intervals" else []
    return out


class TestLtiRuns:
    """A run of consecutive LTI sample intervals is one row: its block starts come from the chain
    y <- R^(Bn) y and the samples of its blocks from one product with [R^n; .. R^(Bn)]; against a walk of
    y <- R y step by step from each run's first sample."""

    @pytest.mark.parametrize("case", ["ex2_asymptotic", "ex2_state_fb", "short_run"])
    def test_runs_match_a_step_by_step_walk(self, bundled_models, case):
        if case == "short_run":  # 9 intervals before the horizon at T = 0.05, shorter than a block of the 590 after
            s = scalar_scenario(mode="baseline_asymptotic", T=0.05, duration=3.0)
            model, cfg = compile_model(s), s.sim_config
        else:  # 200 and 799 intervals at dt 5e-4; 3999 of 10 steps (and one of 4) past the horizon
            s, model = bundled_models["example2_ccvsi"]
            cfg = replace(s.sim_config, **({"mode": "baseline_asymptotic", "dt": 5e-4} if case == "ex2_asymptotic"
                                           else {"mode": "state_fb"}))
        op = _Operator(model, cfg.mode, cfg.baseline)
        y0 = op.initial_state(s.exo.v0_init, s.v_init, s.x_init, s.xhat_init)
        t, Y, escaped, _, _, stats = _drive(op, y0, s.mu_schedule, cfg)
        intervals = lti_intervals(op, s.mu_schedule, cfg)
        assert not escaped and len(intervals) == {"ex2_asymptotic": 1000, "ex2_state_fb": 4000}.get(case, 599)
        # every LTI interval is in a product, none is walked
        assert (stats["jump_intervals"], stats["jump_steps"]) == (len(intervals), sum(m for _, m in intervals))
        rows = run_rows(op, s.mu_schedule, cfg)
        if case == "short_run":
            assert min(c - len(S) // op.dim for *_, S, _, _, c in rows) < 0
        R, walked, last = op.step_map(cfg.dt), {}, None
        for lo, m in intervals:
            y = y if last == (lo - 1, m) else Y[lo]  # a run starts from its first sample
            for _ in range(m):
                y = R @ y
            walked[lo + 1], last = y, (lo, m)
        at = np.array(list(walked))
        scale = np.abs(Y[np.r_[at - 1, at]]).max(axis=0)  # each column's largest value in the runs
        assert (np.abs(Y[at] - np.array(list(walked.values()))) <= 1e-13 * scale).all()

    @pytest.mark.parametrize("kbar", [0.0, 3.0])
    def test_block_bound_covers_every_step(self, kbar):
        # past T = 1 the scalar loop decays (kbar 0) or grows (kbar 3): S stacks R^n .. R^(Bn), and the bound is
        # max(||R^(in)||, i < B) max(1, ||R||)^n, so that ||y|| bound bounds every step of a block from y
        s = scalar_scenario(duration=30.0)
        s.gain_spec = replace(s.gain_spec, Kbar=np.array([[kbar]]))
        s.mu_schedule = MuSchedule(T=1.0, a=0.1)
        op = _Operator(compile_model(s), "state_fb", s.sim_config.baseline)
        R, norm = op.step_map(s.sim_config.dt), lambda M: np.abs(M).sum(axis=1).max()
        rows = run_rows(op, s.mu_schedule, s.sim_config)
        assert max(len(S) // op.dim for *_, S, _, _, _ in rows) == 76  # sqrt of the 5799 intervals of 5 steps
        for _, _, n, S, _, bound, _ in rows:
            B, M, steps = len(S) // op.dim, np.eye(op.dim), []
            for _ in range(B * n):
                steps.append(M)
                M = R @ M
            powers = np.array(steps[::n][1:] + [M])  # R^n .. R^(Bn)
            assert (np.abs(S.reshape(B, op.dim, op.dim) - powers) <= 1e-13 * np.abs(powers).max()).all()
            assert bound == pytest.approx(max(map(norm, steps[::n])) * max(1.0, norm(R)) ** n, rel=1e-12)
            assert max(map(norm, steps + [M])) <= bound


class TestRunStats:
    """`Trajectory.stats`: what each phase of `_drive` did."""

    @pytest.mark.parametrize("name", ["example1_rlc", "example2_ccvsi"])
    @pytest.mark.parametrize("mode", PTCOR_MODES)
    def test_bundled_counts_add_up_and_repeat(self, bundled_models, name, mode):
        scenario, model = bundled_models[name]
        cfg = replace(scenario.sim_config, mode=mode)
        stats = integrate(scenario, cfg, model=model).stats
        planned = sum(m for _, m, _, _ in _plan(scenario.mu_schedule, cfg, True)[0])
        assert sum(stats[k] for k in ("series_steps", "jump_steps", "poly_steps", "map_steps",
                                      "stage_steps")) == planned
        assert integrate(scenario, cfg, model=model).stats == stats
        # ex1 covers 1976 of its 2005 pre-horizon intervals by the series, ex2 982 or 983 of 1005
        assert stats["series_intervals"] >= (1900 if name == "example1_rlc" else 950)
        assert stats["series_steps"] == 10 * stats["series_intervals"]

    @pytest.mark.parametrize("mode", PTCOR_MODES)
    def test_counts_add_up_on_an_escape(self, mode):
        s = scalar_scenario(K_gain=2.0, mode=mode, duration=1.5)
        traj = integrate(s)
        assert traj.finite_escape
        assert set(traj.stats) == {"series_intervals", "series_steps", "jump_intervals", "jump_steps",
                                   "poly_steps", "map_steps", "stage_steps"}
        # every step up to the end of the sample interval the escape was found in
        reach = next(k for tk, k in _plan(s.mu_schedule, s.sim_config, True)[1] if tk >= traj.escape_time)
        assert sum(v for k, v in traj.stats.items() if k.endswith("_steps")) == reach

    def test_plan_grows_with_the_samples_not_the_steps(self, bundled_models):
        # one entry per stretch of full steps between two samples, and one per clipped or guard-shrunk step
        scenario, model = bundled_models["example1_rlc"]
        cfg = replace(scenario.sim_config, mode="output_fb", dt=1e-5, stride=10_000)
        entries, samples = _plan(scenario.mu_schedule, cfg, True)
        stats = integrate(scenario, cfg, model=model).stats
        assert len(samples) == 54 and len(entries) < 200
        steps = sum(v for k, v in stats.items() if k.endswith("_steps"))
        assert sum(m for _, m, _, _ in entries) == steps == 500_035

    @pytest.mark.parametrize("mode", PTCOR_MODES)
    def test_only_clipped_and_shrunk_steps_take_four_stages(self, bundled_models, mode):
        # every full pre-horizon step of a loop under DENSE_MAX_DIM is a five-term step or in a product
        scenario, model = bundled_models["example1_rlc"]
        cfg = replace(scenario.sim_config, mode=mode, dt=1e-3)
        stats = integrate(scenario, cfg, model=model).stats
        assert stats["poly_steps"] > 0
        entries = _plan(scenario.mu_schedule, cfg, True)[0]
        assert stats["stage_steps"] == sum(m for _, m, _, full in entries if not full)

    def test_compare_run_stays_on_the_step_path(self, bundled_models):
        # ex2 at dt 5e-4 has about 180 intervals in reach of the series, fewer than repay its build
        scenario, model = bundled_models["example2_ccvsi"]
        cfg = replace(scenario.sim_config, mode="output_fb", dt=5e-4)
        assert integrate(scenario, cfg, model=model).stats["series_intervals"] == 0


class TestStateScale:
    """Every initial state times 2^k: the samples scale exactly and `stats` stay equal, so no escape bound
    and no path choice depends on the state's scale (up to 2^10 here; ESCAPE_NORM is absolute)."""

    @pytest.fixture(scope="class")
    def runs(self, bundled_models):
        out = {}
        for name, (scenario, model) in bundled_models.items():
            for mode in PTCOR_MODES:
                cfg = replace(scenario.sim_config, mode=mode, dt=1e-3)
                out[name, mode] = scenario, model, cfg, integrate(scenario, cfg, model=model)
        return out

    @pytest.mark.parametrize("k", [-60, -40, -1, 1, 10])
    def test_samples_scale_exactly(self, runs, k):
        scale = 2.0 ** k
        for scenario, model, cfg, traj in runs.values():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # example2's neutrally stable exosystem
                scaled = replace(scenario, exo=replace(scenario.exo, v0_init=scale * scenario.exo.v0_init),
                                 v_init=scale * scenario.v_init, x_init=[scale * x for x in scenario.x_init],
                                 xhat_init=[scale * x for x in scenario.xhat_init])
            got = integrate(scaled, cfg, model=model)
            assert np.array_equal(got.y, scale * traj.y)
            assert got.stats == traj.stats


class TestFollowerOrder:
    """The followers relabelled by a seeded permutation, with their agents, gains, initial states and graph:
    the permuted `e` columns and every norm stay within 1e-13 of their scale, and `stats` are equal, so no
    result depends on the order the followers are listed in."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("mode", PTCOR_MODES)
    @pytest.mark.parametrize("name", ["example1_rlc", "example2_ccvsi"])
    def test_relabelled_followers_give_the_same_run(self, bundled_models, name, mode, seed):
        scenario, model = bundled_models[name]
        cfg = replace(scenario.sim_config, mode=mode, dt=1e-3)
        p = np.random.default_rng(seed).permutation(scenario.network.n_followers)  # follower k is p[k]
        nodes, g = np.r_[0, p + 1], model.gains  # the leader stays node 0
        spec = GainSpec(psi=g.psi, **{f: [getattr(g, f)[i] for i in p] for f in ("Kbar", "Ktil", "K", "L", "Ltil")})
        relabelled = replace(scenario, network=Network(scenario.network.adjacency[np.ix_(nodes, nodes)]),
                             agents=[scenario.agents[i] for i in p], gain_spec=spec, v_init=scenario.v_init[p],
                             x_init=[scenario.x_init[i] for i in p], xhat_init=[scenario.xhat_init[i] for i in p])
        ref, got = integrate(scenario, cfg, model=model), integrate(relabelled, cfg)
        assert np.array_equal(got.t, ref.t) and got.stats == ref.stats and not got.finite_escape
        start = np.r_[0, np.cumsum(model.p_i)]
        cols = np.concatenate([np.arange(start[i], start[i + 1]) for i in p])
        pairs = [(got.e, ref.e[:, cols]), (got.e_norm, ref.e_norm), (got.v_tilde_norm, ref.v_tilde_norm),
                 (got.x_bar_norm, ref.x_bar_norm), (got.x_tilde_norm, ref.x_tilde_norm),
                 (got.u_tilde_norm, ref.u_tilde_norm)] + [(got.phi[k], ref.phi[k]) for k in ref.phi]
        for a, b in pairs:
            assert (a is None) == (b is None)
            if b is not None:
                assert (np.abs(a - b) <= 1e-13 * np.abs(b).max(axis=0)).all()


class TestPlanProperty:
    """Random step grids on the scalar loop: the plan alone fixes the sample times, and
    walking it matches the all-scalar reference loop."""

    @settings(max_examples=50, deadline=None)
    @given(mode=st.sampled_from(MODES), T=st.floats(0.25, 2.0),
           t0=st.sampled_from([0.0, 0.5, 3.1, 100.0]),
           # mu_cap * T: on 1 (clamp at t0), a hair above it, or 10^0 to 10^8
           cap=st.one_of(st.sampled_from([1.0, 1.0 + 1e-12, 1.0 + 1e-6]),
                         st.floats(0.0, 8.0).map(lambda e: 10**e)),
           dt=st.floats(5e-3, 0.1), guard=st.floats(0.05, 1.5), stride=st.integers(1, 10),
           span=st.floats(0.3, 2.5), K=st.sampled_from([-2.0, 2.0]), kbar=st.sampled_from([0.0, 10.0]))
    def test_plan_and_walk_match_the_oracle(self, mode, T, t0, cap, dt, guard, stride, span, K, kbar):
        s = scalar_scenario(K_gain=K, T=T, mode=mode)
        s.gain_spec = replace(s.gain_spec, Kbar=np.array([[kbar]]))  # kbar = 10: unstable past T
        s.mu_schedule = MuSchedule(T=T, t0=t0, mu_cap=cap / T)
        cfg = SimConfig(mode=mode, dt=dt, guard=guard, stride=stride, duration=t0 + span * T)
        model = compile_model(s)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # duration before the horizon
            traj = integrate(s, cfg, model=model)
        op = _Operator(model, mode, cfg.baseline)
        y0 = op.initial_state(s.exo.v0_init, s.v_init, s.x_init, s.xhat_init)
        t_ref, Y_ref, escaped, t_esc, _ = drive(op, y0, s.mu_schedule, cfg)
        assert np.array_equal(traj.t, t_ref)
        assert traj.finite_escape == escaped and traj.escape_time == t_esc
        assert (np.abs(traj.y - Y_ref) <= 1e-10 * np.abs(Y_ref).max(axis=0)).all()
        planned = np.array([t for t, _ in _plan(s.mu_schedule, cfg, mode in PTCOR_MODES)[1]])
        # an escape cuts the planned samples short
        assert np.array_equal(planned if not escaped else planned[:len(traj.t)], traj.t)
