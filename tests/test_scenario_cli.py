import copy
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import ptcor.cli
import ptcor.scenario
from perfbench import generate
from ptcor.cli import main
from ptcor.scenario import (
    BUNDLED,
    ScenarioError,
    load_scenario,
    resolve_path,
    scenario_from_dict,
    scenario_to_dict,
    write_scenario,
)
from ptcor.sim import MuSchedule, SimConfig, compile_model


@pytest.fixture()
def example1_doc():
    with resolve_path("example1_rlc").open() as fh:
        return yaml.safe_load(fh)


class TestLoadScenario:
    def test_bundled_example1(self):
        s = load_scenario("example1_rlc")
        assert s.name == "example1_rlc"
        assert s.network.n_followers == 6
        assert all(a.n == 2 and a.q == 2 for a in s.agents)
        assert s.gain_spec.psi == 8.0
        assert s.mu_schedule.T == 2.0
        assert s.sim_config.duration == 5.0
        assert np.allclose(s.x_init[0], [2.0, 2.0])
        assert np.allclose(s.x_init[5], [-6.0, 4.0])
        assert np.allclose(s.v_init, 0.0)
        assert np.allclose(s.exo.v0_init, [1.0, 1.0])

    def test_bundled_example2(self):
        with pytest.warns(UserWarning, match="neutrally stable"):
            s = load_scenario("example2_ccvsi")
        assert s.network.n_followers == 6
        b1 = 0.1 / 0.00135
        assert s.agents[0].A[0, 0] == pytest.approx(-b1, rel=1e-12)
        assert s.agents[0].B[0, 0] == pytest.approx(1.0 / 0.00135, rel=1e-12)
        assert s.mu_schedule.T == 1.0
        assert s.gain_spec.psi == 4.0
        assert s.exo.q == 4
        assert np.allclose(s.x_init, 3.0)

    def test_unknown_scenario(self):
        with pytest.raises(FileNotFoundError):
            load_scenario("does_not_exist")

    def test_legacy_min_dt_key_is_ignored(self, example1_doc):
        example1_doc["sim"]["min_dt"] = 1e-12
        assert scenario_from_dict(example1_doc).sim_config.dt == 1e-4

    def test_wrong_shape_names_field(self, example1_doc):
        example1_doc["agents"][0]["B"] = {"shape": [2, 3], "data": [1, 2, 3, 4, 5, 6]}
        with pytest.raises(ScenarioError, match=r"agents\[0\]"):
            scenario_from_dict(example1_doc)

    def test_shape_data_mismatch(self, example1_doc):
        example1_doc["agents"][0]["A"] = {"shape": [2, 2], "data": [1, 2, 3]}
        with pytest.raises(ScenarioError, match=r"agents\[0\]\.A"):
            scenario_from_dict(example1_doc)

    def test_non_numeric_data_rejected(self, example1_doc):
        example1_doc["agents"][0]["A"]["data"] = ["x", 1, 2, 3]
        with pytest.raises(ScenarioError, match=r"agents\[0\]\.A\.data"):
            scenario_from_dict(example1_doc)

    def test_non_finite_rejected(self, example1_doc):
        example1_doc["exosystem"]["S0"]["data"][0] = float("nan")
        with pytest.raises(ScenarioError, match=r"exosystem\.S0"):
            scenario_from_dict(example1_doc)

    def test_missing_section(self, example1_doc):
        del example1_doc["mu"]
        with pytest.raises(ScenarioError, match="mu"):
            scenario_from_dict(example1_doc)

    def test_initial_condition_count(self, example1_doc):
        example1_doc["initial"]["x"] = [[1.0, 1.0]]
        with pytest.raises(ScenarioError, match=r"initial\.x"):
            scenario_from_dict(example1_doc)

    def test_omitted_run_fields_take_the_dataclass_defaults(self, example1_doc):
        example1_doc["mu"] = {"T": 2}
        del example1_doc["sim"]
        s = scenario_from_dict(example1_doc)
        assert s.mu_schedule == MuSchedule(T=2.0) and type(s.mu_schedule.T) is float
        assert s.sim_config == SimConfig()

    def test_integral_floats_load_as_integers(self, example1_doc):
        example1_doc["sim"]["stride"], example1_doc["agents"][0]["copies"] = 10.0, 6.0
        s = scenario_from_dict(example1_doc)
        assert s.sim_config.stride == 10 and type(s.sim_config.stride) is int and len(s.agents) == 6

    def test_errors_are_collected(self, example1_doc):
        example1_doc["agents"][0]["A"] = {"shape": [2, 2], "data": [1, 2, 3]}
        del example1_doc["mu"]
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(example1_doc)
        assert len(err.value.issues) >= 2


class TestRoundTrip:
    def test_write_then_load_is_identical(self, tmp_path):
        s = load_scenario("example1_rlc")
        path = tmp_path / "echo.yaml"
        write_scenario(s, path)
        s2 = load_scenario(path)
        assert scenario_to_dict(s) == scenario_to_dict(s2)

    def test_round_trip_example2(self, tmp_path):
        with pytest.warns(UserWarning):
            s = load_scenario("example2_ccvsi")
        path = tmp_path / "echo.yaml"
        write_scenario(s, path)
        with pytest.warns(UserWarning):
            s2 = load_scenario(path)
        assert scenario_to_dict(s) == scenario_to_dict(s2)

    def test_dict_round_trip_preserves_gain_spec(self):
        s = load_scenario("example1_rlc")
        doc = scenario_to_dict(s)
        s2 = scenario_from_dict(doc)
        assert scenario_to_dict(s) == scenario_to_dict(s2)


class TestCli:
    def test_check_example1(self, capsys):
        rc = main(["check", "example1_rlc"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "leader-rooted spanning tree" in out
        assert "[pass]" in out
        # the bundled gains violate the observer-rate margin: warning shown
        assert "cascade: vartheta_i >= theta_i + 3/2" in out
        assert "FAIL" in out

    def test_check_example2_assumptions_pass(self, capsys):
        with pytest.warns(UserWarning, match="neutrally stable"):
            rc = main(["check", "example2_ccvsi"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "[FAIL]" not in out.split("gain conditions")[0]
        # the chosen observer rate satisfies the cascade gap exactly
        assert "cascade: vartheta_i >= theta_i + 3/2" in out

    def test_simulate_writes_csv(self, tmp_path, capsys):
        rc = main(["simulate", "example1_rlc", "--mode", "output_fb",
                   "--dt", "1e-3", "--out", str(tmp_path)])
        assert rc == 0
        csv = tmp_path / "example1_rlc_output_fb_trajectory.csv"
        assert csv.exists()
        header = csv.read_text().splitlines()[0]
        assert header.startswith("t, mu, ||e||")

    def test_certify_exit_code_tracks_settledness(self, tmp_path):
        rc = main(["certify", "example1_rlc", "--dt", "1e-3", "--out", str(tmp_path)])
        assert rc == 0
        report = (tmp_path / "example1_rlc_output_fb_report.txt").read_text()
        assert "settled: True" in report
        # an impossible tolerance cannot settle
        rc = main(["certify", "example1_rlc", "--dt", "1e-3", "--out", str(tmp_path),
                   "--tol-abs", "1e-30", "--tol-rel", "0"])
        assert rc == 3

    def test_synth_writes_explicit_gains(self, tmp_path, capsys):
        rc = main(["synth", "example1_rlc", "--out", str(tmp_path)])
        assert rc == 0
        echoed = tmp_path / "example1_rlc_synth.yaml"
        assert echoed.exists()
        s = load_scenario(echoed)
        assert s.gain_spec.K is not None
        assert np.allclose(np.asarray(s.gain_spec.K[0]), [[-9.0, -3.0], [-3.0, 3.0]])
        assert np.allclose(np.asarray(s.gain_spec.Ltil[0]),
                           [[-4.0, 4.0], [-4.0, -4.0 / 3.0]])

    def test_compare_writes_table(self, tmp_path, capsys):
        rc = main(["compare", "example1_rlc", "--dt", "2e-3",
                   "--baselines", "asymptotic", "--out", str(tmp_path)])
        assert rc == 0
        table = (tmp_path / "example1_rlc_comparison.csv").read_text().splitlines()
        assert table[0].startswith("controller")
        assert len(table) == 3  # header + ptcor + asymptotic

    def test_compare_ranks_an_escaped_run_last(self, example1_doc, tmp_path, capsys):
        # with c4 = -1 the fixed-time relay |z|^-1 escapes on the first step, long before the horizon
        example1_doc["sim"]["baseline_constants"] = {"c4": -1}
        path = tmp_path / "escaping.yaml"
        path.write_text(yaml.safe_dump(example1_doc), encoding="utf-8")
        rc = main(["compare", str(path), "--dt", "1e-3", "--baselines", "fixed_time,asymptotic",
                   "--out", str(tmp_path)])
        assert rc == 0
        table = (tmp_path / "example1_rlc_comparison.csv").read_text().splitlines()
        assert [row.split(", ")[0] for row in table[1:]] == ["ptcor_output_fb", "asymptotic", "fixed_time"]
        assert table[-1] == "fixed_time, escaped at t = 0.001"
        out, err = capsys.readouterr()
        assert "fixed_time: escaped at t = 0.001" in out and err == ""  # no numpy warning from the relay's 0^-1

    def test_schema_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("name: broken\n")
        rc = main(["check", str(bad)])
        assert rc == 2
        assert "schema:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--dt", "-1"), ("--dt", "0"),
                                             ("--T", "-1"), ("--mu-cap", "0.01"),
                                             ("--tol-abs", "-1"), ("--tol-rel", "-1"),
                                             ("--tol-abs", "nan"), ("--tol-rel", "inf"),
                                             ("--dt", "inf"), ("--dt", "nan"), ("--T", "nan"),
                                             ("--T", "inf"), ("--mu-cap", "nan"),
                                             ("--mu-cap", "inf"),
                                             # 5e12 and 5e17 steps: over MAX_STEPS
                                             ("--dt", "1e-12"), ("--dt", "1e-17")])
    def test_bad_override_is_schema_error(self, tmp_path, capsys, flag, value):
        rc = main(["certify", "example1_rlc", flag, value, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("schema:") and f"{flag} {value}" in err
        assert not list(tmp_path.glob("*.csv"))  # rejected before integrating

    @pytest.mark.parametrize("keys, value, field", [
        (("gains", "psi"), "abc", "gains.psi"),
        (("gains", "mbar_K"), "x", "gains.mbar_K"),
        (("agents", 0, "copies"), "x", "agents[0].copies"),
        (("agents", 0, "copies"), 0, "agents[0].copies"),
        (("agents", 0, "A", "shape"), ["a", 2], "agents[0].A.shape"),
        (("sim", "guard"), float("nan"), "sim"),
        (("sim", "duration"), float("inf"), "sim"),
        (("mu", "t0"), float("nan"), "mu"),
        # a misspelt key would otherwise leave its field at the default
        (("sim", "dtt"), 1e-3, "sim.dtt"),
        (("gains", "mbar_k"), 9.0, "gains.mbar_k"),
        (("agents", 0, "Bm"), 1.0, "agents[0].Bm"),
        (("agents", 0, "A", "rows"), 2, "agents[0].A.rows"),
        (("initial", "x0"), 0.0, "initial.x0"),
        (("extra",), 1, "extra"),
        (("initial",), [1, 2], "initial"),
        (("sim", "baseline_constants"), [1, 2], "sim.baseline_constants"),
        # the step budget: too many steps of dt, too many guard-shrunk steps
        (("sim", "dt"), 1e-12, "sim.dt"),
        (("sim", "guard"), 1e-9, "sim.guard"),
        (("mu", "t0"), 6.0, "sim.duration"),  # the run would end (at 5) before it starts
        (("agents", 0, "A", "shape"), [2, float("inf")], "agents[0].A.shape"),  # int(inf) overflows
        (("sim", "stride"), 10**30, "sim"),  # more than MAX_STEPS, and past an int64
        (("gains", "Kbar"), [], "gains.Kbar"),  # a per-agent list needs one matrix per follower
        (("gains", "psi"), float("nan"), "gains"),
        (("gains", "psi"), 0.0, "gains"),
        (("gains", "mbar_K"), float("inf"), "gains"),
        (("gains", "mbar_L"), float("nan"), "gains"),
        (("sim", "baseline_constants"), {"c4": float("nan")}, "sim.baseline_constants"),
        # an integer field would truncate a fraction: 6 copies, a stride of 10
        (("agents", 0, "copies"), 6.5, "agents[0].copies"),
        (("sim", "stride"), 10.9, "sim.stride"),
        # a 2x2 matrix, 6 followers, and the edge 1 -> 2 would load as the same numbers truncated
        (("agents", 0, "A", "shape"), [2.5, 2.9], "agents[0].A.shape"),
        (("graph", "followers"), 6.7, "graph.followers"),
        (("graph", "edges", 1, 0), 1.5, "graph.edges: edges[1]"),
        (("graph", "edges", 1, 1), 2.9, "graph.edges: edges[1]"),
    ])
    def test_bad_value_is_schema_error(self, example1_doc, tmp_path, capsys, keys, value, field):
        node = example1_doc
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(example1_doc), encoding="utf-8")
        rc = main(["check", str(path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("schema:") and f"{field}:" in err

    @pytest.mark.parametrize("flag, value", [("--dt", "0.001"), ("--T", "3")])
    def test_override_of_a_run_that_ends_before_it_starts(self, monkeypatch, tmp_path, capsys, flag, value):
        # a scenario built in code bypasses the check at load; the override path repeats it
        scenario = load_scenario("example1_rlc")
        scenario.mu_schedule = replace(scenario.mu_schedule, t0=6.0)  # duration 5
        monkeypatch.setattr(ptcor.cli, "load_scenario", lambda name: scenario)
        rc = main(["certify", "example1_rlc", flag, value, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("schema:") and f"{flag} {value}: duration: 5 ends at or before t0 = 6" in err
        assert not list(tmp_path.glob("*.csv"))

    def test_large_t0_step_that_cannot_advance_is_schema_error(self, example1_doc, tmp_path, capsys):
        # 5e4 steps of 1e-4 would all round away at t = 1e13, where floats are 2e-3 apart
        example1_doc["mu"]["t0"] = 1e13
        example1_doc["sim"]["duration"] = 1e13 + 5.0
        path = tmp_path / "late.yaml"
        path.write_text(yaml.safe_dump(example1_doc), encoding="utf-8")
        rc = main(["certify", str(path), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("schema:") and "sim.dt: 0.0001 is below half the float spacing" in err
        assert not list(tmp_path.glob("*.csv"))

    def test_dt_under_a_million_float_spacings_is_schema_error(self, example1_doc, tmp_path, capsys):
        # floats are 1.9e-6 apart at t = 1e10: a step of 1e-6 advances t, but by 1.9e-6
        example1_doc["mu"]["t0"] = 1e10
        example1_doc["sim"].update(duration=1e10 + 0.01, dt=1e-6)
        path = tmp_path / "late.yaml"
        path.write_text(yaml.safe_dump(example1_doc), encoding="utf-8")
        rc = main(["certify", str(path), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("schema:") and "sim.dt: 1e-06 is under 1e+06 float spacings" in err
        assert not list(tmp_path.glob("*.csv"))

    def test_inconsistent_feedforward(self, tmp_path, capsys):
        scenario = load_scenario("example1_rlc")
        gains = compile_model(scenario).gains
        scenario.gain_spec = replace(scenario.gain_spec, Ktil=[k + 0.01 for k in gains.Ktil])
        path = tmp_path / "bad_ktil.yaml"
        write_scenario(scenario, path)
        # check only reports the violated condition ...
        rc = main(["check", str(path)])
        captured = capsys.readouterr()
        assert rc == 4
        assert "feedforward: Ktil = U - Kbar*X" in captured.out
        assert "synthesis:" not in captured.err
        # ... while integrating the loop is refused
        rc = main(["certify", str(path), "--dt", "1e-3", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 4
        assert err.startswith("synthesis:") and "Ktil" in err

    def test_closed_form_gain_that_overflows_is_synthesis_error(self, example1_doc, tmp_path, capsys):
        example1_doc["gains"]["mbar_K"] = 1e308  # finite, but 1e308 B^{-1} is not
        path = tmp_path / "huge_mbar.yaml"
        path.write_text(yaml.safe_dump(example1_doc), encoding="utf-8")
        rc = main(["check", str(path)])
        err = capsys.readouterr().err
        assert rc == 4
        assert err.startswith("synthesis:") and "mbar_K" in err

    def test_unknown_baseline_rejected(self, tmp_path, capsys):
        rc = main(["compare", "example1_rlc", "--baselines", "nope", "--out", str(tmp_path)])
        assert rc == 2


def key_paths(node, path=()):
    """Every key path into a loaded YAML document: the keys of its mappings and the positions in its lists."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from key_paths(child, path + (key,))


EXAMPLE1 = yaml.safe_load(resolve_path("example1_rlc").read_text(encoding="utf-8"))
ODD_VALUES = [float("inf"), float("-inf"), float("nan"), -0.0, 1e308, 1e-300, 10**30, -1, 0, True, "", "x",
              [], [1, 2], {}, None]
DELETE = object()


class TestCliMutations:
    """One field of example1_rlc replaced by an odd value, or deleted: `check` and `certify` end in an
    exit code, never in a traceback."""

    @pytest.mark.filterwarnings("ignore")  # odd inputs warn (an unstable exosystem, overflow in a gain)
    @settings(max_examples=25, deadline=None)
    @given(path=st.sampled_from(list(key_paths(EXAMPLE1))), value=st.sampled_from(ODD_VALUES + [DELETE]))
    def test_one_odd_field_ends_in_an_exit_code(self, path, value):
        doc = copy.deepcopy(EXAMPLE1)
        node = doc
        for key in path[:-1]:
            node = node[key]
        if value is DELETE:
            del node[path[-1]]
        else:
            node[path[-1]] = value
        with tempfile.TemporaryDirectory() as out:
            scenario = Path(out) / "mutated.yaml"
            scenario.write_text(yaml.safe_dump(doc), encoding="utf-8")
            assert main(["check", str(scenario)]) in (0, 2, 3, 4)
            assert main(["certify", str(scenario), "--dt", "1e-3", "--out", out]) in (0, 2, 3, 4)


LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if hasattr(yaml, "CSafeLoader") else [])


class TestYamlLoaders:
    """libyaml's CSafeLoader, where PyYAML has it, and the pure-Python SafeLoader read one document."""

    @pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML is built without libyaml")
    @pytest.mark.parametrize("source", list(BUNDLED) + [8, 24, 48])
    def test_loaders_read_equal_dicts(self, source):
        text = (resolve_path(source).read_text(encoding="utf-8") if isinstance(source, str)
                else generate.scenario_yaml(source, seed=1))
        doc = yaml.load(text, Loader=yaml.CSafeLoader)
        assert doc == yaml.load(text, Loader=yaml.SafeLoader)
        assert isinstance(doc["sim"]["dt"], float)

    @pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
    def test_scenario_loads_with_either_loader(self, monkeypatch, loader):
        monkeypatch.setattr(ptcor.scenario, "YAML_LOADER", loader)
        with resolve_path("example1_rlc").open(encoding="utf-8") as fh:
            expected = scenario_from_dict(yaml.safe_load(fh), name_fallback="example1_rlc")
        assert scenario_to_dict(load_scenario("example1_rlc")) == scenario_to_dict(expected)

    @pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
    def test_malformed_yaml_is_schema_error(self, monkeypatch, tmp_path, capsys, loader):
        monkeypatch.setattr(ptcor.scenario, "YAML_LOADER", loader)
        path = tmp_path / "broken.yaml"
        path.write_text("graph: [1, 2\n", encoding="utf-8")
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("schema:") and "broken.yaml: not valid YAML" in err
        with pytest.raises(ScenarioError, match="not valid YAML"):
            load_scenario(path)
