"""Command-line surface: check, synth, simulate, certify, compare.

Exit codes: 0 success (and, for `certify`, settled); 2 scenario/schema or
usage problems; 3 certification not settled; 4 synthesis or simulation
failure, or an output file that cannot be written after the run.  Error
messages carry a category prefix (schema:, synthesis:, simulation:,
analysis:, output:).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .analysis import CertifyTolerances, EnvelopeParams, certify, compare_runs
from .graph import has_leader_spanning_tree, observer_rate, partition_laplacian
from .plant import RegulatorError, check_full_rank_io, check_regulation_rank
from .scenario import Scenario, ScenarioError, load_scenario, write_scenario
from .sim import MODES, PTCOR_MODES, check_step_budget, compile_model, integrate
from .synthesis import GainSpec, SynthesisError, verify_gains

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_NOT_SETTLED = 3
EXIT_NUMERIC = 4


def _apply_overrides(scenario: Scenario, args) -> Scenario:
    T, mu_cap, dt = (getattr(args, name, None) for name in ("T", "mu_cap", "dt"))
    flags = " ".join(f"{flag} {value:g}" for flag, value in
                     (("--T", T), ("--mu-cap", mu_cap), ("--dt", dt)) if value is not None)
    sched, cfg = scenario.mu_schedule, scenario.sim_config
    try:
        # a new horizon resets a, for MuSchedule to set it for that horizon
        sched = replace(sched, **({} if T is None else {"T": T, "a": None}),
                        **({} if mu_cap is None else {"mu_cap": mu_cap}))
        changes = {k: v for k, v in (("mode", getattr(args, "mode", None)), ("dt", dt)) if v is not None}
        cfg = replace(cfg, **changes)
        if flags:
            check_step_budget(sched, cfg)
    except ValueError as exc:
        raise ScenarioError([f"{flags}: {exc}"]) from exc
    scenario.mu_schedule, scenario.sim_config = sched, cfg
    return scenario


def _load(args) -> Scenario:
    scenario = load_scenario(args.scenario)
    return _apply_overrides(scenario, args)


def _tols(args) -> CertifyTolerances:
    kw = {name: getattr(args, name) for name in ("tol_abs", "tol_rel")
          if getattr(args, name, None) is not None}
    try:
        return CertifyTolerances(**kw)
    except ValueError as exc:
        flags = " ".join(f"--{name.replace('_', '-')} {value:g}" for name, value in kw.items())
        raise ScenarioError([f"{flags}: {exc}"]) from exc


class OutputError(Exception):
    """An output file that could not be written once the command had run: `output:` and exit 4."""


def _write(path: Path, content) -> None:
    """Write `content`, text or a function of the path that writes it, to path.  An OSError here is the
    run's output failing, not a bad path given: those fail in `_load` and `_out_dir`, before any run."""
    try:
        path.write_text(content, encoding="utf-8") if isinstance(content, str) else content(path)
    except OSError as exc:
        raise OutputError(f"{path}: {exc.strerror or exc}") from exc


def _out_dir(args) -> Path:
    out = Path(getattr(args, "out", ".") or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _assumption_lines(scenario: Scenario):
    lines = []
    ok_all = True
    tree = has_leader_spanning_tree(scenario.network)
    lines.append(("leader-rooted spanning tree", tree))
    ok_all &= tree
    for i, agent in enumerate(scenario.agents, start=1):
        rk = check_regulation_rank(agent, scenario.exo)
        detail = ", ".join(f"rank@{c:.3g}={r}/{rk.required}" for c, r in rk.checks)
        lines.append((f"agent {i}: regulation rank ({detail})", bool(rk)))
        ok_all &= bool(rk)
        io = check_full_rank_io(agent)
        lines.append((f"agent {i}: rank(B) = rank(Cm) = n", io))
        ok_all &= io
    return lines, ok_all


def cmd_check(args) -> int:
    scenario = _load(args)
    lines, ok_all = _assumption_lines(scenario)
    print(f"scenario: {scenario.name}")
    print("structural assumptions:")
    for text, ok in lines:
        print(f"  [{'pass' if ok else 'FAIL'}] {text}")
    if not ok_all:
        print("check: structural assumptions failed", file=sys.stderr)
        return EXIT_NUMERIC
    model = compile_model(scenario)
    parts = partition_laplacian(scenario.network)
    rates = observer_rate(parts)
    mode = scenario.sim_config.mode
    if mode not in PTCOR_MODES:
        mode = "output_fb" if model.gains.Ltil is not None else "state_fb"
    report = verify_gains(mode, model.gains, rates, scenario.agents, model.regs)
    print(f"gain conditions ({mode}, rho_H = {rates.rho_H:.6g}):")
    print(report.to_text())
    if report.has_errors():
        print("check: gain-consistency errors present", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_synth(args) -> int:
    scenario = _load(args)
    out = _out_dir(args)
    model = compile_model(scenario)
    g = model.gains
    for i in range(model.N):
        theta = "n/a" if g.theta[i] is None else f"{g.theta[i]:.6g}"
        line = f"agent {i + 1}: theta = {theta}"
        if g.Ltil is not None:
            var = "n/a" if g.vartheta[i] is None else f"{g.vartheta[i]:.6g}"
            line += f", vartheta = {var}"
        print(line)
    scenario.gain_spec = GainSpec(
        psi=g.psi, Kbar=list(g.Kbar), Ktil=list(g.Ktil), K=list(g.K),
        L=None if g.L is None else list(g.L),
        Ltil=None if g.Ltil is None else list(g.Ltil),
    )
    path = out / f"{scenario.name}_synth.yaml"
    _write(path, lambda p: write_scenario(scenario, p))
    print(f"wrote {path}")
    return EXIT_OK


def _run_and_write(scenario: Scenario, out: Path, model=None):
    traj = integrate(scenario, model=model)
    csv_path = out / f"{scenario.name}_{scenario.sim_config.mode}_trajectory.csv"
    _write(csv_path, traj.to_csv)
    return traj, csv_path


def cmd_simulate(args) -> int:
    scenario = _load(args)
    traj, csv_path = _run_and_write(scenario, _out_dir(args))
    print(f"wrote {csv_path} ({len(traj.t)} samples)")
    if traj.finite_escape:
        print(f"simulation: {traj.diagnostic}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_certify(args) -> int:
    scenario = _load(args)
    tols = _tols(args)
    out = _out_dir(args)
    model = compile_model(scenario)
    traj, csv_path = _run_and_write(scenario, out, model)
    rates = observer_rate(partition_laplacian(scenario.network))
    theta = model.gains.theta_min()
    envelope = EnvelopeParams.from_rates(rates, model.gains.psi, scenario.exo.S0, theta=theta)
    report = certify(traj, scenario.mu_schedule, tols, envelope)
    mode = scenario.sim_config.mode
    rpt_path = out / f"{scenario.name}_{mode}_report.txt"
    _write(rpt_path, report.to_text() + "\n")
    if mode in PTCOR_MODES:
        conditions = verify_gains(mode, model.gains, rates, scenario.agents, model.regs)
        cond_path = out / f"{scenario.name}_{mode}_conditions.txt"
        _write(cond_path, conditions.to_text() + "\n")
        print(f"wrote {cond_path}")
    print(f"wrote {csv_path}")
    print(f"wrote {rpt_path}")
    print(report.to_text())
    return EXIT_OK if report.settled else EXIT_NOT_SETTLED


def cmd_compare(args) -> int:
    scenario = _load(args)
    baselines = [b.strip() for b in (args.baselines or "").split(",") if b.strip()]
    for b in baselines:
        if b not in ("asymptotic", "fixed_time"):
            print(f"schema: unknown baseline {b!r} (use asymptotic, fixed_time)", file=sys.stderr)
            return EXIT_SCHEMA
    mode = scenario.sim_config.mode
    if mode not in PTCOR_MODES:
        mode = "output_fb"
    out = _out_dir(args)
    model = compile_model(scenario)
    runs, labels = [], []
    traj = integrate(scenario, replace(scenario.sim_config, mode=mode), model=model)
    runs.append(traj)
    labels.append(f"ptcor_{mode}")
    for b in baselines:
        cfg = replace(scenario.sim_config, mode=f"baseline_{b}")
        runs.append(integrate(scenario, cfg, model=model))
        labels.append(b)
    at = scenario.mu_schedule.horizon
    table = compare_runs(runs, at=at, labels=labels)
    escapes = {label: run.escape_time for label, run in zip(labels, runs)}

    def text(label, value, fmt, name=""):  # an infinite ||e(at)|| is a run that escaped before `at`
        return f"escaped at t = {escapes[label]:{fmt}}" if math.isinf(value) else f"{name}{value:{fmt}}"
    path = out / f"{scenario.name}_comparison.csv"
    _write(path, "".join([f"controller, ||e|| at t={at:.15g}\n"] +
                         [f"{label}, {text(label, value, '.15g')}\n" for label, value in table]))
    print(f"wrote {path}")
    for label, value in table:
        print(f"  {label:>16}: {text(label, value, '.6g', f'||e({at:g})|| = ')}")
    for run, label in zip(runs, labels):
        _write(out / f"{scenario.name}_{label}_trajectory.csv", run.to_csv)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptcor",
        description="Prescribed-time cooperative output regulation toolbox",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_mode=True):
        p.add_argument("scenario", help="scenario file path or bundled name "
                                        "(example1_rlc, example2_ccvsi)")
        if with_mode:
            p.add_argument("--mode", choices=MODES)
        p.add_argument("--T", type=float, help="override the prescribed horizon")
        p.add_argument("--mu-cap", dest="mu_cap", type=float, help="override the gain cap")
        p.add_argument("--dt", type=float, help="override the base step size")
        p.add_argument("--out", default=".", help="output directory")

    p_check = sub.add_parser("check", help="structural assumptions and gain conditions")
    common(p_check)
    p_check.set_defaults(func=cmd_check)

    p_synth = sub.add_parser("synth", help="fill gains from directives and echo the scenario")
    common(p_synth)
    p_synth.set_defaults(func=cmd_synth)

    p_sim = sub.add_parser("simulate", help="integrate the closed loop and write the trajectory CSV")
    common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_cert = sub.add_parser("certify", help="simulate, then certify prescribed-time convergence")
    common(p_cert)
    p_cert.add_argument("--tol-abs", dest="tol_abs", type=float)
    p_cert.add_argument("--tol-rel", dest="tol_rel", type=float)
    p_cert.set_defaults(func=cmd_certify)

    p_cmp = sub.add_parser("compare", help="run the prescribed-time loop against baselines")
    common(p_cmp)
    p_cmp.add_argument("--baselines", default="asymptotic,fixed_time",
                       help="comma list: asymptotic, fixed_time")
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, OSError) as exc:  # a missing scenario, a directory for one, a bad --out
        print(f"schema: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except OutputError as exc:
        print(f"output: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (SynthesisError, RegulatorError) as exc:
        print(f"synthesis: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"simulation: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
