"""Workload definitions, instrumentation points and the per-op correctness gate.

Every op is one `ptcor` CLI command run in-process through
`ptcor.cli.main(argv)`.  After it returns, its gate reads what the command
wrote and returns a list of problems; an empty list means the op is correct.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import ptcor.analysis
import ptcor.cli
import ptcor.plant
import ptcor.sim
import ptcor.synthesis
from ptcor.analysis import CertifyTolerances, EnvelopeParams
from ptcor.graph import observer_rate, partition_laplacian
from ptcor.scenario import load_scenario
from ptcor.sim import Trajectory, compile_model

import generate

BUNDLED_CERTIFY = [(s, m) for s in ("example1_rlc", "example2_ccvsi") for m in ("state_fb", "output_fb")]
COMPARE_SCENARIO = "example2_ccvsi"
COMPARE_BASELINES = "asymptotic,fixed_time"
# Half the bundled step (1e-4): an op then takes about 7 s instead of 25 s, so a
# run holds several ops and the runs fit the benchmark's time budget.
COMPARE_DT = "5e-4"
SCALE_SIZES = (8, 24, 48)

E_RTOL = 1e-10      # |e - ref| <= E_RTOL * e_initial for e_at_T and e_post_max
PHI_RTOL = 1e-10    # relative, phi maxima and e_initial
CSV_RTOL = 1e-12    # CSV cells carry 15 significant digits
# x_bar / kappa^theta at the clamp divides by kappa = (T + t0 - t) / T ~ 1 / (T mu_cap):
# the 15-digit t of the CSV leaves kappa a relative error near 1e-15 T mu_cap.
CSV_RTOL_KEYS = {"x_bar_envelope_constant": 1e-8}
BASELINE_RTOL = 1e-3
SCALE_E_RATIO = 1e-9   # generated scenarios: e_at_T <= SCALE_E_RATIO * e_initial


@dataclass
class Op:
    key: str                      # op kind; ops with one key are repeats of one command
    argv: list
    command: str                  # "certify", "compare" or "check"
    scenario: str                 # path or bundled name
    mode: str | None = None
    followers: int = 6
    digest: str = ""
    first_report: dict | None = field(default=None, repr=False)
    envelope: tuple | None = field(default=None, repr=False)


def build(workload: str, seed: int, workdir: Path, sizes=SCALE_SIZES) -> list:
    """The ops of one cycle, in the order the seed gives them."""
    rng = np.random.default_rng(seed)
    if workload == "certify_bundled":
        ops = [Op(f"certify {s} {m}", ["certify", s, "--mode", m], "certify", s, m)
               for s, m in BUNDLED_CERTIFY]
        return [ops[i] for i in rng.permutation(len(ops))]
    if workload == "compare_baselines":
        return [Op(f"compare {COMPARE_SCENARIO} {COMPARE_BASELINES} dt={COMPARE_DT}",
                   ["compare", COMPARE_SCENARIO, "--baselines", COMPARE_BASELINES, "--dt", COMPARE_DT],
                   "compare", COMPARE_SCENARIO)]
    if workload == "scale_followers":
        # The k-th smallest size runs `certify` k times per cycle, so the median
        # op falls among the middle size's certify ops and the tail among the
        # largest size's, not on the edge between two kinds of op, where it
        # would jump with the number of cycles a run completes.
        ops = []
        for rank, n in enumerate(sizes, start=1):
            text = generate.scenario_yaml(n, seed)
            path = workdir / f"rlc_n{n}.yaml"
            path.write_text(text, encoding="utf-8")
            digest = generate.content_hash(text)
            check, certify = (Op(f"{command} N={n}", [command, str(path)], command, str(path),
                                 "output_fb", n, digest) for command in ("check", "certify"))
            ops += [check] + [certify] * rank
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def _state_dim(args, kwargs, result):
    scenario = args[0]
    config = (args[1] if len(args) > 1 else kwargs.get("config")) or scenario.sim_config
    q, nx = scenario.exo.q, sum(a.n for a in scenario.agents)
    return {"samples": len(result.t),
            "state_dim": q + len(scenario.agents) * q + nx + (0 if config.mode == "state_fb" else nx)}


def instrument(tracer) -> None:
    """Wrap the layer entry points: the names `ptcor.cli` imports, the
    `compile_model` that `integrate` calls when it is given no model, and the
    regulator solve and gain build that `compile_model` imports at call time."""
    cli = ptcor.cli
    tracer.wrap(cli, "load_scenario", "scenario.load_scenario")
    tracer.wrap(cli, "compile_model", "sim.compile_model")
    tracer.wrap(ptcor.sim, "compile_model", "sim.compile_model")
    tracer.wrap(cli, "integrate", "sim.integrate", _state_dim)
    tracer.wrap(cli, "observer_rate", "graph.observer_rate",
                lambda a, k, r: {"followers": int(a[0].H.shape[0]),
                                 "kron_mb": 8.0 * a[0].H.shape[0] ** 4 / 1e6})
    tracer.wrap(cli, "partition_laplacian", "graph.partition_laplacian")
    tracer.wrap(cli, "has_leader_spanning_tree", "graph.has_leader_spanning_tree")
    tracer.wrap(cli, "verify_gains", "synthesis.verify_gains",
                lambda a, k, r: {"failed": len(r.failed())})
    tracer.wrap(cli, "certify", "analysis.certify")
    tracer.wrap(cli, "compare_runs", "analysis.compare_runs")
    tracer.wrap(ptcor.plant, "solve_regulator", "plant.solve_regulator")
    tracer.wrap(ptcor.synthesis, "build_gain_set", "synthesis.build_gain_set")
    tracer.wrap(Trajectory, "to_csv", "sim.to_csv",
                lambda a, k, r: {"mb": os.path.getsize(a[1]) / 1e6})
    tracer.wrap(Trajectory, "from_csv", "sim.from_csv")


# -- reading what an op wrote ---------------------------------------------------------


def parse_report(text: str) -> dict:
    """Numeric and boolean fields of a `certify` report."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if not sep or key in ("note", "per_agent_e_at_T"):
            continue
        value = value.strip()
        if value in ("True", "False"):
            out[key] = value == "True"
        elif value == "":
            out[key] = None
        else:
            out[key] = float(value)
    return out


def _report_path(out: Path, op: Op, name: str) -> Path:
    return out / f"{name}_{op.mode}_report.txt"


def _read_comparison(out: Path, op: Op):
    """(horizon, [(label, ||e(horizon)||), ...]) from the comparison table."""
    lines = (out / f"{op.scenario}_comparison.csv").read_text(encoding="utf-8").splitlines()
    horizon = float(lines[0].split("t=")[1])
    return horizon, [(label, float(value)) for label, value in (ln.split(", ") for ln in lines[1:])]


def _close(a, b, rtol) -> bool:
    if a is None or b is None:
        return a is b
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def _envelope(op: Op, tracer):
    """Schedule and envelope of the op's scenario, computed once, outside any span."""
    if op.envelope is None:
        with tracer.paused(), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            s = load_scenario(op.scenario)
            s.sim_config = replace(s.sim_config, mode=op.mode)
            model = compile_model(s)
            rates = observer_rate(partition_laplacian(s.network))
            env = EnvelopeParams.from_rates(rates, model.gains.psi, s.exo.S0,
                                            theta=model.gains.theta_min())
            op.envelope = (s.name, s.mu_schedule, env)
    return op.envelope


def _check_reference(rep: dict, ref: dict) -> list:
    problems = []
    e0 = ref["e_initial"]
    for key in ("e_at_T", "e_post_max"):
        if abs(rep[key] - ref[key]) > E_RTOL * e0:
            problems.append(f"{key} {rep[key]:.6g} != reference {ref[key]:.6g} (tol {E_RTOL * e0:.3g})")
    for key in ("e_initial", "phi1_max", "phi2_max", "phi3_max", "phi4_max"):
        if not _close(rep[key], ref[key], PHI_RTOL):
            problems.append(f"{key} {rep[key]} != reference {ref[key]}")
    if rep["envelope_violations"] != ref["envelope_violations"]:
        problems.append(f"envelope_violations {rep['envelope_violations']:g} != {ref['envelope_violations']:g}")
    return problems


def gate_certify(op: Op, rc: int, stdout: str, out: Path, reference: dict, tracer) -> list:
    if rc != 0:
        return [f"exit code {rc}"]
    name, sched, env = _envelope(op, tracer)
    text = _report_path(out, op, name).read_text(encoding="utf-8")
    rep = parse_report(text)
    problems = [] if rep.get("settled") else ["settled is not True"]
    if op.key in reference:
        problems += _check_reference(rep, reference[op.key])
    else:
        if rep["envelope_violations"] != 0:
            problems.append(f"{rep['envelope_violations']:g} envelope violations")
        if rep["e_at_T"] > SCALE_E_RATIO * rep["e_initial"]:
            problems.append(f"e_at_T {rep['e_at_T']:.3g} > {SCALE_E_RATIO:g} * e_initial")
    if op.first_report is None:
        op.first_report = rep
    elif rep != op.first_report:
        problems.append("report differs from the first run of the same command")
    traj = Trajectory.from_csv(out / f"{name}_{op.mode}_trajectory.csv", mode=op.mode)
    again = parse_report(ptcor.analysis.certify(traj, sched, CertifyTolerances(), env).to_text())
    for key, value in rep.items():
        if not _close(value, again.get(key), CSV_RTOL_KEYS.get(key, CSV_RTOL)):
            problems.append(f"CSV round trip: {key} {again.get(key)} != {value}")
    return problems


def gate_compare(op: Op, rc: int, stdout: str, out: Path, reference: dict, tracer) -> list:
    if rc != 0:
        return [f"exit code {rc}"]
    horizon, table = _read_comparison(out, op)
    runs = [Trajectory.from_csv(out / f"{op.scenario}_{label}_trajectory.csv") for label, _ in table]
    problems = []
    ref = reference.get(op.key)
    labels = [label for label, _ in table]
    if ref is None:
        problems.append("no reference for this command")
    elif labels != [label for label, _ in ref["ranking"]]:
        problems.append(f"ranking {labels} != reference {[label for label, _ in ref['ranking']]}")
    else:
        for (label, value), (_, want) in zip(table, ref["ranking"]):
            if label.startswith("ptcor_"):
                ok = abs(value - want) <= E_RTOL * ref["e_initial"]
            else:
                ok = _close(value, want, BASELINE_RTOL)
            if not ok:
                problems.append(f"{label}: ||e|| {value:.6g} != reference {want:.6g}")
    again = ptcor.analysis.compare_runs(runs, at=horizon, labels=labels)
    for (label, value), (label2, value2) in zip(table, again):
        if label != label2 or not _close(value, value2, CSV_RTOL):
            problems.append(f"CSV round trip: {label2} {value2:.15g} != {label} {value:.15g}")
    return problems


def gate_check(op: Op, rc: int, stdout: str, out: Path, reference: dict, tracer) -> list:
    if rc != 0:
        return [f"exit code {rc}"]
    failed = [ln.strip() for ln in stdout.splitlines() if "FAIL" in ln]
    return [f"condition failed: {ln}" for ln in failed]


GATES = {"certify": gate_certify, "compare": gate_compare, "check": gate_check}


def load_reference(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["ops"]


def reference_entry(op: Op, out: Path) -> dict:
    """Reference fields recorded from one op's output."""
    if op.command == "certify":
        rep = parse_report(_report_path(out, op, op.scenario).read_text(encoding="utf-8"))
        return {k: rep[k] for k in ("settled", "e_initial", "e_at_T", "e_post_max", "envelope_violations",
                                    "phi1_max", "phi2_max", "phi3_max", "phi4_max")}
    _, table = _read_comparison(out, op)
    ptcor_label = next(label for label, _ in table if label.startswith("ptcor_"))
    traj = Trajectory.from_csv(out / f"{op.scenario}_{ptcor_label}_trajectory.csv")
    return {"ranking": [list(row) for row in table], "e_initial": float(traj.e_norm[0])}
