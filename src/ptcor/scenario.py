"""Scenario files: structured-text ingestion, validation, and echo.

A scenario is a YAML document with these sections (see the bundled files
under ``ptcor/scenarios/`` for complete examples):

    name: my_scenario
    graph:
      followers: 6
      edges: [[0, 1, 1.0], [1, 2, 1.0], ...]      # from, to, weight
    exosystem:
      S0: {shape: [q, q], data: [...]}             # row-major
      v0: [...]
    agents:                                        # list; `copies` replicates an entry
      - copies: 6
        A: {shape: [n, n], data: [...]}
        B: ...  E: ...  C: ...  D: ...  F: ...  Cm: ...  Dm: ...  Fm: ...
    gains:
      psi: 8.0
      Kbar: {shape: [m, n], data: [...]}           # single matrix = shared by all agents
      L:    {shape: [n, pm], data: [...]}
      mbar_K: 3.0                                  # directive: K = -B^{-1} mbar_K I
      mbar_L: 4.0                                  # directive: Ltil = mbar_L Cm^{-1}
      # K / Ktil / Ltil may also be given explicitly; Ktil defaults to U - Kbar X
    mu:
      T: 2.0
      t0: 0.0
      a: 0.5                                       # optional, default 1/T
      cap: 1.0e6
    sim:
      mode: output_fb
      dt: 1.0e-4
      guard: 0.1
      duration: 5.0
      stride: 10
      baseline_constants: {c1: 5.0, c2: 5.0, c3: 5.0, c4: 1.1}
    initial:
      x: [[2, 2], [0, 2], ...]                     # per agent; scalar broadcasts
      v: 0.0
      xhat: 0.0

Matrices always declare their shape next to row-major data; a mismatch is
rejected with the offending field path, which catches silent transposition
at the source.  A key outside this layout is rejected with its path as
well, except ``sim.min_dt``, a retired step floor that is read and ignored.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from .graph import Network, network_from_edges
from .plant import AgentModel, Exosystem
from .sim import BaselineConstants, MuSchedule, SimConfig, check_step_budget
from .synthesis import GainSpec

BUNDLED = ("example1_rlc", "example2_ccvsi")
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)  # libyaml's parser when PyYAML has it
AGENT_MATRICES = ("A", "B", "E", "C", "D", "F", "Cm", "Dm", "Fm")


class ScenarioError(ValueError):
    """Schema violations, each tagged with the field path it occurred at."""

    def __init__(self, issues):
        self.issues = list(issues)
        super().__init__("scenario validation failed:\n  " + "\n  ".join(self.issues))


@dataclass(eq=False)
class Scenario:
    """Fully validated scenario: models, graph, gains, schedule, initial state."""

    name: str
    network: Network
    agents: list
    exo: Exosystem
    gain_spec: GainSpec
    mu_schedule: MuSchedule
    sim_config: SimConfig
    x_init: list
    v_init: np.ndarray     # (N, q)
    xhat_init: list


def _known(node: dict, keys: tuple, path: str, issues: list) -> None:
    """Record each key of `node` outside `keys` as an issue at its path.

    A misspelt field would otherwise load silently with its default.
    """
    issues.extend(f"{path}{key}: unknown key" for key in node if key not in keys)


def _number(node, path: str, issues: list, kind=float):
    """`kind(node)`, or None after recording an issue at `path`."""
    try:
        return kind(node)
    except (TypeError, ValueError, OverflowError):  # OverflowError: int(inf)
        issues.append(f"{path}: expected a number, got {node!r}")
        return None


def _parse_matrix(node, path: str, issues: list) -> np.ndarray | None:
    if not isinstance(node, dict) or "shape" not in node or "data" not in node:
        issues.append(f"{path}: expected a matrix as {{shape: [r, c], data: [row-major ...]}}")
        return None
    _known(node, ("shape", "data"), f"{path}.", issues)
    shape = node["shape"]
    data = node["data"]
    try:
        r, c = (int(v) for v in shape)
    except (TypeError, ValueError, OverflowError):  # OverflowError: int(inf)
        r = c = -1
    if not isinstance(shape, (list, tuple)) or r < 0 or c < 0:
        issues.append(f"{path}.shape: expected [rows, cols], got {shape!r}")
        return None
    try:
        flat = np.asarray(data, dtype=float).reshape(-1)
    except (TypeError, ValueError):
        issues.append(f"{path}.data: expected a flat numeric list")
        return None
    if flat.size != r * c:
        issues.append(f"{path}: shape {r}x{c} declares {r * c} entries, data has {flat.size}")
        return None
    if not np.isfinite(flat).all():
        issues.append(f"{path}: non-finite entries")
        return None
    return flat.reshape(r, c)


def _parse_vector(node, length: int | None, path: str, issues: list) -> np.ndarray | None:
    try:
        v = np.asarray(node, dtype=float).reshape(-1)
    except (TypeError, ValueError):
        issues.append(f"{path}: expected a numeric vector")
        return None
    if length is not None and v.size != length:
        issues.append(f"{path}: expected length {length}, got {v.size}")
        return None
    if not np.isfinite(v).all():
        issues.append(f"{path}: non-finite entries")
        return None
    return v


def _gain_entry(node, path: str, issues: list):
    """A gain may be one shared matrix or a per-agent list of matrices."""
    if node is None:
        return None
    if isinstance(node, list):
        return [_parse_matrix(item, f"{path}[{i}]", issues) for i, item in enumerate(node)]
    return _parse_matrix(node, path, issues)


def _broadcast_init(node, n_agents: int, dims: list, path: str, issues: list) -> list:
    """Per-agent initial vectors; a scalar fills every component."""
    if node is None:
        node = 0.0
    if isinstance(node, (int, float)):
        return [np.full(d, float(node)) for d in dims]
    if not isinstance(node, list) or len(node) != n_agents:
        issues.append(f"{path}: expected a scalar or a list of {n_agents} vectors")
        return [np.zeros(d) for d in dims]
    out = []
    for i, (item, d) in enumerate(zip(node, dims)):
        v = _parse_vector(item, d, f"{path}[{i}]", issues)
        out.append(v if v is not None else np.zeros(d))
    return out


def scenario_from_dict(doc: dict, name_fallback: str = "scenario") -> Scenario:
    issues: list[str] = []
    if not isinstance(doc, dict):
        raise ScenarioError(["document root must be a mapping"])
    _known(doc, ("name", "graph", "exosystem", "agents", "gains", "mu", "sim", "initial"), "", issues)
    name = str(doc.get("name", name_fallback))

    g = doc.get("graph")
    network = None
    if not isinstance(g, dict) or "followers" not in g or "edges" not in g:
        issues.append("graph: expected {followers: N, edges: [[from, to, weight], ...]}")
    else:
        _known(g, ("followers", "edges"), "graph.", issues)
        try:
            network = network_from_edges(int(g["followers"]), g["edges"])
        except (ValueError, TypeError, OverflowError) as exc:
            issues.append(f"graph.edges: {exc}")
    n_followers = network.n_followers if network is not None else 0

    exo = None
    ex = doc.get("exosystem")
    if not isinstance(ex, dict):
        issues.append("exosystem: missing section")
    else:
        _known(ex, ("S0", "v0"), "exosystem.", issues)
        S0 = _parse_matrix(ex.get("S0"), "exosystem.S0", issues)
        if S0 is not None:
            v0 = _parse_vector(ex.get("v0"), S0.shape[0], "exosystem.v0", issues)
            if v0 is not None:
                try:
                    exo = Exosystem(S0=S0, v0_init=v0)
                except ValueError as exc:
                    issues.append(f"exosystem: {exc}")

    agents: list[AgentModel] = []
    raw_agents = doc.get("agents")
    if not isinstance(raw_agents, list) or not raw_agents:
        issues.append("agents: expected a non-empty list")
        raw_agents = []
    for k, entry in enumerate(raw_agents):
        if not isinstance(entry, dict):
            issues.append(f"agents[{k}]: expected a mapping of matrices")
            continue
        _known(entry, ("copies",) + AGENT_MATRICES, f"agents[{k}].", issues)
        copies = _number(entry.get("copies", 1), f"agents[{k}].copies", issues, int)
        if copies is not None and not 1 <= copies <= max(1, n_followers):  # never more agents than followers
            issues.append(f"agents[{k}].copies: expected 1 to {max(1, n_followers)}, got {copies}")
            copies = None
        mats = {}
        for f in AGENT_MATRICES:
            if f not in entry:
                issues.append(f"agents[{k}].{f}: missing required matrix")
                mats = None
                break
            M = _parse_matrix(entry[f], f"agents[{k}].{f}", issues)
            if M is None:
                mats = None
                break
            mats[f] = M
        if mats is None or copies is None:
            continue
        try:
            for _ in range(copies):
                agents.append(AgentModel(**{f: m.copy() for f, m in mats.items()}))
        except ValueError as exc:
            issues.append(f"agents[{k}]: {exc}")
            continue
    if network is not None and agents and len(agents) != n_followers:
        issues.append(f"agents: {len(agents)} agent models for {n_followers} followers")
    if exo is not None:
        for i, a in enumerate(agents):
            if a.q != exo.q:
                issues.append(f"agents[{i}]: exosystem dimension {a.q} != {exo.q}")

    gain_spec = None
    gn = doc.get("gains")
    if not isinstance(gn, dict) or "psi" not in gn:
        issues.append("gains: expected a section with at least psi")
    else:
        _known(gn, ("psi", "Kbar", "Ktil", "K", "L", "Ltil", "mbar_K", "mbar_L"), "gains.", issues)
        gain_spec = GainSpec(
            psi=_number(gn["psi"], "gains.psi", issues),
            Kbar=_gain_entry(gn.get("Kbar"), "gains.Kbar", issues),
            Ktil=_gain_entry(gn.get("Ktil"), "gains.Ktil", issues),
            K=_gain_entry(gn.get("K"), "gains.K", issues),
            L=_gain_entry(gn.get("L"), "gains.L", issues),
            Ltil=_gain_entry(gn.get("Ltil"), "gains.Ltil", issues),
            mbar_K=None if gn.get("mbar_K") is None else _number(gn["mbar_K"], "gains.mbar_K", issues),
            mbar_L=None if gn.get("mbar_L") is None else _number(gn["mbar_L"], "gains.mbar_L", issues),
        )

    sched = None
    mu_node = doc.get("mu")
    if not isinstance(mu_node, dict) or "T" not in mu_node:
        issues.append("mu: expected a section with at least T")
    else:
        _known(mu_node, ("T", "t0", "a", "cap"), "mu.", issues)
        try:
            sched = MuSchedule(
                T=float(mu_node["T"]),
                t0=float(mu_node.get("t0", 0.0)),
                a=None if mu_node.get("a") is None else float(mu_node["a"]),
                mu_cap=float(mu_node.get("cap", 1e6)),
            )
        except (TypeError, ValueError) as exc:
            issues.append(f"mu: {exc}")

    cfg = None
    sim_node = doc.get("sim", {})
    if not isinstance(sim_node, dict):
        issues.append("sim: expected a mapping")
    else:
        # min_dt is accepted and ignored: the step floor it set is gone, older files still carry it
        _known(sim_node, ("mode", "dt", "guard", "duration", "stride", "baseline_constants", "min_dt"),
               "sim.", issues)
        bc = sim_node.get("baseline_constants", {}) or {}
        if not isinstance(bc, dict):
            issues.append("sim.baseline_constants: expected a mapping")
            bc = {}
        _known(bc, ("c1", "c2", "c3", "c4"), "sim.baseline_constants.", issues)
        try:
            cfg = SimConfig(
                mode=str(sim_node.get("mode", "output_fb")),
                dt=float(sim_node.get("dt", 1e-4)),
                guard=float(sim_node.get("guard", 0.1)),
                duration=float(sim_node.get("duration", 5.0)),
                stride=int(sim_node.get("stride", 10)),
                baseline=BaselineConstants(
                    c1=float(bc.get("c1", 5.0)), c2=float(bc.get("c2", 5.0)),
                    c3=float(bc.get("c3", 5.0)), c4=float(bc.get("c4", 1.1)),
                ),
            )
        except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: int(inf)
            issues.append(f"sim: {exc}")
    if sched is not None and cfg is not None:
        try:
            check_step_budget(sched, cfg)
        except ValueError as exc:
            issues.append(f"sim.{exc}")  # the message leads with the field: dt or guard

    init = doc.get("initial", {}) or {}
    if not isinstance(init, dict):
        issues.append("initial: expected a mapping")
        init = {}
    _known(init, ("x", "v", "xhat"), "initial.", issues)
    x_init = v_list = xhat_init = None
    if agents and exo is not None:
        dims_x = [a.n for a in agents]
        x_init = _broadcast_init(init.get("x"), len(agents), dims_x, "initial.x", issues)
        v_rows = _broadcast_init(init.get("v"), len(agents), [exo.q] * len(agents), "initial.v", issues)
        v_list = np.vstack(v_rows) if v_rows else None
        xhat_init = _broadcast_init(init.get("xhat"), len(agents), dims_x, "initial.xhat", issues)

    if issues:
        raise ScenarioError(issues)
    return Scenario(
        name=name, network=network, agents=agents, exo=exo, gain_spec=gain_spec,
        mu_schedule=sched, sim_config=cfg,
        x_init=x_init, v_init=v_list, xhat_init=xhat_init,
    )


def resolve_path(spec: str | Path):
    """A filesystem path, or the name of a bundled scenario."""
    p = Path(spec)
    if p.exists():
        return p
    if str(spec) in BUNDLED:
        return resources.files("ptcor.scenarios").joinpath(f"{spec}.yaml")
    raise FileNotFoundError(f"no such scenario file or bundled scenario: {spec}")


def load_scenario(path: str | Path) -> Scenario:
    """Load and validate a scenario; raises ScenarioError with field paths."""
    p = resolve_path(path)
    with p.open("r", encoding="utf-8") as fh:
        try:
            doc = yaml.load(fh, Loader=YAML_LOADER)
        except yaml.YAMLError as exc:
            raise ScenarioError([f"{p}: not valid YAML: {exc}"]) from exc
    return scenario_from_dict(doc, name_fallback=Path(str(p)).stem)


def _matrix_dict(M: np.ndarray) -> dict:
    return {"shape": [int(M.shape[0]), int(M.shape[1])],
            "data": [float(v) for v in M.reshape(-1)]}


def scenario_to_dict(s: Scenario) -> dict:
    A = s.network.adjacency
    edges = [[int(j), int(i), float(A[i, j])]
             for i in range(A.shape[0]) for j in range(A.shape[1]) if A[i, j] > 0]

    def gain_node(value):
        if value is None:
            return None
        if isinstance(value, list):
            return [_matrix_dict(np.asarray(m)) for m in value]
        return _matrix_dict(np.asarray(value))

    gains = {"psi": float(s.gain_spec.psi)}
    for f in ("Kbar", "Ktil", "K", "L", "Ltil"):
        node = gain_node(getattr(s.gain_spec, f))
        if node is not None:
            gains[f] = node
    if s.gain_spec.mbar_K is not None:
        gains["mbar_K"] = float(s.gain_spec.mbar_K)
    if s.gain_spec.mbar_L is not None:
        gains["mbar_L"] = float(s.gain_spec.mbar_L)

    return {
        "name": s.name,
        "graph": {"followers": s.network.n_followers, "edges": edges},
        "exosystem": {"S0": _matrix_dict(s.exo.S0), "v0": [float(v) for v in s.exo.v0_init]},
        "agents": [
            {f: _matrix_dict(getattr(a, f)) for f in AGENT_MATRICES}
            for a in s.agents
        ],
        "gains": gains,
        "mu": {"T": float(s.mu_schedule.T), "t0": float(s.mu_schedule.t0),
               "a": float(s.mu_schedule.a), "cap": float(s.mu_schedule.mu_cap)},
        "sim": {
            "mode": s.sim_config.mode, "dt": float(s.sim_config.dt),
            "guard": float(s.sim_config.guard),
            "duration": float(s.sim_config.duration), "stride": int(s.sim_config.stride),
            "baseline_constants": {
                "c1": float(s.sim_config.baseline.c1), "c2": float(s.sim_config.baseline.c2),
                "c3": float(s.sim_config.baseline.c3), "c4": float(s.sim_config.baseline.c4),
            },
        },
        "initial": {
            "x": [[float(v) for v in xi] for xi in s.x_init],
            "v": [[float(v) for v in row] for row in s.v_init],
            "xhat": [[float(v) for v in xi] for xi in s.xhat_init],
        },
    }


def write_scenario(s: Scenario, path: str | Path) -> None:
    """Echo a scenario back to YAML; load(write(s)) reproduces s exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(scenario_to_dict(s), fh, sort_keys=False, default_flow_style=None)
