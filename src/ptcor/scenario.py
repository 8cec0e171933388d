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
      Kbar: {shape: [m, n], data: [...]}           # one shared matrix, or a list of one per follower
      L:    {shape: [n, pm], data: [...]}
      mbar_K: 3.0                                  # directive: K = -B^{-1} mbar_K I
      mbar_L: 4.0                                  # directive: Ltil = mbar_L Cm^{-1}
      # K / Ktil / Ltil may also be given explicitly; Ktil defaults to U - Kbar X
    mu:                                            # ptcor.sim.MuSchedule: T, t0, a, cap (its mu_cap)
      T: 2.0
      cap: 1.0e6
    sim:                                           # ptcor.sim.SimConfig: mode, dt, guard, duration, stride
      mode: output_fb
      dt: 1.0e-4
      baseline_constants: {c4: 1.1}                # ptcor.sim.BaselineConstants: c1 .. c4
    initial:
      x: [[2, 2], [0, 2], ...]                     # per agent; scalar broadcasts
      v: 0.0
      xhat: 0.0

Matrices always declare their shape next to row-major data; a mismatch is
rejected with the offending field path, which catches silent transposition
at the source.  A key outside this layout is rejected with its path as
well, except ``sim.min_dt``, a retired step floor that is read and ignored.

The ``mu`` and ``sim`` sections map their keys onto the fields of the
dataclasses named above: a field the file omits takes the dataclass
default, and each value is checked by the dataclass that owns it.  The
``gains`` directives are checked the same way, by ``GainSpec``.
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
from .synthesis import GAIN_MATRICES, GainSpec

BUNDLED = ("example1_rlc", "example2_ccvsi")
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)  # libyaml's parser when PyYAML has it
AGENT_MATRICES = ("A", "B", "E", "C", "D", "F", "Cm", "Dm", "Fm")


def _float_or_none(value):
    return None if value is None else float(value)


# file key -> (dataclass field, conversion) per section; `scenario_to_dict` echoes mu and sim through theirs
GAIN_KEYS = {"psi": ("psi", float), "mbar_K": ("mbar_K", _float_or_none), "mbar_L": ("mbar_L", _float_or_none)}
MU_KEYS = {"T": ("T", float), "t0": ("t0", float), "a": ("a", _float_or_none), "cap": ("mu_cap", float)}
SIM_KEYS = {"mode": ("mode", str), "dt": ("dt", float), "guard": ("guard", float),
            "duration": ("duration", float), "stride": ("stride", int)}
BASELINE_KEYS = {c: (c, float) for c in ("c1", "c2", "c3", "c4")}


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
    """`kind(node)`, or None after recording an issue at `path`.  An int field takes an integral value
    only: 10.0 loads as 10, and 10.9 is rejected rather than loaded as 10."""
    try:
        value = kind(node)
    except (TypeError, ValueError, OverflowError):  # OverflowError: int(inf)
        issues.append(f"{path}: expected a number, got {node!r}")
        return None
    if kind is int and isinstance(node, float) and value != node:  # int() truncates the fraction
        issues.append(f"{path}: expected an integer, got {node!r}")
        return None
    return value


def _section(cls, node: dict, keys: dict, path: str, issues: list, also: tuple = (), **given):
    """`cls` from `given` and the keys of `node` that `keys` maps to its fields, or None after an issue.

    A key of `node` outside `keys` and `also` is unknown.  Each value is converted by `_number` at its
    field path, and `cls` rejects a bad one at `path`.  A key that `node` omits leaves its field at the
    dataclass default.
    """
    _known(node, (*keys, *also), f"{path}.", issues)
    before = len(issues)
    kw = {name: _number(node[key], f"{path}.{key}", issues, kind) for key, (name, kind) in keys.items()
          if key in node}
    if len(issues) > before:
        return None
    try:
        return cls(**kw, **given)
    except ValueError as exc:
        issues.append(f"{path}: {exc}")
        return None


def _echo(obj, keys: dict) -> dict:
    """The section that `_section` reads back into `obj`."""
    return {key: kind(getattr(obj, name)) for key, (name, kind) in keys.items()}


def _parse_matrix(node, path: str, issues: list) -> np.ndarray | None:
    if not isinstance(node, dict) or "shape" not in node or "data" not in node:
        issues.append(f"{path}: expected a matrix as {{shape: [r, c], data: [row-major ...]}}")
        return None
    _known(node, ("shape", "data"), f"{path}.", issues)
    shape = node["shape"]
    data = node["data"]
    before = len(issues)
    dims = [_number(v, f"{path}.shape", issues, int) for v in shape] if isinstance(shape, (list, tuple)) else []
    if len(issues) > before:
        return None
    if len(dims) != 2 or min(dims) < 0:
        issues.append(f"{path}.shape: expected [rows, cols], got {shape!r}")
        return None
    r, c = dims
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


def _gain_entry(node, n_followers: int | None, path: str, issues: list):
    """A gain may be one shared matrix or a list of one matrix per follower (of any length if
    the follower count is None)."""
    if node is None:
        return None
    if not isinstance(node, list):
        return _parse_matrix(node, path, issues)
    if n_followers is not None and len(node) != n_followers:
        issues.append(f"{path}: expected one matrix per follower ({n_followers}), got {len(node)}")
        return None
    return [_parse_matrix(item, f"{path}[{i}]", issues) for i, item in enumerate(node)]


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
        n = _number(g["followers"], "graph.followers", issues, int)
        try:
            network = None if n is None else network_from_edges(n, g["edges"])
        except (ValueError, TypeError, OverflowError) as exc:
            issues.append(f"graph.edges: {exc}")
    # None when the graph did not load: then nothing counted per follower is checked against it
    n_followers = network.n_followers if network is not None else None

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
        top = max(1, (copies or 1) if n_followers is None else n_followers)  # no more agents than followers
        if copies is not None and not 1 <= copies <= top:
            issues.append(f"agents[{k}].copies: expected 1 to {top}, got {copies}")
            copies = None
        mats = {f: _parse_matrix(entry.get(f), f"agents[{k}].{f}", issues) for f in AGENT_MATRICES}
        if copies is None or any(M is None for M in mats.values()):
            continue
        try:
            agents.extend(AgentModel(**{f: M.copy() for f, M in mats.items()})
                          for _ in range(1 if n_followers is None else copies))
        except ValueError as exc:
            issues.append(f"agents[{k}]: {exc}")
    if n_followers is not None and agents and len(agents) != n_followers:
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
        mats = {f: _gain_entry(gn.get(f), n_followers, f"gains.{f}", issues) for f in GAIN_MATRICES}
        gain_spec = _section(GainSpec, gn, GAIN_KEYS, "gains", issues, also=GAIN_MATRICES, **mats)

    sched = None
    mu_node = doc.get("mu")
    if not isinstance(mu_node, dict) or "T" not in mu_node:
        issues.append("mu: expected a section with at least T")
    else:
        sched = _section(MuSchedule, mu_node, MU_KEYS, "mu", issues)

    cfg = None
    sim_node = doc.get("sim", {})
    if not isinstance(sim_node, dict):
        issues.append("sim: expected a mapping")
    else:
        bc = sim_node.get("baseline_constants", {}) or {}
        if not isinstance(bc, dict):
            issues.append("sim.baseline_constants: expected a mapping")
            bc = {}
        baseline = _section(BaselineConstants, bc, BASELINE_KEYS, "sim.baseline_constants", issues)
        if baseline is not None:
            # min_dt is accepted and ignored: the step floor it set is gone, older files still carry it
            cfg = _section(SimConfig, sim_node, SIM_KEYS, "sim", issues, also=("baseline_constants", "min_dt"),
                           baseline=baseline)
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
    if n_followers is not None and agents and exo is not None:
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


def _matrix_dict(M) -> dict | list:
    """A matrix as its file node; a list of matrices as the list of their nodes."""
    if isinstance(M, list):
        return [_matrix_dict(m) for m in M]
    M = np.asarray(M)
    return {"shape": [int(M.shape[0]), int(M.shape[1])],
            "data": [float(v) for v in M.reshape(-1)]}


def scenario_to_dict(s: Scenario) -> dict:
    A = s.network.adjacency
    edges = [[int(j), int(i), float(A[i, j])]
             for i in range(A.shape[0]) for j in range(A.shape[1]) if A[i, j] > 0]

    spec = s.gain_spec
    gains = {"psi": float(spec.psi),
             **{f: _matrix_dict(getattr(spec, f)) for f in GAIN_MATRICES if getattr(spec, f) is not None},
             **{f: float(getattr(spec, f)) for f in ("mbar_K", "mbar_L") if getattr(spec, f) is not None}}

    return {
        "name": s.name,
        "graph": {"followers": s.network.n_followers, "edges": edges},
        "exosystem": {"S0": _matrix_dict(s.exo.S0), "v0": [float(v) for v in s.exo.v0_init]},
        "agents": [
            {f: _matrix_dict(getattr(a, f)) for f in AGENT_MATRICES}
            for a in s.agents
        ],
        "gains": gains,
        "mu": _echo(s.mu_schedule, MU_KEYS),
        "sim": {**_echo(s.sim_config, SIM_KEYS),
                "baseline_constants": _echo(s.sim_config.baseline, BASELINE_KEYS)},
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
