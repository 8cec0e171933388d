"""Seeded synthetic scenarios for the follower-scaling workload.

Each scenario is N RLC circuits on a random leader-rooted digraph, written
as YAML that `ptcor.scenario.load_scenario` reads unchanged.  Every draw is
feasible by construction; nothing is generated, tested and thrown away:

* Agents are the bundled `example1_rlc` circuit with its capacitance and
  inductance both divided by a random factor s_i in [0.5, 2].  That scales
  A and B by s_i, leaves C, D, Cm, Dm unchanged, and keeps B and Cm
  invertible.  The only invariant zero of the base circuit is z = 0, and a
  uniform time scale moves it to s_i * 0 = 0, so the regulation rank holds at
  the exosystem eigenvalues +-i for every s_i.
* Gains come from the closed-form rules with mbar_K = 3 and mbar_L = 5, so
  B_i K_i = -3 I and Ltil_i Cm_i = 5 I: theta_i = 3 and vartheta_i = 5 clear
  the cascade margin vartheta - theta >= 3/2 with room for rounding.  L and
  Kbar are zero, so the local loops stay Hurwitz after the horizon.
* Follower i takes one or two in-edges from earlier nodes of a short window
  (node 0 is the leader), so the follower block H of the Laplacian is lower
  triangular with eigenvalues H_ii.  Every follower is also pinned to the
  leader with weight a_i0 = C_DOM + max(0, (out_i - in_i) / 2), which makes
  H + H^T >= 2 C_DOM I by Gershgorin.  Then P_H <= I / (2 C_DOM), so the
  certified observer rate rho_H is at least C_DOM, and psi = PSI_RHO / C_DOM
  gives psi * rho_H >= PSI_RHO > vartheta + 1 with margin.
* The window bounds in- and out-degree, so psi * H_ii stays below
  PSI_RHO * (1 + 3 / C_DOM) and the guarded RK4 step (mu h = guard = 0.1)
  stays inside the RK4 stability interval.
"""

from __future__ import annotations

import hashlib

import numpy as np

C_DOM = 2.0            # Gershgorin margin: H + H^T >= 2 C_DOM I
PSI_RHO = 7.5          # target lower bound on psi * rho_H (= 1.25 (vartheta + 1))
WINDOW = 4             # in-neighbours are drawn from the previous WINDOW nodes
SCALE_RANGE = (0.5, 2.0)

# example1_rlc circuit (R1 = 3, R2 = 1, C = L = 1), row-major.
RLC = {
    "A": [-0.25, -0.75, 0.75, -0.75],
    "B": [0.25, 0.25, 0.25, -0.75],
    "E": [0.0, 0.0, 0.0, 0.0],
    "C": [-0.75, 0.75, -0.25, -0.75],
    "D": [0.75, 0.75, 0.25, 0.25],
    "F": [1.0, 0.0, 0.0, 1.0],
    "Cm": [-0.25, -0.75, 0.75, -0.75],
    "Dm": [0.25, 0.25, 0.75, -0.75],
    "Fm": [0.0, 0.0, 0.0, 0.0],
}
SCALED = ("A", "B")    # rows divided by C or L: the state-derivative maps


def _matrix(data) -> str:
    return "{shape: [2, 2], data: [" + ", ".join(repr(float(v)) for v in data) + "]}"


def leader_rooted_edges(n: int, rng: np.random.Generator) -> list:
    """Edges (src, dst, weight) of a leader-rooted DAG plus Gershgorin leader pins."""
    edges = []
    in_w = np.zeros(n + 1)
    out_w = np.zeros(n + 1)
    for i in range(1, n + 1):
        lo = max(0, i - WINDOW)
        k = min(i - lo, int(rng.integers(1, 3)))
        for j in sorted(rng.choice(np.arange(lo, i), size=k, replace=False)):
            w = round(float(rng.uniform(0.5, 1.0)), 3)
            edges.append([int(j), i, w])
            if j > 0:
                in_w[i] += w
                out_w[j] += w
    pins = {i: C_DOM + max(0.0, 0.5 * (out_w[i] - in_w[i])) for i in range(1, n + 1)}
    merged = {}
    for j, i, w in edges:
        merged[(j, i)] = merged.get((j, i), 0.0) + w
    for i, w in pins.items():
        merged[(0, i)] = merged.get((0, i), 0.0) + w
    return [[j, i, round(float(w), 6)] for (j, i), w in sorted(merged.items(), key=lambda kv: (kv[0][1], kv[0][0]))]


def scenario_yaml(n: int, seed: int) -> str:
    """YAML text of the scenario for N = n followers drawn from `seed`."""
    rng = np.random.default_rng([seed, n])
    edges = leader_rooted_edges(n, rng)
    scales = rng.uniform(*SCALE_RANGE, size=n)
    x0 = np.round(rng.uniform(-5.0, 5.0, size=(n, 2)), 3)
    lines = [
        f"name: rlc_n{n}_s{seed}",
        "graph:",
        f"  followers: {n}",
        "  edges:",
    ]
    lines += [f"    - [{j}, {i}, {w!r}]" for j, i, w in edges]
    lines += [
        "exosystem:",
        "  S0: {shape: [2, 2], data: [0.0, 1.0, -1.0, 0.0]}",
        "  v0: [1.0, 1.0]",
        "agents:",
    ]
    for s in scales:
        first = True
        for name, data in RLC.items():
            vals = [float(s) * v for v in data] if name in SCALED else data
            lines.append(f"  {'- ' if first else '  '}{name}: {_matrix(vals)}")
            first = False
    lines += [
        "gains:",
        f"  psi: {PSI_RHO / C_DOM!r}",
        "  Kbar: {shape: [2, 2], data: [0.0, 0.0, 0.0, 0.0]}",
        "  mbar_K: 3.0",
        "  mbar_L: 5.0",
        "mu:",
        "  T: 1.0",
        "  t0: 0.0",
        "  cap: 1.0e6",
        "sim:",
        "  mode: output_fb",
        "  dt: 1.0e-3",
        "  min_dt: 1.0e-12",
        "  guard: 0.1",
        "  duration: 2.0",
        "  stride: 10",
        "initial:",
        "  x: [" + ", ".join(f"[{a!r}, {b!r}]" for a, b in x0.tolist()) + "]",
        "  v: 0.0",
        "  xhat: 0.0",
    ]
    return "\n".join(lines) + "\n"


def content_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
