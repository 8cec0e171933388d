"""Leader-rooted directed communication graph and observer rate constant.

Node 0 is the leader (exosystem); nodes 1..N are followers.  The adjacency
convention is ``a[i, j] = weight of the edge j -> i`` (information flows
from j to i), so row i lists the in-neighbours of node i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import lyapunov_certificate


@dataclass(eq=False)
class Network:
    """Weighted digraph over leader node 0 and N followers.

    adjacency[i, j] >= 0 is the weight of edge j -> i; the diagonal is zero.
    """

    adjacency: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.adjacency, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 2:
            raise ValueError(f"adjacency must be square of size >= 2, got {A.shape}")
        if not np.isfinite(A).all():
            raise ValueError("adjacency contains non-finite weights")
        if (A < 0).any():
            raise ValueError("adjacency weights must be nonnegative")
        if np.abs(np.diag(A)).max() > 0:
            raise ValueError("self edges are not allowed (nonzero diagonal)")
        self.adjacency = A

    @property
    def n_followers(self) -> int:
        return self.adjacency.shape[0] - 1


def network_from_edges(n_followers: int, edges) -> Network:
    """Build a Network from an edge list of (from_node, to_node, weight)."""
    A = np.zeros((n_followers + 1, n_followers + 1))
    for k, (src, dst, w) in enumerate(edges):
        src, dst = int(src), int(dst)
        if not (0 <= src <= n_followers and 0 <= dst <= n_followers):
            raise ValueError(f"edges[{k}]: node out of range: ({src}, {dst})")
        if src == dst:
            raise ValueError(f"edges[{k}]: self edge on node {src}")
        A[dst, src] = float(w)
    return Network(A)


@dataclass(eq=False)
class LaplacianParts:
    """Follower block H of the graph Laplacian and diagonal leader-weight matrix."""

    H: np.ndarray
    Delta: np.ndarray


@dataclass(eq=False)
class ObserverRate:
    """Lyapunov certificate (P_H, Q_H) for H and the decay rate it implies.

    rho_H = lambda_min(Q_H) / (2 lambda_max(P_H)) with P_H H + H^T P_H = Q_H.
    """

    P_H: np.ndarray
    Q_H: np.ndarray
    rho_H: float


def partition_laplacian(net: Network) -> LaplacianParts:
    """Split the Laplacian into the follower block H and leader weights Delta.

    H[i, i] collects all in-weights of follower i (leader edge included);
    H[i, j] = -a_ij for distinct followers; Delta = diag(a_10, ..., a_N0).
    """
    return LaplacianParts(H=full_laplacian(net)[1:, 1:].copy(),
                          Delta=np.diag(net.adjacency[1:, 0]))


def full_laplacian(net: Network) -> np.ndarray:
    """Assemble the (N+1) x (N+1) Laplacian; every row sums to zero."""
    A = net.adjacency
    return np.diag(A.sum(axis=1)) - A


def has_leader_spanning_tree(net: Network) -> bool:
    """True iff every follower is reachable from node 0 along positive-weight edges."""
    edge = net.adjacency > 0          # edge[i, j]: j -> i
    seen = np.zeros(edge.shape[0], dtype=bool)
    seen[0] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = edge[:, frontier].any(axis=1) & ~seen
        seen |= frontier
    return bool(seen[1:].all())


def observer_rate(parts: LaplacianParts) -> ObserverRate:
    """Certify the decay rate of -H with the fixed choice Q_H = I.

    Requires -H Hurwitz, which a leader-rooted spanning tree guarantees.
    Q_H is pinned to the identity so rho_H is reproducible; the Lyapunov
    rate is invariant to scaling (P_H, Q_H) jointly, so nothing is lost.
    """
    H = np.asarray(parts.H, dtype=float)
    try:
        P, rho = lyapunov_certificate(-H)
    except ValueError as exc:
        raise ValueError(
            f"observer rate undefined for -H: {exc} "
            "(does the graph have a leader-rooted spanning tree?)"
        ) from exc
    return ObserverRate(P_H=P, Q_H=np.eye(H.shape[0]), rho_H=rho)
