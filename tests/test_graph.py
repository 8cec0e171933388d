import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from ptcor.graph import (
    Network,
    full_laplacian,
    has_leader_spanning_tree,
    network_from_edges,
    observer_rate,
    partition_laplacian,
)
from tests.oracle import solve_lyapunov

CHAIN_EDGES = [(k, k + 1, 1.0) for k in range(6)]


def chain_network():
    return network_from_edges(6, CHAIN_EDGES)


class TestPartition:
    def test_single_leader_edge(self):
        net = network_from_edges(1, [(0, 1, 1.0)])
        parts = partition_laplacian(net)
        assert np.allclose(parts.H, [[1.0]])
        assert np.allclose(parts.Delta, [[1.0]])

    def test_leaderless_follower_cycle(self):
        net = network_from_edges(2, [(1, 2, 1.0), (2, 1, 1.0)])
        parts = partition_laplacian(net)
        # diagonal entries 1, off-diagonal -1, no leader weights
        assert np.allclose(parts.H, [[1.0, -1.0], [-1.0, 1.0]])
        assert np.allclose(parts.Delta, np.zeros((2, 2)))
        assert np.allclose(parts.H @ np.ones(2), parts.Delta @ np.ones(2))

    def test_default_chain(self):
        parts = partition_laplacian(chain_network())
        expected = np.eye(6)
        expected[np.arange(1, 6), np.arange(0, 5)] = -1.0
        assert np.allclose(parts.H, expected)
        assert np.allclose(parts.Delta, np.diag([1.0, 0, 0, 0, 0, 0]))

    def test_laplacian_reassembly_rows_sum_to_zero(self):
        net = network_from_edges(3, [(0, 1, 2.0), (1, 2, 0.5), (2, 3, 1.5), (3, 1, 1.0)])
        L = full_laplacian(net)
        assert np.allclose(L @ np.ones(4), 0.0)
        parts = partition_laplacian(net)
        assert np.allclose(L[1:, 1:], parts.H)
        assert np.allclose(L[1:, 0], -np.diag(parts.Delta))

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            Network(np.array([[0.0, -1.0], [1.0, 0.0]]))

    def test_rejects_self_edge(self):
        with pytest.raises(ValueError):
            network_from_edges(1, [(1, 1, 1.0)])


class TestSpanningTree:
    def test_chain_true(self):
        assert has_leader_spanning_tree(network_from_edges(2, [(0, 1, 1.0), (1, 2, 1.0)]))

    def test_isolated_follower(self):
        assert not has_leader_spanning_tree(network_from_edges(2, [(0, 1, 1.0)]))

    def test_default_chain(self):
        assert has_leader_spanning_tree(chain_network())


class TestObserverRate:
    def test_scalar(self):
        rate = observer_rate(partition_laplacian(network_from_edges(1, [(0, 1, 1.0)])))
        assert np.allclose(rate.P_H, [[0.5]])
        assert rate.rho_H == pytest.approx(1.0, abs=1e-12)

    def test_star(self):
        edges = [(0, i, 1.0) for i in range(1, 5)]
        rate = observer_rate(partition_laplacian(network_from_edges(4, edges)))
        assert np.allclose(rate.P_H, 0.5 * np.eye(4))
        assert rate.rho_H == pytest.approx(1.0, abs=1e-12)

    def test_default_chain_matches_oracle(self):
        parts = partition_laplacian(chain_network())
        rate = observer_rate(parts)
        assert np.abs(rate.P_H @ parts.H + parts.H.T @ rate.P_H - np.eye(6)).max() <= 1e-10
        P_oracle = scipy.linalg.solve_continuous_lyapunov(parts.H.T, np.eye(6))
        rho_oracle = 1.0 / (2.0 * np.linalg.eigvalsh(P_oracle).max())
        assert rate.rho_H == pytest.approx(rho_oracle, rel=1e-9)
        assert rate.rho_H > 0

    def test_rejects_graph_without_tree(self):
        parts = partition_laplacian(network_from_edges(2, [(0, 1, 1.0)]))
        with pytest.raises(ValueError):
            observer_rate(parts)


@st.composite
def rooted_networks(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges = []
    # guarantee reachability: node k gets an in-edge from a lower-index node
    for k in range(1, n + 1):
        src = draw(st.integers(min_value=0, max_value=k - 1))
        w = draw(st.floats(min_value=0.1, max_value=5.0))
        edges.append((src, k, w))
    extra = draw(st.integers(min_value=0, max_value=4))
    for _ in range(extra):
        i = draw(st.integers(min_value=0, max_value=n))
        j = draw(st.integers(min_value=1, max_value=n))
        if i != j:
            edges.append((i, j, draw(st.floats(min_value=0.1, max_value=5.0))))
    net = network_from_edges(n, edges)
    return net


@given(rooted_networks())
@settings(max_examples=60, deadline=None)
def test_rooted_graphs_have_stable_follower_block(net):
    assert has_leader_spanning_tree(net)
    parts = partition_laplacian(net)
    assert all(ev.real > 0 for ev in np.linalg.eigvals(parts.H))
    rate = observer_rate(parts)
    assert rate.rho_H > 0


@given(rooted_networks(max_n=30))
@settings(max_examples=40, deadline=None)
def test_observer_rate_matches_kronecker_oracle(net):
    parts = partition_laplacian(net)
    N = net.n_followers
    rate = observer_rate(parts)
    P_oracle = solve_lyapunov(parts.H, np.eye(N))
    rho_oracle = 1.0 / (2.0 * np.linalg.eigvalsh(P_oracle).max())
    assert rate.rho_H == pytest.approx(rho_oracle, rel=1e-12, abs=0)
    assert np.abs(rate.P_H - P_oracle).max() <= 1e-12 * np.abs(P_oracle).max()
    assert np.abs(rate.P_H @ parts.H + parts.H.T @ rate.P_H - np.eye(N)).max() <= 1e-10
