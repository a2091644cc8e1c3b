import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epinfer import (Network, austria_network, chain_network, fiedler_ordering,
                     fiedler_vector, is_connected, laplacian, network_distance,
                     parse_network, permute_network, serialize_network,
                     smallworld_network)
from epinfer.graphs import all_pairs, network_from_bits, pair_index

from conftest import random_network


def complete_network(n):
    return Network(n, all_pairs(n))


networks = st.builds(
    lambda n, seed: random_network(np.random.default_rng(seed), n),
    st.integers(2, 8), st.integers(0, 10_000))


class TestNetwork:
    def test_normalizes_edge_order(self):
        net = Network(3, [(2, 0)])
        assert net.edges == frozenset({(0, 2)})

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Network(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Network(3, [(0, 3)])

    def test_toggle_is_involution(self):
        net = chain_network(4)
        pair = (0, 3)
        assert net.with_edge_toggled(pair).with_edge_toggled(pair) == net

    def test_toggle_flips_one_bit(self):
        net = chain_network(5)
        child = net.with_edge_toggled((4, 0))
        assert child.edge_bits == net.edge_bits ^ 1 << pair_index(0, 4, 5)
        assert child == Network(5, [*net.edges, (0, 4)])
        assert hash(child) == hash(Network(5, [*net.edges, (0, 4)]))
        assert child.with_edge_toggled((1, 2)) == Network(5, [(0, 1), (2, 3), (3, 4), (0, 4)])
        assert repr(Network(3, [(2, 0)])) == "Network(n_nodes=3, edges=frozenset({(0, 2)}))"

    def test_toggle_rejects_bad_pairs(self):
        with pytest.raises(ValueError, match="self-loop on node 2"):
            chain_network(3).with_edge_toggled((2, 2))
        with pytest.raises(ValueError, match=r"edge \(1, 3\) out of range for 3 nodes"):
            chain_network(3).with_edge_toggled((3, 1))

    def test_edge_bits_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            net = random_network(rng, 6)
            assert network_from_bits(6, net.edge_bits) == net

    def test_pair_index_enumerates_all_pairs(self):
        pairs = all_pairs(5)
        assert [pair_index(i, j, 5) for i, j in pairs] == list(range(len(pairs)))


class TestLaplacian:
    def test_path_graph(self):
        expected = np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]], dtype=float)
        np.testing.assert_array_equal(laplacian(chain_network(3)), expected)

    def test_empty_graph(self):
        np.testing.assert_array_equal(laplacian(Network(3)), np.zeros((3, 3)))

    def test_complete_graph(self):
        expected = np.array([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], dtype=float)
        np.testing.assert_array_equal(laplacian(complete_network(3)), expected)

    @settings(max_examples=50, deadline=None)
    @given(networks)
    def test_positive_semidefinite_zero_row_sums(self, net):
        lap = laplacian(net)
        np.testing.assert_allclose(lap, lap.T)
        # the all-ones vector is always in the kernel
        np.testing.assert_allclose(lap @ np.ones(net.n_nodes), 0.0, atol=1e-12)
        eigs = np.linalg.eigvalsh(lap)
        assert eigs.min() >= -1e-10
        assert abs(eigs[0]) <= 1e-10


class TestFiedler:
    def test_two_disjoint_triangles_have_zero_connectivity(self):
        net = Network(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        lam1, v = fiedler_vector(net)
        assert abs(lam1) < 1e-10
        assert abs(v @ np.ones(6)) < 1e-10

    def test_path_graph_eigenpair(self):
        lam1, v = fiedler_vector(chain_network(3))
        assert lam1 == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(v, [1 / np.sqrt(2), 0, -1 / np.sqrt(2)], atol=1e-12)

    def test_complete_graph_connectivity(self):
        lam1, _ = fiedler_vector(complete_network(3))
        assert lam1 == pytest.approx(3.0, abs=1e-12)

    def test_needs_two_nodes(self):
        with pytest.raises(ValueError):
            fiedler_vector(Network(1))

    def test_eigensolver_failure_propagates(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            fiedler_vector(chain_network(3))

    @settings(max_examples=60, deadline=None)
    @given(networks)
    def test_zero_iff_disconnected(self, net):
        lam1, v = fiedler_vector(net)
        assert (abs(lam1) < 1e-10) == (not is_connected(net))
        assert abs(v @ np.ones(net.n_nodes)) < 1e-10
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


class TestFiedlerOrdering:
    def test_path_graph_order(self):
        np.testing.assert_array_equal(fiedler_ordering(chain_network(3)), [0, 1, 2])

    def test_components_grouped(self):
        net = Network(6, [(0, 2), (2, 4), (0, 4), (1, 3), (3, 5), (1, 5)])
        order = fiedler_ordering(net).tolist()
        even = {0, 2, 4}
        first_half = set(order[:3])
        assert first_half == even or first_half == {1, 3, 5}

    def test_two_nodes_deterministic(self):
        net = Network(2, [(0, 1)])
        np.testing.assert_array_equal(fiedler_ordering(net), fiedler_ordering(net))

    @settings(max_examples=30, deadline=None)
    @given(networks)
    def test_deterministic_and_valid(self, net):
        a = fiedler_ordering(net)
        b = fiedler_ordering(net)
        np.testing.assert_array_equal(a, b)
        assert sorted(a.tolist()) == list(range(net.n_nodes))


class TestPermuteNetwork:
    def test_round_trip(self):
        rng = np.random.default_rng(3)
        net = random_network(rng, 6)
        order = rng.permutation(6)
        pnet = permute_network(net, order)
        assert pnet.n_nodes == net.n_nodes
        assert len(pnet.edges) == len(net.edges)
        # node order[k] moved to slot k, so degrees follow the permutation
        np.testing.assert_array_equal(pnet.degrees, net.degrees[order])

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            permute_network(chain_network(3), [0, 0, 1])


class TestNetworkDistance:
    def test_identical(self):
        net = chain_network(3)
        assert network_distance(net, net) == 0

    def test_single_extra_edge(self):
        net = chain_network(3)
        assert network_distance(net, net.with_edge_toggled((0, 2))) == 1

    def test_empty_vs_complete(self):
        assert network_distance(Network(4), complete_network(4)) == 6

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            network_distance(Network(3), Network(4))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 7), st.integers(0, 10_000), st.integers(0, 10_000),
           st.integers(0, 10_000))
    def test_metric(self, n, s1, s2, s3):
        a = random_network(np.random.default_rng(s1), n)
        b = random_network(np.random.default_rng(s2), n)
        c = random_network(np.random.default_rng(s3), n)
        assert network_distance(a, b) == network_distance(b, a)
        assert (network_distance(a, b) == 0) == (a == b)
        assert network_distance(a, c) <= network_distance(a, b) + network_distance(b, c)


class TestNetworkFiles:
    def test_parse_path_graph(self):
        net = parse_network("3\n1 2\n2 3\n")
        assert net == chain_network(3)

    def test_parse_isolated_nodes(self):
        net = parse_network("2\n")
        assert net == Network(2)

    def test_parse_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            parse_network("3\n1 1\n")

    def test_parse_rejects_duplicate(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_network("3\n1 2\n2 1\n")

    def test_parse_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            parse_network("3\n1 4\n")

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_network("3\n1 two\n")

    def test_comments_and_blank_lines(self):
        net = parse_network("# a comment\n3\n\n1 2\n# another\n2 3\n")
        assert net == chain_network(3)

    @settings(max_examples=40, deadline=None)
    @given(networks)
    def test_round_trip(self, net):
        assert parse_network(serialize_network(net)) == net


class TestBuiltinNetworks:
    def test_chain(self):
        assert chain_network(4).edges == frozenset({(0, 1), (1, 2), (2, 3)})

    def test_austria_is_connected_nine_nodes(self):
        net = austria_network()
        assert net.n_nodes == 9
        assert is_connected(net)

    def test_austria_matches_checked_in_file(self):
        from pathlib import Path
        path = Path(__file__).resolve().parent.parent / "data" / "austria.net"
        assert parse_network(path.read_text()) == austria_network()

    def test_austria_has_bridge_links(self):
        # removing either leaf link disconnects the graph
        net = austria_network()
        for leaf_link in ((0, 1), (6, 7)):
            assert not is_connected(net.with_edge_toggled(leaf_link))

    def test_smallworld_rewire(self):
        net = smallworld_network(8, 1, 5)
        assert not net.has_edge((0, 1))
        assert net.has_edge((0, 4))
        assert net.has_edge((0, 2))

    def test_smallworld_rejects_bad_rewire(self):
        with pytest.raises(ValueError):
            smallworld_network(8, 1, 1)

    def test_smallworld_needs_three_nodes(self):
        # on two nodes the next-next link of a node is a self-loop
        with pytest.raises(ValueError, match="at least 3 nodes"):
            smallworld_network(2, 1, 2)
        assert smallworld_network(3, 1, 3).edges == {(0, 2), (1, 2)}
