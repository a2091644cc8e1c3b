import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epinfer import (CPOperator, Network, TTVector, austria_network,
                     chain_network, cp_apply, cp_to_dense, evolve_tt,
                     smallworld_network, tt_add, tt_element, tt_inner, tt_ones,
                     tt_round, tt_scale, unit_state_tt)
from epinfer import ModelParams, build_generator_cp, build_generator_dense
from epinfer.graphs import fiedler_ordering, permute_network
from epinfer.tt import _round_cores

from conftest import (index_state, random_network, random_state,
                      round_cores_reference, state_index, tt_from_dense,
                      tt_to_dense)


def random_tt(rng, n_sites, rank):
    """Random TT with inner ranks capped at the dense bound."""
    ranks = [1]
    for k in range(1, n_sites):
        ranks.append(min(rank, 2 ** k, 2 ** (n_sites - k)))
    ranks.append(1)
    cores = [rng.standard_normal((ranks[n], 2, ranks[n + 1]))
             for n in range(n_sites)]
    return TTVector(cores)


def cores_to_dense(cores) -> np.ndarray:
    """Full vector of a tensor train with any mode size."""
    out = np.ones((1, 1))
    for core in cores:
        out = (out @ core.reshape(core.shape[0], -1)).reshape(-1, core.shape[2])
    return out.ravel()


@st.composite
def filled_trains(draw):
    """Random cores of mode size 2 or 4 on 1-8 sites.  Over-full trains
    carry a few times the smaller of 6 and the dense bound at each bond, as
    after cp_apply; under-full ones at most that bound."""
    n_sites = draw(st.integers(1, 8))
    m = draw(st.sampled_from([2, 4]))
    over = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    factor = int(rng.integers(2, 5))
    ranks = [1]
    for k in range(1, n_sites):
        bound = min(m ** k, m ** (n_sites - k))
        if over:
            ranks.append(min(bound, 6) * factor)
        else:
            ranks.append(int(rng.integers(1, min(bound, 8) + 1)))
    ranks.append(1)
    return [rng.standard_normal((ranks[n], m, ranks[n + 1])) for n in range(n_sites)]


class TestStateIndex:
    @pytest.mark.parametrize("bits,expected", [
        ((0, 0, 0), 0),
        ((1, 0, 0), 4),
        ((1, 1, 1), 7),
        ((0, 1), 1),
    ])
    def test_examples(self, bits, expected):
        assert state_index(bits) == expected

    def test_bijection_all_states(self):
        n = 10
        for idx in range(1 << n):
            assert state_index(index_state(idx, n)) == idx

    def test_index_state_range_check(self):
        with pytest.raises(ValueError):
            index_state(8, 3)


class TestTTVector:
    def test_rejects_rank_mismatch(self):
        with pytest.raises(ValueError, match="left rank"):
            TTVector([np.ones((1, 2, 2)), np.ones((3, 2, 1))])

    def test_rejects_bad_boundary(self):
        with pytest.raises(ValueError, match="right rank"):
            TTVector([np.ones((1, 2, 2))])

    def test_ranks(self):
        rng = np.random.default_rng(0)
        p = random_tt(rng, 4, 2)
        assert p.ranks == (1, 2, 2, 2, 1)

    @pytest.mark.parametrize("n_sites", [1, 2, 3, 6])
    def test_operation_results_pass_the_checks(self, n_sites, params):
        # the operations build their results unchecked, so each must chain
        rng = np.random.default_rng(16)
        a, b = random_tt(rng, n_sites, 3), random_tt(rng, n_sites, 2)
        op = build_generator_cp(chain_network(n_sites), params).uniformized
        for result in (tt_add(a, b), tt_scale(a, 0.5), tt_round(tt_add(a, a), 1e-12),
                       cp_apply(op, b)):
            assert isinstance(result, TTVector)
            TTVector(list(result.cores))
            assert result.ranks == (1,) + tuple(c.shape[2] for c in result.cores)


class TestUnitState:
    def test_dense_expansion(self):
        np.testing.assert_array_equal(tt_to_dense(unit_state_tt([1, 0])), [0, 0, 1, 0])

    def test_unit_norm(self):
        p = unit_state_tt([0, 1, 1])
        assert tt_inner(p, p) == pytest.approx(1.0)

    def test_unit_mass(self):
        p = unit_state_tt([0, 1, 1])
        assert tt_inner(p, tt_ones(3)) == pytest.approx(1.0)

    def test_element_at_own_state(self):
        x = [1, 0, 1, 1]
        assert tt_element(unit_state_tt(x), x) == 1.0


class TestElement:
    def test_separable_product(self):
        a = np.array([[0.3, 0.7]]).reshape(1, 2, 1)
        b = np.array([[0.2, 0.8]]).reshape(1, 2, 1)
        p = TTVector([a, b])
        assert tt_element(p, [1, 0]) == pytest.approx(0.7 * 0.2)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 10_000))
    def test_matches_dense_entry(self, n, seed):
        rng = np.random.default_rng(seed)
        p = random_tt(rng, n, 3)
        dense = tt_to_dense(p)
        x = rng.integers(0, 2, size=n)
        assert tt_element(p, x) == pytest.approx(dense[state_index(x)], abs=1e-12)


class TestDenseRoundTrip:
    def test_indicator_is_rank_one(self):
        v = np.zeros(8)
        v[0] = 1.0
        assert tt_from_dense(v, 1e-12).ranks == (1, 1, 1, 1)

    def test_uniform_vector_is_rank_one(self):
        v = np.full(16, 1 / 16)
        assert tt_from_dense(v, 1e-12).ranks == (1, 1, 1, 1, 1)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            tt_from_dense(np.ones(6))

    def test_rejects_huge_expansion(self):
        cores = [np.ones((1, 2, 1))] * 25
        with pytest.raises(ValueError, match="refusing"):
            tt_to_dense(TTVector(cores))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 10_000))
    def test_round_trip(self, n, seed):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(1 << n)
        w = tt_to_dense(tt_from_dense(v, 1e-14))
        assert np.linalg.norm(v - w) <= 1e-12 * np.linalg.norm(v)

    def test_truncated_round_trip_error_bound(self):
        rng = np.random.default_rng(5)
        v = rng.standard_normal(32)
        w = tt_to_dense(tt_from_dense(v, 1e-12))
        assert np.linalg.norm(v - w) <= 1e-10 * np.linalg.norm(v)


class TestAddScale:
    def test_add_zero(self):
        rng = np.random.default_rng(1)
        a = random_tt(rng, 4, 2)
        zero = tt_scale(a, 0.0)
        np.testing.assert_allclose(tt_to_dense(tt_add(a, zero)), tt_to_dense(a),
                                   atol=1e-12)

    def test_add_self_then_round_restores_ranks(self):
        rng = np.random.default_rng(2)
        a = random_tt(rng, 5, 2)
        doubled = tt_round(tt_add(a, a), 1e-12)
        assert doubled.ranks == a.ranks
        np.testing.assert_allclose(tt_to_dense(doubled), 2 * tt_to_dense(a),
                                   atol=1e-10)

    def test_rank_growth(self):
        rng = np.random.default_rng(3)
        a = random_tt(rng, 4, 2)
        b = random_tt(rng, 4, 2)
        summed = tt_add(a, b)
        assert summed.ranks[1:-1] == tuple(
            ra + rb for ra, rb in zip(a.ranks[1:-1], b.ranks[1:-1]))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_add_matches_dense(self, seed):
        rng = np.random.default_rng(seed)
        a = random_tt(rng, 5, 3)
        b = random_tt(rng, 5, 3)
        np.testing.assert_allclose(
            tt_to_dense(tt_add(a, b)), tt_to_dense(a) + tt_to_dense(b), atol=1e-12)

    def test_scale_matches_dense(self):
        rng = np.random.default_rng(4)
        a = random_tt(rng, 4, 3)
        np.testing.assert_allclose(tt_to_dense(tt_scale(a, -2.5)),
                                   -2.5 * tt_to_dense(a), atol=1e-12)

    def test_scale_leaves_input_unchanged(self):
        rng = np.random.default_rng(15)
        a = random_tt(rng, 5, 3)
        before = [core.copy() for core in a.cores]
        scaled = tt_scale(a, 4.0)
        for core, kept in zip(a.cores, before):
            np.testing.assert_array_equal(core, kept)
        np.testing.assert_allclose(tt_to_dense(scaled), 4.0 * tt_to_dense(a),
                                   rtol=1e-15)

    def test_add_dimension_mismatch(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError):
            tt_add(random_tt(rng, 3, 2), random_tt(rng, 4, 2))


class TestRound:
    def test_lossless_at_zero_tol(self):
        rng = np.random.default_rng(6)
        p = random_tt(rng, 5, 3)
        np.testing.assert_allclose(tt_to_dense(tt_round(p, 0.0)), tt_to_dense(p),
                                   atol=1e-13)

    def test_recompresses_inflated_rank_one(self):
        x = [1, 0, 1, 0, 1]
        p = unit_state_tt(x)
        inflated = tt_add(p, tt_scale(p, 0.0))
        assert max(inflated.ranks) == 2
        rounded = tt_round(inflated, 1e-10)
        assert rounded.ranks == (1,) * 6
        assert tt_element(rounded, x) == pytest.approx(1.0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_error_bound_and_rank_monotonicity(self, seed):
        rng = np.random.default_rng(seed)
        p = random_tt(rng, 6, 4)
        tol = 1e-6
        rounded = tt_round(p, tol)
        assert all(r1 <= r0 for r0, r1 in zip(p.ranks, rounded.ranks))
        err = np.linalg.norm(tt_to_dense(rounded) - tt_to_dense(p))
        assert err <= tol * np.linalg.norm(tt_to_dense(p)) + 1e-14

    def test_hundred_random_instances(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            p = random_tt(rng, int(rng.integers(2, 7)), int(rng.integers(1, 5)))
            tol = float(10.0 ** rng.uniform(-12, -2))
            rounded = tt_round(p, tol)
            assert all(r1 <= r0 for r0, r1 in zip(p.ranks, rounded.ranks))
            err = np.linalg.norm(tt_to_dense(rounded) - tt_to_dense(p))
            assert err <= tol * np.linalg.norm(tt_to_dense(p)) + 1e-13

    @settings(max_examples=150, deadline=None)
    @given(filled_trains(), st.sampled_from([0.0, 1e-12]))
    def test_matches_reference_sweep(self, cores, tol):
        n_sites, m = len(cores), cores[0].shape[1]
        got = (tt_round(TTVector(cores), tol).cores if m == 2
               else _round_cores(cores, tol))
        want = round_cores_reference(cores, tol)
        assert [c.shape for c in got] == [c.shape for c in want]
        norm = np.linalg.norm(cores_to_dense(cores))
        np.testing.assert_allclose(cores_to_dense(got), cores_to_dense(want),
                                   rtol=0, atol=1e-13 * norm)
        for n, core in enumerate(got):
            bound = min(m ** n, m ** (n_sites - n))
            assert core.shape[0] <= bound
            if n >= 1:  # right-orthogonal: the norm sits in core 0
                v = core.reshape(core.shape[0], -1)
                np.testing.assert_allclose(v @ v.T, np.eye(len(v)), rtol=0, atol=1e-13)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("n_sites,site", [(1, 0), (2, 1), (6, 0), (6, 2), (6, 5)])
    @pytest.mark.parametrize("fill", ["rank1", "under", "over"])
    def test_non_finite_entry_raises(self, bad, n_sites, site, fill):
        # LAPACK reports a non-finite matrix by its info code or only by
        # non-finite singular values, so the sweep must check both
        rng = np.random.default_rng(8)
        if fill != "over":
            p = random_tt(rng, n_sites, 1 if fill == "rank1" else 2)
        else:  # doubled full ranks, as after cp_apply
            full = random_tt(rng, n_sites, 8)
            p = tt_add(full, full)
        p.cores[site][0, 0, 0] = bad
        with pytest.raises(np.linalg.LinAlgError):
            tt_round(p, 1e-12)


def delta_ranks(dense, n_sites, tol):
    """Smallest rank of each bond's dense unfolding whose discarded
    singular-value tail is at most tol*||dense||/sqrt(N-1)."""
    delta = tol * np.linalg.norm(dense) / np.sqrt(n_sites - 1)
    ranks = []
    for bond in range(1, n_sites):
        s = np.linalg.svd(dense.reshape(2 ** bond, -1), compute_uv=False)
        tails = np.sqrt(np.cumsum(s[::-1] ** 2))[::-1]  # tails[r] = ||s[r:]||
        ranks.append(max(1, int(np.count_nonzero(tails > delta))))
    return ranks


class TestRoundOperatorStep:
    """Rounding of w*p + B*acc as cp_apply and tt_add leave it, with bond
    ranks above the dense bound at both ends of the train."""

    @pytest.mark.parametrize("net", [austria_network(), chain_network(8)],
                             ids=["austria9", "chain8"])
    @pytest.mark.parametrize("tol", [1e-12, 1e-8])
    def test_matches_dense_and_delta_ranks(self, params, net, tol):
        pnet = permute_network(net, fiedler_ordering(net))
        gen = build_generator_cp(pnet, params)
        rng = np.random.default_rng(16)
        for dt in (0.05, 0.1):
            p = unit_state_tt(random_state(rng, net.n_nodes))
            acc = evolve_tt(gen, p, dt)
            step = tt_add(cp_apply(gen.uniformized, acc), tt_scale(p, 0.3))
            # the dense bound is 2 at the first and the last bond
            assert step.ranks[1] > 2 and step.ranks[-2] > 2
            dense = tt_to_dense(step)
            rounded = tt_round(step, tol)
            assert (np.linalg.norm(tt_to_dense(rounded) - dense)
                    <= tol * np.linalg.norm(dense))
            assert list(rounded.ranks[1:-1]) == delta_ranks(dense, net.n_nodes, tol)


class TestInner:
    def test_unit_states_orthonormal(self):
        x, y = [1, 0, 1], [1, 1, 0]
        assert tt_inner(unit_state_tt(x), unit_state_tt(x)) == pytest.approx(1.0)
        assert tt_inner(unit_state_tt(x), unit_state_tt(y)) == pytest.approx(0.0)

    def test_ones_gives_entry_sum(self):
        rng = np.random.default_rng(8)
        a = random_tt(rng, 4, 3)
        assert tt_inner(a, tt_ones(4)) == pytest.approx(tt_to_dense(a).sum())

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_matches_dense_dot(self, seed):
        rng = np.random.default_rng(seed)
        a = random_tt(rng, 5, 3)
        b = random_tt(rng, 5, 3)
        assert tt_inner(a, b) == pytest.approx(tt_to_dense(a) @ tt_to_dense(b),
                                               abs=1e-12, rel=1e-12)


class TestCpApply:
    def test_identity_operator(self):
        rng = np.random.default_rng(9)
        p = random_tt(rng, 4, 3)
        ident = CPOperator([(1.0, [np.eye(2)] * 4)])
        np.testing.assert_allclose(tt_to_dense(cp_apply(ident, p)), tt_to_dense(p),
                                   atol=1e-12)

    def test_shift_factor_moves_unit_state(self):
        # one term: recovery-style shift at node 1 maps x1=1 to x1=0
        shift = np.array([[0.0, 1.0], [0.0, 0.0]])
        factors = [np.eye(2), shift, np.eye(2)]
        op = CPOperator([(1.0, factors)])
        moved = cp_apply(op, unit_state_tt([0, 1, 0]))
        np.testing.assert_allclose(tt_to_dense(moved),
                                   tt_to_dense(unit_state_tt([0, 0, 0])), atol=1e-14)

    def test_generator_matches_dense_matvec(self, params):
        rng = np.random.default_rng(10)
        net = chain_network(3)
        gen = build_generator_cp(net, params)
        p = random_tt(rng, 3, 2)
        expected = build_generator_dense(net, params) @ tt_to_dense(p)
        np.testing.assert_allclose(tt_to_dense(cp_apply(gen, p)), expected,
                                   atol=1e-10)

    def test_rank_growth_bound(self):
        rng = np.random.default_rng(11)
        p = random_tt(rng, 5, 2)
        op = CPOperator([(0.5, [np.eye(2)] * 5), (2.0, [np.eye(2)] * 5)])
        out = cp_apply(op, p)
        assert all(r_out <= 2 * r_in for r_out, r_in
                   in zip(out.ranks[1:-1], p.ranks[1:-1]))

    def test_linearity(self, params):
        rng = np.random.default_rng(12)
        net = chain_network(4)
        gen = build_generator_cp(net, params)
        a = random_tt(rng, 4, 2)
        b = random_tt(rng, 4, 2)
        left = tt_to_dense(cp_apply(gen, tt_add(a, b)))
        right = (tt_to_dense(cp_apply(gen, a)) + tt_to_dense(cp_apply(gen, b)))
        np.testing.assert_allclose(left, right, atol=1e-11)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(13)
        op = CPOperator([(1.0, [np.eye(2)] * 3)])
        with pytest.raises(ValueError):
            cp_apply(op, random_tt(rng, 4, 2))


def crossing_nodes(net, bond):
    """Nodes left and right of the bond before position `bond` that have
    an edge crossing it."""
    left, right = set(), set()
    for i, j in net.edges:  # i < j
        if i < bond <= j:
            left.add(i)
            right.add(j)
    return len(left), len(right)


class TestGeneratorMPO:
    @pytest.mark.parametrize("net", [
        Network(1),
        Network(2),
        Network(2, [(0, 1)]),
        # two components and the isolated node 3
        Network(7, [(0, 1), (1, 2), (0, 2), (4, 5), (5, 6)]),
    ] + [random_network(np.random.default_rng(seed), n, prob)
         for seed, (n, prob) in enumerate([(3, 0.5), (5, 0.3), (6, 0.6), (7, 0.2),
                                           (8, 0.4), (8, 0.15)])],
        ids=lambda net: f"n{net.n_nodes}-e{len(net.edges)}")
    def test_matvec_matches_dense(self, params, net):
        rng = np.random.default_rng(net.n_nodes + len(net.edges))
        gen = build_generator_cp(net, params)
        p = random_tt(rng, net.n_nodes, 3)
        expected = cp_to_dense(gen) @ tt_to_dense(p)
        got = tt_to_dense(cp_apply(gen, p))
        assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected)

    @pytest.mark.parametrize("net", [
        chain_network(8),
        austria_network(),
        smallworld_network(10, 1, 6),
        Network(7, [(0, 1), (1, 2), (0, 2), (4, 5), (5, 6)]),
    ], ids=["chain8", "austria9", "smallworld10", "isolated7"])
    def test_bond_ranks_follow_crossing_nodes(self, params, net):
        # bond rank 2 + 2c: the terms on either side of the bond, and an
        # infection and an infected-indicator factor per crossing node of
        # the smaller side
        pnet = permute_network(net, fiedler_ordering(net))
        mpo = build_generator_cp(pnet, params).mpo
        ranks = [core.shape[3] for core in mpo[:-1]]
        expected = [2 + 2 * min(crossing_nodes(pnet, bond))
                    for bond in range(1, net.n_nodes)]
        assert ranks == expected

    def test_output_ranks_are_mpo_times_input(self, params):
        rng = np.random.default_rng(14)
        gen = build_generator_cp(austria_network(), params)
        p = random_tt(rng, 9, 3)
        out = cp_apply(gen, p)
        assert out.ranks == tuple(m.shape[0] * r for m, r
                                  in zip(gen.mpo, p.ranks[:-1])) + (1,)


def mpo_to_dense(cores) -> np.ndarray:
    """Full matrix of a TT-matrix with cores (r, 2, 2, r')."""
    out = np.ones((1, 1, 1))
    for core in cores:
        out = np.einsum("abr,rijs->aibjs", out, core).reshape(
            2 * out.shape[0], 2 * out.shape[1], core.shape[3])
    return out[:, :, 0]


def generic_term(rng, n_sites, sites):
    """A random coefficient and random 2x2 factors on `sites`, identities
    elsewhere."""
    factors = [np.eye(2)] * n_sites
    for n in sites:
        factors[n] = rng.standard_normal((2, 2))
    return float(rng.standard_normal()), factors


class TestFiniteStateMPO:
    """The MPO of operators whose terms have generic factors, against
    cp_to_dense."""

    @pytest.mark.parametrize("n_sites,term_sites", [
        (1, [[0]]),
        (1, [[0], []]),
        (2, [[0], [1], [0, 1], []]),
        (2, [[0, 1], [0, 1]]),
        (4, [[1], [0, 3], [1, 2], [0, 1, 3], []]),
        (6, [[0, 2, 5], [1, 3, 4], [2], [4, 5], [0, 5], [0, 5], []]),
    ], ids=["n1", "n1-identity", "n2-every-span", "n2-same-span", "n4", "n6-gaps"])
    def test_matches_dense(self, n_sites, term_sites):
        rng = np.random.default_rng(n_sites + len(term_sites))
        op = CPOperator([generic_term(rng, n_sites, sites) for sites in term_sites])
        want = cp_to_dense(op)
        got = mpo_to_dense(op.mpo)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_random_terms(self, n_sites, n_terms, seed):
        # 0 to 3 non-identity factors per term; bond ranks at most 2 plus
        # the terms whose first and last factor lie on either side
        rng = np.random.default_rng(seed)
        spans = [sorted(rng.choice(n_sites, int(rng.integers(0, min(3, n_sites) + 1)),
                                   replace=False)) for _ in range(n_terms)]
        op = CPOperator([generic_term(rng, n_sites, sites) for sites in spans])
        want = cp_to_dense(op)
        got = mpo_to_dense(op.mpo)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
        for bond in range(1, n_sites):
            crossing = sum(1 for sites in spans if sites and sites[0] < bond <= sites[-1])
            assert op.mpo[bond - 1].shape[3] <= 2 + crossing

    def test_chain24_uniformized_ranks(self, params):
        gen = build_generator_cp(chain_network(24), params)
        assert [core.shape[3] for core in gen.uniformized.mpo[:-1]] == [4] * 23


UNIFORMIZED_NETS = [
    Network(1),
    Network(4, [(0, 1), (1, 2)]),  # node 3 is isolated
    Network(6, [(0, 1), (1, 2), (3, 4), (4, 5)]),
    austria_network(),
]
UNIFORMIZED_IDS = ["n1", "isolated4", "components6", "austria9"]


class TestUniformized:
    @pytest.mark.parametrize("net", UNIFORMIZED_NETS, ids=UNIFORMIZED_IDS)
    def test_is_identity_plus_scaled_generator(self, params, net):
        gen = build_generator_cp(net, params)
        expected = (np.eye(1 << net.n_nodes)
                    + build_generator_dense(net, params) / gen.exit_rate_bound)
        np.testing.assert_allclose(cp_to_dense(gen.uniformized), expected,
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("net", UNIFORMIZED_NETS, ids=UNIFORMIZED_IDS)
    def test_mpo_ranks_equal_generator(self, params, net):
        # the identity term adds no rank: 2 + 2c, as for the generator
        if net.n_nodes >= 2:
            net = permute_network(net, fiedler_ordering(net))
        gen = build_generator_cp(net, params)
        expected = [2 + 2 * min(crossing_nodes(net, bond))
                    for bond in range(1, net.n_nodes)]
        assert [core.shape[3] for core in gen.mpo[:-1]] == expected
        assert [core.shape[3] for core in gen.uniformized.mpo[:-1]] == expected

    def test_needs_exit_rate_bound(self, params):
        gen = build_generator_cp(chain_network(3), params)
        with pytest.raises(ValueError, match="no exit-rate bound"):
            CPOperator(gen.terms).uniformized


class TestCpToDense:
    def test_single_kron_term(self):
        f0 = np.array([[1.0, 2.0], [3.0, 4.0]])
        f1 = np.array([[0.0, 1.0], [1.0, 0.0]])
        op = CPOperator([(2.0, [f0, f1])])
        np.testing.assert_array_equal(cp_to_dense(op), 2.0 * np.kron(f0, f1))
