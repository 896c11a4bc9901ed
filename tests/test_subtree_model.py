import ast
import itertools
import math
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import treegrow.subtree_model
from treegrow._rand import LazyUniform, derive_rng
from treegrow.errors import DomainError, ZeroMassError
from treegrow.oracle import (enumerate_plane_trees, enumerate_subtrees, sg_law, st_law, subset_law,
                             tv_distance)
from treegrow.sgtrees import WeightSequence, compute_tables, is_log_concave
from treegrow.subtree_model import (SubtreeChain, SummableTheta, bij_P, bij_P_inv, coerce_theta,
                                    nested_coupling_law, nested_subset_coupling, nested_thresholds,
                                    subtree_grow_chain)
from treegrow.treespace import PlaneTree, RootedSubtree

from helpers import (apply_shuffle, check_equivariance, elementary_symmetric, inverse_shuffle, literal_image,
                     naive_subtree_chain, pointwise_inverse, push_forward, random_shuffle_for, random_subtree,
                     shuffle_invariance_check, sigma_rule)


class TestShuffleGroupoid:
    def test_identity_shuffle(self):
        tau = RootedSubtree([(), (2,), (5,), (2, 3)])
        g = {u: {i: i for i in tau.children_positions(u)} for u in tau.vertices}
        assert apply_shuffle(tau, g) == tau

    def test_push_example(self):
        tau = RootedSubtree([(), (2,), (5,), (2, 3)])
        g = {(): {2: 1, 5: 2}, (2,): {3: 1}, (5,): {}, (2, 3): {}}
        assert apply_shuffle(tau, g) == RootedSubtree([(), (1,), (2,), (1, 1)])

    def test_missing_map(self):
        tau = RootedSubtree([(), (1,)])
        with pytest.raises(DomainError):
            apply_shuffle(tau, {(): {1: 1}})

    def test_non_injective(self):
        tau = RootedSubtree([(), (1,), (2,)])
        with pytest.raises(DomainError):
            apply_shuffle(tau, {(): {1: 3, 2: 3}, (1,): {}, (2,): {}})

    def test_double_inverse_randomized(self):
        rng = random.Random(101)
        for _ in range(300):
            tau = random_subtree(rng)
            g = random_shuffle_for(tau, rng)
            image = apply_shuffle(tau, g)
            ginv = inverse_shuffle(g, tau)
            assert apply_shuffle(image, ginv) == tau
            # and the inverse of the inverse is the original action
            back = inverse_shuffle(ginv, image)
            assert apply_shuffle(tau, back) == image

    def test_inverse_is_pushforward_of_pointwise(self):
        rng = random.Random(202)
        for _ in range(300):
            tau = random_subtree(rng)
            g = random_shuffle_for(tau, rng)
            assert inverse_shuffle(g, tau) == push_forward(g, tau, pointwise_inverse(g))

    def test_children_positions_transport(self):
        rng = random.Random(303)
        for _ in range(300):
            tau = random_subtree(rng)
            g = random_shuffle_for(tau, rng)
            image = apply_shuffle(tau, g)
            mapping = push_forward(g, tau, {u: u for u in tau.vertices})
            inv = {v: u for v, u in mapping.items()}
            for v, u in inv.items():
                got = set(image.children_positions(v))
                want = {g[u][i] for i in tau.children_positions(u)}
                assert got == want
                assert len(got) == len(tau.children_positions(u))

    def test_pointwise_commutation(self):
        rng = random.Random(404)
        for _ in range(200):
            tau = random_subtree(rng)
            g = random_shuffle_for(tau, rng)
            x = {u: rng.randint(0, 99) for u in tau.vertices}
            f = lambda v: v * v + 1
            lhs = push_forward(g, tau, {u: f(xv) for u, xv in x.items()})
            rhs = {v: f(xv) for v, xv in push_forward(g, tau, x).items()}
            assert lhs == rhs

    def test_pushforward_of_pointwise_inverses(self):
        rng = random.Random(505)
        for _ in range(200):
            tau = random_subtree(rng)
            g = random_shuffle_for(tau, rng)
            h = random_shuffle_for(tau, rng)
            lhs = pointwise_inverse(push_forward(g, tau, h))
            rhs = push_forward(g, tau, pointwise_inverse(h))
            assert lhs == rhs

    def test_pushforward_round_trip(self):
        rng = random.Random(606)
        for _ in range(200):
            tau = random_subtree(rng)
            g = random_shuffle_for(tau, rng)
            x = {u: rng.random() for u in tau.vertices}
            image = apply_shuffle(tau, g)
            moved = push_forward(g, tau, x)
            back = push_forward(inverse_shuffle(g, tau), image, moved)
            assert back == x


class TestPushAndBijection:
    def test_push_example(self):
        tau = RootedSubtree([(), (2,), (5,), (2, 3)])
        assert bij_P(tau)[0] == PlaneTree([(), (1,), (2,), (1, 1)])

    def test_push_fixes_plane_trees(self):
        for n in range(1, 6):
            for tree in enumerate_plane_trees(n):
                assert bij_P(RootedSubtree(tree.vertices))[0].vertices == tree.vertices

    def test_push_preserves_size(self):
        for n in range(1, 6):
            for tau in enumerate_subtrees(n, dmax=2):
                assert len(bij_P(tau)[0]) == len(tau)

    def test_bij_example(self):
        tau = RootedSubtree([(), (2,), (5,), (2, 3)])
        tree, decorations = bij_P(tau)
        assert tree == PlaneTree([(), (1,), (2,), (1, 1)])
        assert decorations == {(): frozenset({2, 5}), (1,): frozenset({3}),
                               (2,): frozenset(), (1, 1): frozenset()}

    def test_bij_root_only(self):
        tree, decorations = bij_P(RootedSubtree([()]))
        assert tree == PlaneTree([()]) and decorations == {(): frozenset()}

    @pytest.mark.parametrize("dmax,n_max", [(2, 6), (3, 5)])
    def test_round_trips(self, dmax, n_max):
        for n in range(1, n_max + 1):
            for tau in enumerate_subtrees(n, dmax=dmax):
                tree, decorations = bij_P(tau)
                for u in tree.vertices:
                    assert len(decorations[u]) == tree.children_count(u)
                assert bij_P_inv(tree, decorations) == tau

    def test_inverse_rejects_bad_grading(self):
        tree = PlaneTree([(), (1,)])
        with pytest.raises(DomainError):
            bij_P_inv(tree, {(): frozenset({1, 2}), (1,): frozenset()})


class TestElementarySymmetric:
    def test_binomial(self):
        assert elementary_symmetric([1, 1, 1]) == [1, 3, 3, 1]

    def test_direct_expansion(self):
        assert elementary_symmetric([2, 1]) == [1, 3, 2]

    def test_split_identity(self):
        theta = SummableTheta(["1/2", "1/3", "1/4"])
        for i in theta.support:
            reduced = SummableTheta([0 if j == i else v for j, v in enumerate(theta.values, start=1)])
            for k in range(1, theta.n_support + 1):
                e_red = lambda j: reduced.e[j] if j < len(reduced.e) else F(0)
                assert theta.e[k] == e_red(k) + theta.value(i) * e_red(k - 1)

    def test_ultra_log_concave_spot(self):
        e = elementary_symmetric([1, 2, 3])
        m = 3
        for k in range(1, m):
            lhs = (e[k] / math.comb(m, k)) ** 2
            rhs = (e[k - 1] / math.comb(m, k - 1)) * (e[k + 1] / math.comb(m, k + 1))
            assert lhs >= rhs

    def test_log_concave_for_every_theta(self):
        for values in (["2", "1"], ["1", "1", "1"], ["1/2", "1/3", "1/4", "1/5"], ["5", "1/7", "3"]):
            assert is_log_concave(SummableTheta(values).e).ok


class TestSubsetDistribution:
    def test_one_of_two(self):
        assert subset_law(["2", "1"], 1) == {frozenset({1}): F(2, 3), frozenset({2}): F(1, 3)}

    def test_full_set(self):
        assert subset_law(["2", "1"], 2) == {frozenset({1, 2}): F(1)}

    def test_empty(self):
        assert subset_law(["2", "1"], 0) == {frozenset(): F(1)}

    def test_too_many(self):
        with pytest.raises(ZeroMassError):
            subset_law(["2", "1"], 3)


THETAS = (["2", "1"], ["1", "1", "1"], ["1/2", "1/3", "1/4", "1/5"])
ZERO_ENTRY_THETAS = (["0", "2", "0", "1/3", "1"], ["3"], ["0", "0", "7", "0"], ["1/2", "1/3", "1/4", "0", "5"])


# level 1 holds two thresholds with one cut: 0 for the first theta, 2^32 - 1 for the second
EQUAL_CUT_THETAS = (["1/1099511627776", "1", "1"], ["1", "1/1099511627776", "1/1099511627776"])


def level_cuts(theta):
    return [[cut for *_, cut in thresholds if cut is not None] for _, thresholds in theta.ladder[:-1]]


def chunk_pieces(cuts):
    """The 32-bit chunks that decide alike against the sorted distinct ``cuts``: ``(first chunk, count)``
    of each cut alone and of each run of chunks between cuts."""
    pieces, lo = [], 0
    for cut in cuts:
        if lo < cut:
            pieces.append((lo, cut - lo))
        pieces.append((cut, 1))
        lo = cut + 1
    if lo < 1 << 32:
        pieces.append((lo, (1 << 32) - lo))
    return pieces


def scripted_coupling_law(theta, monkeypatch):
    """The exact law of ``nested_subset_coupling``, read off every run of its chunks and uniforms.

    A level's 32-bit chunk runs over the intervals its cuts make in
    [0, 2^32), each weighing its size over 2^32.  A chunk at a cut goes on
    to a scripted uniform on ``[c/2^32, (c+1)/2^32)``: it keeps the
    interval ``(lo, hi]`` its answers leave it, answers what that interval
    decides, and takes each undecided answer from the script.  A script
    lists the choice at each choice point, then 0; every script that
    differs from a run's choices after its own end is run next, so each
    run is reached once.  A run weighs the product of its chunks' widths,
    each uniform's refined over its starting width.
    """
    law, scripts = {}, [[]]
    drawing = [chunk_pieces(sorted(set(cuts))) for cuts in level_cuts(theta) if cuts]

    def choose(options):
        choice = script[len(choices)] if len(choices) < len(script) else 0
        choices.append((choice, options))
        return choice

    class ScriptedChunks:
        def getrandbits(self, k):
            assert k == 32
            pieces = drawing[len(widths)]
            chunk, count = pieces[choose(len(pieces))]
            widths.append(F(count, 1 << 32))
            return chunk

    class ScriptedUniform:
        def __init__(self, rng, bits, k):
            self.lo, self.hi = F(bits, 1 << k), F(bits + 1, 1 << k)
            self.width = self.hi - self.lo
            uniforms.append(self)

        def is_below(self, num, den):
            p = F(num, den)
            if not self.lo < p < self.hi:
                return self.hi <= p
            below = bool(choose(2))
            self.lo, self.hi = (self.lo, p) if below else (p, self.hi)
            return below

    monkeypatch.setattr(treegrow.subtree_model, "LazyUniform", ScriptedUniform)
    while scripts:
        script, choices, widths, uniforms = scripts.pop(), [], [], []
        seq = nested_subset_coupling(theta, ScriptedChunks())
        scripts.extend([c for c, _ in choices[:i]] + [other]
                       for i in range(len(script), len(choices)) for other in range(1, choices[i][1]))
        law[seq] = law.get(seq, F(0)) + math.prod(widths) * math.prod((u.hi - u.lo) / u.width for u in uniforms)
    return law


class TestNestedCoupling:
    def test_two_weights_joint_law(self):
        law = nested_coupling_law(["2", "1"])
        assert law == {(1, 2): F(2, 3), (2, 1): F(1, 3)}
        assert nested_thresholds(["2", "1"]) == [F(2, 3), F(1)]

    @pytest.mark.parametrize("values", THETAS)
    def test_prefix_marginals(self, values):
        theta = SummableTheta(values)
        law = nested_coupling_law(theta)
        for k in range(0, theta.n_support + 1):
            marginal = {}
            for seq, mass in law.items():
                key = frozenset(seq[:k])
                marginal[key] = marginal.get(key, F(0)) + mass
            assert marginal == subset_law(theta, k)

    @pytest.mark.parametrize("values", THETAS)
    def test_threshold_monotone(self, values):
        ps = nested_thresholds(values)
        assert all(a <= b for a, b in zip(ps, ps[1:]))
        assert ps[-1] == 1

    @pytest.mark.parametrize("values", THETAS)
    def test_atoms_are_nested_chains(self, values):
        theta = SummableTheta(values)
        for seq, mass in nested_coupling_law(theta).items():
            assert mass > 0
            assert len(set(seq)) == len(seq) == theta.n_support
            assert set(seq) == set(theta.support)
            prefixes = [frozenset(seq[:k]) for k in range(theta.n_support + 1)]
            for small, big in zip(prefixes, prefixes[1:]):
                assert small < big

    def test_uniform_subsets(self):
        law = nested_coupling_law(["1", "1", "1"])
        for k in (1, 2):
            marginal = {}
            for seq, mass in law.items():
                key = frozenset(seq[:k])
                marginal[key] = marginal.get(key, F(0)) + mass
            assert set(marginal.values()) == {F(1, math.comb(3, k))}

    @pytest.mark.parametrize("values", THETAS + ZERO_ENTRY_THETAS)
    def test_ladder_matches_defining_formula(self, values):
        # level m pivots on the m-th support point; with S_m the support from it on,
        # its k-th threshold is theta_pivot e_{k-1}(S_{m+1}) / e_k(S_m), reduced
        theta = SummableTheta(values)
        support = theta.support
        assert theta.e == tuple(elementary_symmetric([theta.value(i) for i in support]))
        assert [pivot for pivot, _ in theta.ladder] == list(support)
        assert theta.ladder[-1][1] == ()
        for m, (pivot, thresholds) in enumerate(theta.ladder[:-1]):
            e_m = elementary_symmetric([theta.value(i) for i in support[m:]])
            e_next = elementary_symmetric([theta.value(i) for i in support[m + 1:]])
            want = [theta.value(pivot) * e_next[k - 1] / e_m[k] for k in range(1, len(support) - m + 1)]
            assert thresholds == tuple((p.numerator, p.denominator, math.floor(p * (1 << 32)) if p < 1 else None)
                                       for p in want)

    @pytest.mark.parametrize("values", THETAS + ZERO_ENTRY_THETAS + (["2", "1", "1"],) + EQUAL_CUT_THETAS)
    def test_sampler_law_is_the_joint_law_exactly(self, values, monkeypatch):
        theta = SummableTheta(values)
        assert scripted_coupling_law(theta, monkeypatch) == nested_coupling_law(theta)

    def test_sampler_matches_joint_law(self):
        theta = SummableTheta(["2", "1", "1"])
        law = nested_coupling_law(theta)
        counts = {}
        n = 40_000
        for i in range(n):
            seq = nested_subset_coupling(theta, derive_rng(21, "xseq", i))
            counts[seq] = counts.get(seq, 0) + 1
        assert tv_distance(counts, n, law) < F(2, 100)

    def test_sampler_deterministic(self):
        theta = SummableTheta(["1/2", "1/3", "1/4"])
        a = nested_subset_coupling(theta, derive_rng(5, "x"))
        b = nested_subset_coupling(theta, derive_rng(5, "x"))
        assert a == b


class ChunkStub:
    """An rng serving the given 32-bit chunks, None for one chunk of a seeded stream, then that stream.

    ``getstate`` is where it stands.
    """

    def __init__(self, chunks, seed):
        self.chunks, self.rest = list(chunks), random.Random(seed)

    def getrandbits(self, k):
        assert k == 32
        chunk = self.chunks.pop(0) if self.chunks else None
        return self.rest.getrandbits(k) if chunk is None else chunk

    def getstate(self):
        return len(self.chunks), self.rest.getstate()


@st.composite
def coupling_streams(draw):
    """``(theta, rng, twin)``: two rngs in one state, seeded streams or stubs listing for each level a
    chunk at cut - 1, cut or cut + 1 of one of its thresholds (a refinement reads the next listed chunk)."""
    values = draw(st.one_of(
        st.sampled_from(THETAS + ZERO_ENTRY_THETAS + (["2", "1", "1"],) + EQUAL_CUT_THETAS),
        st.lists(st.sampled_from(["0", "1", "2", "1/3", "4/7", "9", "1/1099511627776"]), min_size=1, max_size=5)
        .filter(lambda v: set(v) != {"0"})))
    theta, seed = SummableTheta(values), draw(st.integers(0, 1 << 32))
    if draw(st.booleans()):
        return theta, random.Random(seed), random.Random(seed)
    chunks = [min(max(draw(st.sampled_from(cuts)) + draw(st.sampled_from([-1, 0, 1])), 0), (1 << 32) - 1)
              for cuts in level_cuts(theta) if cuts]
    return theta, ChunkStub(chunks, seed), ChunkStub(chunks, seed)


@settings(max_examples=400, deadline=None)
@given(coupling_streams())
def test_ordering_draws_as_one_lazy_uniform_per_level(case):
    """The cut ladder gives the ordering of one ``LazyUniform`` per level and leaves the rng where it does."""
    theta, rng, twin = case
    assert nested_subset_coupling(theta, rng) == helpers.reference_nested_subset_coupling(theta, twin)
    assert rng.getstate() == twin.getstate()


@pytest.mark.parametrize("thresholds, rank, drawn", [
    (((0, 1), (1, 1)), 2, 0),
    (((1, 1), (1, 3)), 1, 0),
    (((0, 1), (1, 2), (1, 1)), None, 1),
    (((-1, 2), (1, 3), (0, 1), (1, 1)), None, 1),
], ids=["0-1", "1-first", "0-then-half", "negative-third-0-1"])
def test_thresholds_of_0_and_1_draw_nothing(thresholds, rank, drawn):
    # a level's chunk is drawn at its first threshold strictly inside (0, 1), none before and no other
    theta = SummableTheta(["1", "1"])
    theta.ladder = ((1, tuple((num, den, (num << 32) // den if 0 < num < den else None) for num, den in thresholds)),
                    (2, ()))
    for seed in range(20):
        rng, twin = random.Random(seed), random.Random(seed)
        seq = nested_subset_coupling(theta, rng)
        assert seq == helpers.reference_nested_subset_coupling(theta, twin) and rng.getstate() == twin.getstate()
        fresh = random.Random(seed)
        for _ in range(drawn):
            fresh.getrandbits(32)
        assert rng.getstate() == fresh.getstate() and (rank is None or seq.index(1) == rank - 1)


def draw_on_chunks(theta, chunks, seed, monkeypatch):
    """The ordering drawn on a ``ChunkStub``, checked against the reference, with the count of
    chunks it read off the seeded stream and the thresholds each ``LazyUniform`` it made was asked."""
    asked = []

    class CountedUniform(LazyUniform):
        def __init__(self, *args):
            super().__init__(*args)
            asked.append([])

        def is_below(self, num, den):
            asked[-1].append(F(num, den))
            return super().is_below(num, den)

    monkeypatch.setattr(treegrow.subtree_model, "LazyUniform", CountedUniform)
    rng, twin = ChunkStub(chunks, seed), ChunkStub(chunks, seed)
    seq = nested_subset_coupling(theta, rng)
    assert seq == helpers.reference_nested_subset_coupling(theta, twin)
    assert rng.getstate() == twin.getstate() and not rng.chunks
    drawn, fresh = 0, random.Random(seed)
    while fresh.getstate() != rng.rest.getstate():
        fresh.getrandbits(32)
        drawn += 1
    return seq, drawn, asked


@pytest.mark.parametrize("seed", range(6))
def test_dyadic_cut_decides_at_the_tie(seed, monkeypatch):
    # theta = 2,1,1: level 1 thresholds 1/2, 4/5, 1; a chunk at 2^31, the cut of 1/2, lies above 1/2
    # and below 4/5 with no further bit; level 2's chunk at the cut of its own 1/2 goes on to rank 2
    theta = SummableTheta(["2", "1", "1"])
    assert level_cuts(theta) == [[1 << 31, (4 << 32) // 5], [1 << 31]]
    assert draw_on_chunks(theta, [1 << 31, 1 << 31], seed, monkeypatch) == ((3, 1, 2), 0, [[F(1, 2)], [F(1, 2)]])


@pytest.mark.parametrize("seed", range(6))
def test_non_dyadic_cut_is_refined(seed, monkeypatch):
    # a chunk at the cut of 4/5 straddles it: the refined uniform reads one more chunk, which
    # decides unless it equals 4/5's next 32 bits; level 2's chunk 0 then puts pivot 2 first
    theta = SummableTheta(["2", "1", "1"])
    seq, drawn, asked = draw_on_chunks(theta, [(4 << 32) // 5, None, 0], seed, monkeypatch)
    assert seq in ((2, 1, 3), (2, 3, 1)) and drawn == 1 and asked == [[F(4, 5)]]


@pytest.mark.parametrize("values", EQUAL_CUT_THETAS)
@pytest.mark.parametrize("seed", range(12))
def test_equal_cuts_share_one_refined_uniform(values, seed, monkeypatch):
    # level 1's first two thresholds share a cut: a chunk at it makes one uniform, asked of both
    # unless the first says yes
    theta = SummableTheta(values)
    (num1, den1, cut), (num2, den2, same), _ = theta.ladder[0][1]
    assert cut == same
    seq, drawn, asked = draw_on_chunks(theta, [cut, None, 0], seed, monkeypatch)
    assert drawn == 1 and asked in ([[F(num1, den1)]], [[F(num1, den1), F(num2, den2)]])
    assert len(asked[0]) == 2 or seq.index(theta.support[0]) == 0


class TestStDistribution:
    def test_uniform_binary_counts(self):
        for n, count in ((1, 1), (2, 2), (3, 5), (4, 14)):
            law = st_law(["1", "1"], n)
            assert len(law) == count
            assert set(law.values()) == {F(1, count)}

    def test_three_singletons(self):
        law = st_law(["1", "1", "1"], 2)
        assert len(law) == 3 and set(law.values()) == {F(1, 3)}

    def test_factorization_identity(self):
        # the subtree mass splits into the plane-tree mass times the subset masses
        theta = SummableTheta(["1/2", "1/3", "1/4"])
        w = WeightSequence(theta.e)
        for n in range(1, 6):
            law = st_law(theta, n)
            tree_law = sg_law(w, 1, n)
            for tau, mass in law.items():
                tree, decorations = bij_P(tau)
                rhs = tree_law[tree]
                for u in tree.vertices:
                    rhs *= subset_law(theta, tree.children_count(u))[decorations[u]]
                assert rhs == mass

    def test_normalization_matches_tree_masses(self):
        theta = SummableTheta(["1/2", "1/3", "1/4"])
        tables = compute_tables(WeightSequence(theta.e), 1, N=6)
        for n in range(1, 7):
            total = F(0)
            for tau in enumerate_subtrees(n, positions=theta.support):
                mass = F(1)
                for u in tau.vertices:
                    if u:
                        mass *= theta.value(u[-1])
                total += mass
            assert total == tables.b_value(n)

    def test_zero_weight_saturation(self):
        # a vertex with more children than the support size kills both sides
        theta = SummableTheta(["1", "1"])
        tau = RootedSubtree([(), (1,), (2,), (3,)])
        mass = F(1)
        for u in tau.vertices:
            if u:
                mass *= theta.value(u[-1])
        assert mass == 0
        w = WeightSequence(theta.e)
        tree = PlaneTree([(), (1,), (2,), (3,)])
        omega = F(1)
        for u in tree.vertices:
            omega *= w[tree.children_count(u)]
        assert omega == 0


class TestSigmaRule:
    def test_two_of_three(self):
        assert sigma_rule(2, (3, 1, 2)) == (2, 1)

    def test_three_of_three(self):
        assert sigma_rule(3, (3, 1, 2)) == (3, 1, 2)

    def test_empty(self):
        assert sigma_rule(0, (3, 1, 2)) == ()

    def test_is_permutation(self):
        rng = random.Random(31)
        for _ in range(200):
            n = rng.randint(1, 6)
            seq = rng.sample(range(1, 20), n)
            k = rng.randint(0, n)
            perm = sigma_rule(k, seq)
            assert sorted(perm) == list(range(1, k + 1))


class TestSubtreeChain:
    def test_single_type_is_unary_path(self):
        trace = subtree_grow_chain(["1"], 4, seed=0)
        assert [len(t) for t in trace] == [1, 2, 3, 4]
        expected = RootedSubtree([(), (1,), (1, 1), (1, 1, 1)])
        assert trace[-1] == expected

    def test_deterministic(self):
        a = subtree_grow_chain(["1", "1"], 5, seed=99)
        b = subtree_grow_chain(["1", "1"], 5, seed=99)
        assert a == b

    def test_nested_one_leaf_steps(self):
        for seed in range(30):
            trace = subtree_grow_chain(["2", "1", "1"], 8, seed=seed)
            for small, big in zip(trace, trace[1:]):
                assert small.vertices < big.vertices
                (new,) = big.vertices - small.vertices
                assert new[:-1] in small.vertices
                assert big.children_count(new) == 0

    def test_letters_stay_in_support(self):
        trace = subtree_grow_chain(["1", "1"], 8, seed=3)
        for tau in trace:
            for u in tau.vertices:
                assert all(letter in (1, 2) for letter in u)

    def test_literal_shuffled_form_matches(self):
        # the direct embedding equals the unpacked shuffled decorated tree, every step
        for seed in range(20):
            chain = SubtreeChain(["2", "1"], horizon=7, seed=seed)
            while chain.n < 7:
                chain.step()
                assert literal_image(chain) == chain.subtree()

    def test_refuses_tables_of_another_theta(self):
        tables = compute_tables(WeightSequence(SummableTheta(["1", "1"]).e), 1, N=5)
        with pytest.raises(DomainError):
            SubtreeChain(["2", "1"], horizon=5, seed=0, tables=tables)
        assert SubtreeChain(["1", "1"], horizon=5, seed=0, tables=tables).w is tables.w

    def test_chains_of_one_theta_share_its_preparation(self, monkeypatch):
        # type weights given as a list are prepared once, not once per chain
        theta = ["5/7", "2/9", "1/11"]
        tables = compute_tables(WeightSequence(SummableTheta(theta).e), 1, N=6)
        built = []
        init = SummableTheta.__init__

        def counting(self, values):
            built.append(values)
            init(self, values)

        monkeypatch.setattr(SummableTheta, "__init__", counting)
        for seed in range(100):
            chain = SubtreeChain(theta, horizon=6, seed=seed, tables=tables)
            while chain.n < 6:
                chain.step()
        assert len(built) <= 1
        assert coerce_theta(["1/2", 1]) is coerce_theta([F(1, 2), "1"])
        for bad in (["1", "-1"], [1.0, 1], [[1], 1]):
            with pytest.raises(DomainError):
                SubtreeChain(bad, horizon=3, seed=0)

    def test_marginal_three_vertices(self):
        # 1e5 sampled chains; the law of the third state over the 5 subtrees
        theta = ["1", "1"]
        tables = compute_tables(WeightSequence(SummableTheta(theta).e), 1, N=3)
        law = {tau.vertices: m for tau, m in st_law(theta, 3).items()}
        assert len(law) == 5
        counts = {}
        n = 100_000
        for i in range(n):
            chain = SubtreeChain(theta, horizon=3, seed=derive_rng(17, "st", i).getrandbits(62),
                                 tables=tables)
            while chain.n < 3:
                chain.step()
            key = chain.subtree_key()
            counts[key] = counts.get(key, 0) + 1
        assert tv_distance(counts, n, law) < F(1, 100)

    def test_naive_coupling_is_not_monotone(self):
        # same marginals, but some step loses a vertex for some seed
        violated = False
        for seed in range(40):
            trace = naive_subtree_chain(["1", "1"], 7, seed=seed)
            for small, big in zip(trace, trace[1:]):
                if not small.vertices < big.vertices:
                    violated = True
                    break
            if violated:
                break
        assert violated


def identity_rule(tree, x, u):
    return tuple(range(1, tree.children_count(u) + 1))


def rank_rule(tree, x, u):
    return sigma_rule(tree.children_count(u), x[u])


def crooked_rule(tree, x, u):
    # reverses children when the decoration of the *absolute* first child is 'a';
    # inspecting a child through its absolute position breaks equivariance
    k = tree.children_count(u)
    if k >= 1 and x[u + (1,)] == "a":
        return tuple(range(k, 0, -1))
    return tuple(range(1, k + 1))


class TestShufflingRules:
    @staticmethod
    def xseq_instances(n_max=3):
        out = []
        symbols = [(1, 2), (2, 1)]
        for n in range(1, n_max + 1):
            for tree in enumerate_plane_trees(n):
                vertices = tree.sorted_vertices()
                for combo in itertools.product(symbols, repeat=len(vertices)):
                    out.append((tree, dict(zip(vertices, combo))))
        return out

    @staticmethod
    def symbol_instances(n_max=3):
        out = []
        for n in range(1, n_max + 1):
            for tree in enumerate_plane_trees(n):
                vertices = tree.sorted_vertices()
                for combo in itertools.product("ab", repeat=len(vertices)):
                    out.append((tree, dict(zip(vertices, combo))))
        return out

    def test_identity_rule_equivariant(self):
        report = check_equivariance(identity_rule, self.symbol_instances())
        assert report.ok

    def test_rank_rule_equivariant(self):
        report = check_equivariance(rank_rule, self.xseq_instances())
        assert report.ok

    def test_crooked_rule_detected(self):
        report = check_equivariance(crooked_rule, self.symbol_instances())
        assert not report.ok

    def test_identity_rule_invariance(self):
        w = WeightSequence([1, 2, 1])
        nu = {"a": F(1, 3), "b": F(2, 3)}
        assert shuffle_invariance_check(w, nu, identity_rule, 3).ok

    def test_rank_rule_invariance(self):
        w = WeightSequence([1, 2, 1])
        nu = {(1, 2): F(1, 2), (2, 1): F(1, 2)}
        report = shuffle_invariance_check(w, nu, rank_rule, 4)
        assert report.ok

    def test_rank_rule_invariance_biased(self):
        w = WeightSequence(SummableTheta(["2", "1"]).e)
        nu = dict(nested_coupling_law(["2", "1"]))
        report = shuffle_invariance_check(w, nu, rank_rule, 4)
        assert report.ok


def imported_modules(source: str):
    """The full name of every module an import in ``source`` reads, inside functions too."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["treegrow" if node.level else "", node.module or ""]))
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)   # from . import oracle


def test_subtree_model_imports_nothing_from_the_oracle():
    # oracle imports subtree_model, so an import the other way, even one deferred into a function, is a cycle
    source = Path(treegrow.subtree_model.__file__).read_text(encoding="utf-8")
    modules = set(imported_modules(source))
    assert "treegrow.sgtrees" in modules
    assert not {name for name in modules if name == "treegrow.oracle" or name.startswith("treegrow.oracle.")}
