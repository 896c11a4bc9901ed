import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from treegrow._rand import derive_rng
from treegrow.compositions import iter_compositions
from treegrow.errors import DomainError, HorizonError, Refused, ZeroMassError
from treegrow.oracle import enumerate_plane_trees, sg_law, tv_distance
from treegrow.sgtrees import (GrowthChain, WeightSequence, check_ratio_chain, check_tp2_array,
                              compute_tables, forest_array, grow_chain, growth_kernel_row, is_log_concave,
                              tilt)
from treegrow.treespace import (PlaneTree, is_bouquet_addition, is_right_leaning_leaf_addition)

ONES8 = WeightSequence([1] * 9)
JANSON = WeightSequence(["2/5", "1/5", "2/5"])


class TestLogConcavity:
    def test_binomials(self):
        assert is_log_concave([1, 3, 3, 1]).ok

    def test_janson_weights(self):
        res = is_log_concave(["2/5", "1/5", "2/5"])
        assert not res.ok and res.witness == 1

    def test_internal_zero(self):
        res = is_log_concave([1, 0, 1])
        assert not res.ok and res.witness == 1

    def test_internal_zero_with_flat_inequalities(self):
        res = is_log_concave([1, 0, 0, 1])
        assert not res.ok and res.witness == 1

    def test_trailing_zeros_fine(self):
        assert is_log_concave([1, 2, 1, 0, 0]).ok


class TestToeplitz:
    # the brute-force Toeplitz oracle of is_log_concave, on explicit sequences
    def test_all_ones(self):
        assert helpers.toeplitz_tp2([1] * 6, window=5)

    def test_binomial(self):
        assert helpers.toeplitz_tp2([1, 2, 1], window=4)

    def test_internal_zeros_fail(self):
        assert not helpers.toeplitz_tp2([1, 0, 0, 1], window=4)

    def test_short_window_misses_a_late_violation(self):
        # x_8^2 < x_7 x_9: no minor inside a window of 8 reaches index 9
        x = [1] * 9 + [2, 1]
        assert helpers.toeplitz_tp2(x, window=8)
        assert not helpers.toeplitz_tp2(x, window=len(x) + 1)
        assert is_log_concave(x).witness == 8


sequence_entry = st.just(F(0)) | st.integers(1, 3).map(F) | st.fractions(min_value=F(1, 4), max_value=4,
                                                                         max_denominator=4)


@settings(max_examples=200, deadline=None)
@given(st.lists(sequence_entry, min_size=1, max_size=8))
def test_log_concave_iff_toeplitz_tp2(x):
    # Karlin: a non-negative sequence is log-concave without internal zeros iff its Toeplitz matrix is TP2
    assert is_log_concave(x).ok == helpers.toeplitz_tp2(x, window=len(x) + 1)


class TestTilt:
    def test_identity(self):
        w = WeightSequence([1, 2, 3])
        assert tilt(w, 1, 1) == w

    def test_geometric(self):
        assert tilt(WeightSequence([1, 1, 1]), 1, 2).entries == (F(1), F(2), F(4))

    def test_law_invariance(self):
        w = WeightSequence([1, 1, 1, 1, 1, 1])
        w2 = tilt(w, F(2, 3), F(5, 7))
        for n in range(1, 7):
            assert sg_law(w, 1, n) == sg_law(w2, 1, n)

    def test_kernel_invariance(self):
        w = WeightSequence([1, 2, 1])
        w2 = tilt(w, F(3), F(1, 2))
        t1 = compute_tables(w, 1, N=6)
        t2 = compute_tables(w2, 1, N=6)
        for n in range(1, 6):
            for tree in enumerate_plane_trees(n):
                if all(tree.children_count(u) <= 2 for u in tree.vertices):
                    assert growth_kernel_row(t1, tree) == growth_kernel_row(t2, tree)


class TestTables:
    def test_catalan(self):
        tables = compute_tables(ONES8, 1, N=7)
        assert [tables.b_value(n) for n in range(1, 8)] == [1, 1, 2, 5, 14, 42, 132]

    def test_b_matches_enumeration(self):
        w = WeightSequence([1, 3, 3, 1])
        tables = compute_tables(w, 1, N=7)
        for n in range(1, 8):
            total = F(0)
            for tree in enumerate_plane_trees(n):
                mass = F(1)
                for u in tree.vertices:
                    mass *= w[tree.children_count(u)]
                total += mass
            assert tables.b_value(n) == total

    def test_forest_recursion_example(self):
        f = forest_array(ONES8, 4)
        assert f[3][2] == 2
        assert f[3][2] == f[2][1] + f[2][2] + f[2][3]

    def test_forest_values_match_composition_sums(self):
        w = WeightSequence([1, 2, 1])
        tables = compute_tables(w, 1, N=9)
        f = forest_array(w, 8)
        for t in range(1, 9):
            for k in range(1, t + 1):
                direct = F(0)
                for c in iter_compositions(t):
                    if len(c) != k:
                        continue
                    m = F(1)
                    for p in c:
                        m *= tables.b_value(p)
                    direct += m
                assert f[t][k] == direct

    def test_b_consistency(self):
        w = WeightSequence([1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1])
        tables = compute_tables(w, 1, N=10)
        f = forest_array(w, 9)
        for n in range(0, 10):
            assert tables.b_value(n + 1) == sum(w[k] * f[n][k] for k in range(n + 1))

    def test_arithmetic_binary(self):
        tables = compute_tables(WeightSequence([1, 0, 1]), 2, N=9)
        assert [tables.b_value(n) for n in (1, 3, 5, 7, 9)] == [1, 1, 2, 5, 14]

    def test_arithmetic_matches_enumeration(self):
        w = WeightSequence([2, 0, 0, 1])
        tables = compute_tables(w, 3, N=10)
        for n in (1, 4, 7, 10):
            total = F(0)
            for tree in enumerate_plane_trees(n, 3):
                mass = F(1)
                for u in tree.vertices:
                    mass *= w[tree.children_count(u)]
                total += mass
            assert tables.b_value(n) == total

    @given(d=st.integers(1, 3), data=st.data(), N=st.integers(1, 9))
    @settings(max_examples=40, deadline=None)
    def test_recursion_matches_enumeration(self, d, data, N):
        # random d-arithmetic weights of radius <= 4 with w_0 w_d > 0
        positive = st.fractions(min_value=F(1, 3), max_value=4, max_denominator=3)
        entries = [F(0)] * 5
        for i in range(0, 5, d):
            entries[i] = data.draw(positive if i in (0, d) else positive | st.just(F(0)))
        w = WeightSequence(entries)
        tables = compute_tables(w, d, N=N)
        for n in range(1, N + 1):
            assert tables.b_value(n) == helpers.tree_mass_sum(w, n, d)
        for ell in range(tables.r + 2):
            for t in range(N):
                assert tables.partition_value(ell, t) == helpers.composition_sum(w, tables.b_value, ell, t)

    def test_horizon_exceeded(self):
        w = WeightSequence([1] * 6, horizon=5)
        with pytest.raises(HorizonError):
            compute_tables(w, 1, N=8)
        tables = compute_tables(w, 1, N=6)  # within the truncation
        assert tables.partition_value(0, 5) == 42
        with pytest.raises(HorizonError):
            tables.partition_value(1, 5)  # needs w_6, past the truncation

    def test_degenerate_weights(self):
        with pytest.raises(DomainError):
            compute_tables(WeightSequence([1, 0, 1]), 1, N=5)  # w_1 = 0 with d = 1
        with pytest.raises(DomainError):
            compute_tables(WeightSequence([1, 1]), 2, N=5)  # not 2-arithmetic


class TestSgDistribution:
    def test_two_trees(self):
        law = sg_law(ONES8, 1, 3)
        assert set(law.values()) == {F(1, 2)}

    def test_binary_uniform(self):
        law = sg_law(WeightSequence([1, 0, 1]), 2, 5)
        assert len(law) == 2 and set(law.values()) == {F(1, 2)}

    def test_root_only(self):
        law = sg_law(WeightSequence([1, 2]), 1, 1)
        assert law == {PlaneTree([()]): F(1)}

    def test_wrong_residue(self):
        with pytest.raises(ZeroMassError):
            sg_law(WeightSequence([1, 0, 1]), 2, 4)


class TestInequalitySuites:
    @pytest.mark.parametrize("entries,d,n_max", [
        ([1] * 24, 1, 20),
        ([1, 3, 3, 1], 1, 20),
        ([1, 1, 1, 1, 1], 1, 20),
        ([1, 0, 1], 2, 10),
        ([2, 0, 0, 1], 3, 10),
    ])
    def test_ratio_chain_log_concave(self, entries, d, n_max):
        w = WeightSequence(entries)
        tables = compute_tables(w, d, N=(n_max + 2) * d + 1)
        report = check_ratio_chain(tables, n_max=n_max)
        assert report.ok, report.failures[:3]

    def test_ratio_chain_degenerate_length_one(self):
        w = WeightSequence([1, 1])
        tables = compute_tables(w, 1, N=23)
        report = check_ratio_chain(tables, n_max=20)
        assert report.ok

    def test_tp2_all_ones(self):
        tables = compute_tables(WeightSequence([1] * 12), 1, N=11)
        assert check_tp2_array(tables, N=10).ok

    def test_tp2_binomial(self):
        tables = compute_tables(WeightSequence([1, 3, 3, 1]), 1, N=11)
        assert check_tp2_array(tables, N=10).ok

    def test_tp2_spot_value(self):
        f = forest_array(ONES8, 4)
        lhs = f[2][1] * f[3][2]
        rhs = f[2][2] * f[3][1]
        assert lhs == rhs == 2

    def test_tp2_arithmetic(self):
        tables = compute_tables(WeightSequence([1, 0, 1]), 2, N=21)
        assert check_tp2_array(tables).ok


class TestGrowthKernel:
    def test_forced_first_step(self):
        tables = compute_tables(ONES8, 1, N=3)
        row = growth_kernel_row(tables, PlaneTree([()]))
        assert row == {PlaneTree([(), (1,)]): F(1)}

    def test_two_vertex_row(self):
        tables = compute_tables(ONES8, 1, N=3)
        row = growth_kernel_row(tables, PlaneTree([(), (1,)]))
        assert row == {PlaneTree([(), (1,), (1, 1)]): F(1, 2),
                       PlaneTree([(), (1,), (2,)]): F(1, 2)}

    def test_binary_cherry_row(self):
        tables = compute_tables(WeightSequence([1, 0, 1]), 2, N=5)
        row = growth_kernel_row(tables, PlaneTree([(), (1,), (2,)]))
        assert row == {PlaneTree([(), (1,), (2,), (1, 1), (1, 2)]): F(1, 2),
                       PlaneTree([(), (1,), (2,), (2, 1), (2, 2)]): F(1, 2)}

    def test_rows_leave_no_state_on_the_tables(self):
        # only the step rows compiled on first use may grow
        tables = compute_tables(ONES8, 1, N=9)

        def sizes():
            return {name: len(value) for name, value in vars(tables).items()
                    if hasattr(value, "__len__") and name != "_step_memo"}

        built = sizes()
        for n in range(1, 9):
            for tree in enumerate_plane_trees(n):
                growth_kernel_row(tables, tree)
        assert tables._step_memo and sizes() == built

    @pytest.mark.parametrize("entries,d,top", [
        ([1] * 8, 1, 6), ([1, 3, 3, 1], 1, 6), ([1, 0, 1], 2, 7), ([2, 0, 0, 1], 3, 7),
    ])
    def test_interchange(self, entries, d, top):
        w = WeightSequence(entries)
        tables = compute_tables(w, d, N=top + d)
        n = 1
        while n + d <= top + d:
            law_lo = sg_law(w, d, n)
            law_hi = sg_law(w, d, n + d)
            pushed = {}
            for tree, mass in law_lo.items():
                for tree2, p in growth_kernel_row(tables, tree).items():
                    pushed[tree2] = pushed.get(tree2, F(0)) + mass * p
            pushed = {t: m for t, m in pushed.items() if m}
            assert pushed == law_hi
            n += d

    def test_kernel_support_is_right_leaning(self):
        tables = compute_tables(ONES8, 1, N=7)
        for n in range(1, 6):
            for tree in enumerate_plane_trees(n):
                for tree2, p in growth_kernel_row(tables, tree).items():
                    if p:
                        assert is_right_leaning_leaf_addition(tree, tree2)

    def test_bouquet_support(self):
        w = WeightSequence([1, 0, 1])
        tables = compute_tables(w, 2, N=9)
        for n in (1, 3, 5):
            for tree in enumerate_plane_trees(n, 2):
                if any(w[tree.children_count(u)] == 0 for u in tree.vertices):
                    continue  # outside the support of the law
                for tree2, p in growth_kernel_row(tables, tree).items():
                    if p:
                        assert is_bouquet_addition(tree, tree2, 2)


class TestGrowthChain:
    def test_janson_refused(self):
        with pytest.raises(Refused) as err:
            GrowthChain(JANSON, horizon=5, rng=random.Random(0))
        assert err.value.witness == 1

    @pytest.mark.parametrize("w, d, witness", [
        (JANSON, 1, 1),
        (WeightSequence(["1", "0", "1/10", "0", "1"]), 2, 1),
    ], ids=["janson", "arithmetic"])
    def test_supplied_tables_refuse_alike(self, w, d, witness):
        # the tables carry the verdict; a chain on them refuses as one without them
        tables = compute_tables(w, d, N=5)
        assert not tables.log_concave
        for supplied in (None, tables):
            with pytest.raises(Refused) as err:
                GrowthChain(w, d, horizon=5, rng=random.Random(0), tables=supplied)
            assert err.value.witness == witness

    def test_deterministic_per_seed(self):
        w = WeightSequence([1] * 10)
        one = grow_chain(w, 1, 9, derive_rng(3, "chain"))
        two = grow_chain(w, 1, 9, derive_rng(3, "chain"))
        assert one == two
        other = grow_chain(w, 1, 9, derive_rng(4, "chain"))
        assert len(other) == len(one)

    def test_nested_and_right_leaning(self):
        w = WeightSequence([1, 3, 3, 1])
        trees = grow_chain(w, 1, 10, derive_rng(5, "chain"))
        assert [len(t) for t in trees] == list(range(1, 11))
        for a, b in zip(trees, trees[1:]):
            assert is_right_leaning_leaf_addition(a, b)

    def test_bouquet_chain(self):
        w = WeightSequence([1, 0, 1])
        trees = grow_chain(w, 2, 11, derive_rng(6, "chain"))
        assert [len(t) for t in trees] == [1, 3, 5, 7, 9, 11]
        for a, b in zip(trees, trees[1:]):
            assert is_bouquet_addition(a, b, 2)

    @pytest.mark.parametrize("entries", [[1, 3, 3, 1], [1, 2, 1]])
    def test_refuses_tables_of_other_weights(self, entries):
        # the chain samples from its tables: tables for 1,3,3,1 would plant
        # degree-3 vertices, which have no mass under 1,1,1
        with pytest.raises(DomainError):
            GrowthChain(WeightSequence([1, 1, 1]), horizon=5, rng=random.Random(0),
                        tables=compute_tables(WeightSequence(entries), 1, N=5))

    def test_horizon_stop(self):
        chain = GrowthChain(ONES8, horizon=4, rng=random.Random(0))
        chain.run()
        with pytest.raises(HorizonError):
            chain.step()

    def test_step_records_have_probabilities(self):
        chain = GrowthChain(ONES8, horizon=6, rng=derive_rng(9, "chain"))
        for record in chain.run():
            assert 0 < record.prob <= 1

    def test_marginal_t5(self):
        # 1e5 chains; the empirical law of the 5-vertex tree vs the exact law
        w = WeightSequence([1] * 6)
        tables = compute_tables(w, 1, N=5)
        counts = {}
        n_chains = 100_000
        for i in range(n_chains):
            chain = GrowthChain(w, horizon=5, rng=derive_rng(12, "t5", i), tables=tables)
            while chain.n < 5:
                chain.step()
            key = chain.tree_key()
            counts[key] = counts.get(key, 0) + 1
        law = {tree.vertices: mass for tree, mass in sg_law(w, 1, 5).items()}
        assert tv_distance(counts, n_chains, law) < F(1, 100)
