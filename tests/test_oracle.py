import math
from fractions import Fraction as F

import numpy as np
import pytest

from treegrow.compositions import WeightPair
from treegrow.errors import DomainError, HorizonError
from treegrow.oracle import (comp_law, enumerate_plane_trees, enumerate_subtrees, goodness_of_fit,
                             janson_expectations, kernel_interchange_check, sg_law, st_law,
                             subset_law, tv_distance)
from treegrow.sgtrees import WeightSequence, compute_tables, growth_kernel_row
from treegrow.treespace import ROOT


def catalan(k):
    return math.comb(2 * k, k) // (k + 1)


class TestEnumeration:
    def test_single_tree(self):
        assert len(enumerate_plane_trees(1)) == 1

    def test_catalan_counts(self):
        for n in range(1, 8):
            assert len(enumerate_plane_trees(n)) == catalan(n - 1)

    def test_no_duplicates_canonical_order(self):
        trees = enumerate_plane_trees(6)
        assert len(set(trees)) == len(trees)
        keys = [sorted(t.vertices) for t in trees]
        assert keys == sorted(keys)

    def test_arith_counts_cross_checked(self):
        # all-even-degree trees at size 5: the two complete binary shapes plus
        # the 4-star; the count equals the tree mass for indicator weights on
        # even degrees, while weights (1,0,1) count only the degree<=2 support
        trees5 = enumerate_plane_trees(5, 2)
        assert len(trees5) == 3
        binary_support = [t for t in trees5 if all(t.children_count(u) <= 2 for u in t.vertices)]
        assert len(binary_support) == 2
        all_even = compute_tables(WeightSequence([1, 0, 1, 0, 1, 0, 1, 0, 1]), 2, N=9)
        degree_two = compute_tables(WeightSequence([1, 0, 1]), 2, N=9)
        for n in (1, 3, 5, 7, 9):
            trees = enumerate_plane_trees(n, 2)
            assert all_even.b_value(n) == len(trees)
            support = [t for t in trees
                       if all(t.children_count(u) <= 2 for u in t.vertices)]
            assert degree_two.b_value(n) == len(support)

    def test_wrong_residue_empty(self):
        assert enumerate_plane_trees(3, 3) == []
        assert enumerate_plane_trees(4, 3) != []  # 4 = 3 + 1 is a legal size

    def test_cap_refusal_mentions_estimate(self):
        with pytest.raises(HorizonError) as err:
            enumerate_plane_trees(11)
        assert "16796" in str(err.value)  # catalan(10)

    def test_subtree_counts(self):
        assert len(enumerate_subtrees(2, dmax=2)) == 2
        assert len(enumerate_subtrees(3, dmax=2)) == 5
        assert len(enumerate_subtrees(4, dmax=2)) == 14

    def test_subtree_counts_match_tree_masses(self):
        # the number of binary-position subtrees equals the tree mass for
        # offspring weights e(1,1) = (1, 2, 1)
        tables = compute_tables(WeightSequence([1, 2, 1]), 1, N=7)
        for n in range(1, 8):
            count = len(enumerate_subtrees(n, dmax=2, max_n=7))
            assert tables.b_value(n) == count

    def test_plane_counts_match_tree_masses(self):
        tables = compute_tables(WeightSequence([1] * 8), 1, N=7)
        for n in range(1, 8):
            assert tables.b_value(n) == len(enumerate_plane_trees(n))


class TestExactLaws:
    def test_sg_uniform(self):
        law = sg_law([1, 1, 1, 1], 1, 3)
        assert set(law.values()) == {F(1, 2)}

    def test_st_uniform(self):
        law = st_law(["1", "1"], 3)
        assert len(law) == 5 and set(law.values()) == {F(1, 5)}

    def test_subsets(self):
        law = subset_law(["2", "1"], 1)
        assert law == {frozenset({1}): F(2, 3), frozenset({2}): F(1, 3)}

    def test_comp(self):
        law = comp_law(WeightPair([1, 1, 1], [1, 1]), 2)
        assert law == {(2,): F(1, 2), (1, 1): F(1, 2)}

    def test_comp_past_b_horizon(self):
        # (6,), (1, 5) and (5, 1) need b_6 or b_5: refused, not dropped from the law
        with pytest.raises(HorizonError):
            comp_law(WeightPair([1, 2, 1], [1, 1, 1, 1]), 6)

    def test_st_refuses_negative_weights(self):
        # read through coerce_theta like SummableTheta: a negative weight is an error, not a zero
        with pytest.raises(DomainError):
            st_law(["-1", "1"], 2)

    def test_subsets_refuse_negative_weights(self):
        with pytest.raises(DomainError):
            subset_law(["-1", "1"], 1)


class TestJanson:
    def test_obstruction_values(self):
        e3, e4 = janson_expectations(F(1, 5))
        assert (e3, e4) == (F(9, 5), F(21, 13))
        assert e3 > e4

    def test_threshold_equality(self):
        e3, e4 = janson_expectations(F(1, 3))
        assert e3 == e4 == F(3, 2)

    def test_log_concave_side(self):
        e3, e4 = janson_expectations(F(1, 2))
        assert e3 <= e4

    def test_ordering_flips_exactly_at_one_third(self):
        for eps, expect_obstruction in ((F(1, 5), True), (F(1, 3), False), (F(1, 2), False)):
            e3, e4 = janson_expectations(eps)
            assert (e3 > e4) == expect_obstruction


class TestInterchangeHarness:
    def test_passes_on_true_kernel(self):
        w = WeightSequence([1] * 7)
        tables = compute_tables(w, 1, N=6)
        report = kernel_interchange_check(lambda t: growth_kernel_row(tables, t),
                                          sg_law(w, 1, 5), sg_law(w, 1, 6))
        assert report.ok

    def test_catches_corruption(self):
        w = WeightSequence([1] * 7)
        tables = compute_tables(w, 1, N=6)

        def corrupted(tree):
            row = dict(growth_kernel_row(tables, tree))
            if len(tree) == 5 and tree.children_count(ROOT) == 1:
                (first, *_rest) = sorted(row, key=lambda t: sorted(t.vertices))
                row[first] = row[first] / 2  # break one entry
            return row

        report = kernel_interchange_check(corrupted, sg_law(w, 1, 5), sg_law(w, 1, 6))
        assert not report.ok
        assert report.first_discrepancy is not None
        assert "pushed" in report.first_discrepancy


class TestGoodnessOfFit:
    def test_constant_samples_vs_uniform(self):
        law = {k: F(1, 5) for k in range(5)}
        counts = {0: 1000}
        report = goodness_of_fit(counts, law)
        assert report.tv == F(4, 5)

    def test_disjoint_support(self):
        law = {"a": F(1)}
        counts = {"b": 50}
        assert tv_distance(counts, 50, law) == 1

    def test_undersampled_flag(self):
        law = {k: F(1, 100) for k in range(100)}
        report = goodness_of_fit({0: 10}, law)
        assert report.undersampled and report.p_value is None

    def test_outside_support_fails(self):
        law = {0: F(1, 2), 1: F(1, 2)}
        counts = {0: 300, 1: 290, 2: 10}
        report = goodness_of_fit(counts, law)
        assert report.p_value == 0.0

    def test_calibration_battery(self):
        # 100 seeds of 1e5 exact-threshold draws from a 14-category law:
        # nearly every seed must clear the 0.001 p-value bar
        law = sg_law(WeightSequence([1] * 6), 1, 5)
        keys = sorted(law, key=lambda t: sorted(t.vertices))
        masses = [law[k] for k in keys]
        den = math.lcm(*[m.denominator for m in masses])
        cum = np.cumsum([int(m * den) for m in masses], dtype=np.int64)
        passes = 0
        n = 100_000
        for seed in range(100):
            rng = np.random.default_rng(987_000 + seed)
            draws = rng.integers(0, den, size=n)
            idx = np.searchsorted(cum, draws, side="right")
            binned = np.bincount(idx, minlength=len(keys))
            counts = {keys[i]: int(binned[i]) for i in range(len(keys))}
            report = goodness_of_fit(counts, law)
            if report.p_value > 0.001:
                passes += 1
        assert passes >= 99
