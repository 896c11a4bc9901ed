import itertools
import math
import operator
import random
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

import helpers
import treegrow.sgtrees
from treegrow._rand import derive_rng
from treegrow.compositions import cleared, iter_compositions
from treegrow.errors import DomainError, HorizonError, Refused, ZeroMassError
from treegrow.oracle import enumerate_plane_trees, sg_law, tv_distance
from treegrow.sgtrees import (GrowthChain, WeightSequence, check_ratio_chain, check_tp2_array,
                              compute_tables, grow_chain, growth_kernel, growth_kernel_row, growth_word_row,
                              is_log_concave, tilt)
from treegrow.treespace import (PlaneTree, child_count_word, from_child_count_word, is_bouquet_addition,
                                is_right_leaning_leaf_addition)

ONES8 = WeightSequence([1] * 9)
JANSON = WeightSequence(["2/5", "1/5", "2/5"])
# binomial, truncated Poisson and truncated geometric offspring weights
LOG_CONCAVE = [(1, 3, 3, 1), (1, 4, 6, 4, 1), (1, 1, F(1, 2), F(1, 6), F(1, 24)), (1, 1, 1)]
# non-increasing ratios w_i / w_(i-1) make a log-concave sequence
LOG_CONCAVE_DRAWN = st.lists(st.fractions(min_value=F(1, 5), max_value=5, max_denominator=5),
                             min_size=1, max_size=4).map(
    lambda ratios: tuple(itertools.accumulate(sorted(ratios, reverse=True), operator.mul, initial=F(1))))


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
        rows1 = growth_kernel(compute_tables(w, 1, N=6))
        rows2 = growth_kernel(compute_tables(w2, 1, N=6))
        for n in range(1, 6):
            for tree in enumerate_plane_trees(n):
                if all(tree.children_count(u) <= 2 for u in tree.vertices):
                    assert helpers.growth_law(rows1, tree) == helpers.growth_law(rows2, tree)


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
        f = helpers.forest_fractions(ONES8, 4)
        assert f[3][2] == 2
        assert f[3][2] == f[2][1] + f[2][2] + f[2][3]

    def test_forest_values_match_composition_sums(self):
        w = WeightSequence([1, 2, 1])
        tables = compute_tables(w, 1, N=9)
        f = helpers.forest_fractions(w, 8)
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
        f = helpers.forest_fractions(w, 9)
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

    def test_b_value_outside_the_sizes_refused(self):
        tables = compute_tables(WeightSequence([1, 3, 3, 1]), 1, N=6)
        with pytest.raises(DomainError, match="tree sizes start at 1"):
            tables.b_value(0)
        with pytest.raises(HorizonError, match="b_7 beyond the vertex horizon 6"):
            tables.b_value(7)

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
        assert check_tp2_array(WeightSequence([1] * 12), 1, 11).ok

    def test_tp2_binomial(self):
        assert check_tp2_array(WeightSequence([1, 3, 3, 1]), 1, 11).ok

    def test_tp2_spot_value(self):
        f = helpers.forest_fractions(ONES8, 4)
        lhs = f[2][1] * f[3][2]
        rhs = f[2][2] * f[3][1]
        assert lhs == rhs == 2

    def test_tp2_arithmetic(self):
        assert check_tp2_array(WeightSequence([1, 0, 1]), 2, 21).ok

    @pytest.mark.parametrize("w, d, N", [
        ([1, 1, 1], 2, 5),                          # weights off the multiples of d
        ([1, 0, 1], 1, 5), ([0, 0, 1], 2, 5),       # w_0 w_d = 0
        (WeightSequence([1, 1], horizon=3), 1, 6),  # truncated before w_(N-1)
        ([1, 1], 0, 5), ([1, 1], 1, 0),             # d or N below 1
    ], ids=["off-multiples", "w_d-zero", "w_0-zero", "truncated", "d-0", "N-0"])
    def test_tp2_refuses_as_the_tables_do(self, w, d, N):
        # the forest arrays build no tables, yet refuse the weights with the tables' type and text
        with pytest.raises(DomainError) as want:
            compute_tables(w, d, N=N)
        with pytest.raises(DomainError) as got:
            check_tp2_array(w, d, N)
        assert type(got.value) is type(want.value) and got.value.args == want.value.args


tp2_entry = st.sampled_from([F(1, 10), F(1, 7), F(1, 3), F(2, 5), F(1, 2), F(1), F(3, 2), F(3), F(4)])


@st.composite
def tp2_weights(draw):
    """d-arithmetic weights of radius <= 4 with w_0 w_d > 0, fractional, log-concave or not."""
    d = draw(st.integers(1, 3))
    entries = [F(0)] * 5
    for i in range(0, 5, d):
        entries[i] = draw(tp2_entry if i in (0, d) else tp2_entry | st.just(F(0)))
    return entries, d


FAILING_TP2 = [([1, 1, 3, 1], 1), (["2/5", "1/5", "2/5"], 1), ([1, 0, "1/10", 0, 1], 2),
               (["1/2", "1/3", "1/7", "1/11"], 1)]


def counting_ratios_rise(monkeypatch):
    """The list of the arguments of each ``sgtrees.ratios_rise`` scan from here on."""
    scan, calls = treegrow.sgtrees.ratios_rise, []

    def counted(*args):
        calls.append(args)
        return scan(*args)

    monkeypatch.setattr(treegrow.sgtrees, "ratios_rise", counted)
    return calls


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(wd=tp2_weights(), horizon=st.integers(1, 30))
# the failing inputs of the verify tp2 suite, at its default --n-max 10
@example(wd=FAILING_TP2[0], horizon=11)
@example(wd=FAILING_TP2[1], horizon=11)
@example(wd=FAILING_TP2[2], horizon=11)
@example(wd=FAILING_TP2[3], horizon=11)
def test_tp2_minors_match_the_fraction_brute_force(wd, horizon, monkeypatch):
    # integer minors at a common scale: same count, same failures in the same order, same exact sides
    w, d = WeightSequence(wd[0]), wd[1]
    with monkeypatch.context() as patch:
        calls = counting_ratios_rise(patch)
        report = check_tp2_array(w, d, horizon).as_dict()
    assert report == helpers.tp2_brute_force(w, d, horizon)
    # size rows per array: adjacent rows decide a log-concave input, and a failing one, such as the
    # pinned inputs, scans every pair of rows of an array
    size = (horizon - 1) // d + (d > 1)
    if is_log_concave(w.progression(d)):
        assert len(calls) == d * max(size - 1, 0)
    if not report["ok"]:
        assert len(calls) >= size * (size + 1) // 2


def test_adjacent_rows_decide_a_staircase():
    # forest-like rows whose ratios rise: the adjacent scans decide, and no minor fails
    F_ = [[1, 0, 0, 0], [1, 1, 0, 0], [1, 2, 1, 0], [1, 3, 3, 1]]
    assert treegrow.sgtrees.adjacent_rows_decide(F_, 0)
    assert list(treegrow.sgtrees.failing_minors(F_, 0)) == []


@pytest.mark.parametrize("F_, low", [
    ([[0, 2, 2], [0, 0, 0], [0, 3, 2]], 0),                       # a zero row hides a falling pair
    ([[7, 7, 7, 7], [7, 1, 2, 2], [7, 0, 0, 0], [7, 1, 3, 1]], 1),   # the same after an unchecked row and column
    ([[1, 1, 1], [1, 0, 1], [1, 1, 1]], 0),                       # a zero inside one row fails both its scans
    ([[0, 1, 1], [1, 1, 1]], 0),                                  # a left end that decreases fails its scan
    ([[1, 1, 0], [1, 1, 1], [1, 1, 0]], 0),                       # so does a right end
    ([[1, 2], [2, 1]], 0),                                        # falling ratios
], ids=["zero-row", "zero-row-low-1", "internal-zero", "left-ends-fall", "right-ends-fall", "falling-ratios"])
def test_arrays_off_the_lemma_scan_every_row_pair(F_, low, monkeypatch):
    assert not treegrow.sgtrees.adjacent_rows_decide(F_, low)
    calls = counting_ratios_rise(monkeypatch)
    failures = list(treegrow.sgtrees.failing_minors(F_, low))
    assert failures == [minor for minor in helpers.array_minors(F_, low) if minor[4] < minor[5]] != []
    size = len(F_) - low
    assert len(calls) >= size * (size + 1) // 2


@st.composite
def arrays_without_empty_rows(draw):
    """Non-negative int arrays of 2-5 rows and 1-5 columns, zeros anywhere but no row empty from row and column low on."""
    low = draw(st.integers(0, 1))
    size, width = draw(st.integers(2 + low, 5)), draw(st.integers(1 + low, 5))
    entry = st.integers(0, 4) | st.just(0)
    F_ = [draw(st.lists(entry, min_size=width, max_size=width)) for _ in range(size)]
    for row in F_[low:]:
        if not any(row[low:]):
            row[draw(st.integers(low, width - 1))] = draw(st.integers(1, 4))
    return F_, low


@settings(max_examples=400, deadline=None)
@given(case=arrays_without_empty_rows())
@example(case=([[1, 0, 1], [1, 0, 2], [1, 0, 3]], 0))           # a zero column inside every row
@example(case=([[1, 1, 0], [1, 2, 1], [0, 1, 1]], 0))           # both ends move right
@example(case=([[2, 1, 0, 0], [1, 1, 1, 0], [0, 1, 2, 1]], 0))  # a window that shrinks and moves
@example(case=([[5, 0, 0], [9, 1, 0], [9, 1, 2]], 1))           # rising ratios after an unchecked row and column
def test_adjacent_rows_decide_every_pair_without_an_empty_row(case):
    F_, low = case
    every_pair = all(treegrow.sgtrees.ratios_rise(F_[n], F_[n2], low)
                     for n in range(low, len(F_)) for n2 in range(n, len(F_)))
    assert treegrow.sgtrees.adjacent_rows_decide(F_, low) == every_pair


@st.composite
def row_pairs(draw):
    """Two non-negative int rows of one length <= 8, zeros anywhere, and the first column checked."""
    size = draw(st.integers(1, 8))
    entry = st.integers(0, 6) | st.just(0)
    return draw(st.lists(entry, min_size=size, max_size=size)), \
        draw(st.lists(entry, min_size=size, max_size=size)), draw(st.integers(0, 1))


@settings(max_examples=500, deadline=None)
@given(pair=row_pairs())
@example(pair=([0, 0, 1, 2], [0, 0, 1, 3], 0))        # leading zeros in both rows
@example(pair=([1, 1, 2], [0, 1, 2], 0))              # leading zero of y alone: no minor meets it
@example(pair=([0, 1, 2], [1, 1, 2], 0))              # leading zero of x alone, under a positive y
@example(pair=([1, 2, 0, 0], [1, 3, 0, 0], 0))        # trailing zeros in both rows
@example(pair=([1, 2, 0], [1, 3, 1], 0))              # trailing zero of x alone: no minor meets it
@example(pair=([1, 2, 1], [1, 3, 0], 0))              # trailing zero of y alone, after a positive x
@example(pair=([1, 0, 2], [1, 1, 3], 0))              # internal zero of x alone
@example(pair=([1, 1, 1], [1, 0, 1], 0))              # internal zero of y alone
@example(pair=([1, 0, 2], [1, 0, 3], 0))              # a column of two zeros between rising ratios
@example(pair=([1, 0, 2], [2, 0, 3], 0))              # a column of two zeros between falling ratios
@example(pair=([0, 1, 0], [0, 0, 1], 0))              # first y column after the last x column
@example(pair=([1, 1], [5, 1], 1))                    # falling ratios in the unchecked first column
@example(pair=([2, 1], [0, 1], 1))                    # exactly one zero in the unchecked first column
def test_row_pair_scan_matches_every_minor(pair):
    x, y, low = pair
    assert treegrow.sgtrees.ratios_rise(x, y, low) == helpers.pair_minors_nonnegative(x, y, low)


def cleared_forest_arrays(w, d, top):
    """``sgtrees.forest_arrays`` of the weights ``w``, and the ``L`` that clears them."""
    L, u = cleared(w.progression(d))
    return L, treegrow.sgtrees.forest_arrays(u, d, top)


@pytest.mark.parametrize("w, d", [([1, 3, 3, 1], 1), (["1/2", "1/3", "1/7"], 1), ([1, 0, "2/3", 0, "1/5"], 2),
                                  ([2, 0, 0, 1], 3), (["1/3", 0, 0, "1/2", 0, 0, 1], 3)])
@pytest.mark.parametrize("horizon", [1, 2, 7, 13])
def test_tp2_arrays_are_the_scaled_forest_fractions(w, d, horizon):
    # F_s[n][k] = L^(nd+s) f(nd + s, kd + s) for every n, k <= top, also where nd + s passes the
    # vertex horizon (horizon 1 with d = 3 reads the forests of 2 vertices)
    w, top = WeightSequence(w), (horizon - 1) // d
    L, arrays = cleared_forest_arrays(w, d, top)
    f = helpers.forest_fractions(w, top * d + d - 1)
    assert arrays == [[[f[n * d + s][k * d + s] * L ** (n * d + s) for k in range(top + 1)] for n in range(top + 1)]
                      for s in range(d)]


@settings(max_examples=100, deadline=None)
@given(wd=tp2_weights(), T=st.integers(0, 40))
# slots wider than the weights: L = 42 and L = 1000, so (L w)(1)^T has hundreds of bits
@example(wd=([F(1, 2), F(1, 3), F(1, 7)], 1), T=40)
@example(wd=([1, F(1, 1000), 0, 0, 1], 1), T=40)
def test_packed_powers_give_the_forest_peel(wd, T):
    # every forest count from the packed powers is the peel's with count weights e_T and the tree masses
    # as part weights, z[T - k][t] = L^t f(t, k); the arrays stop at the last full level below T + 1
    w, d = WeightSequence(wd[0]), wd[1]
    top = (T + 1) // d - 1
    assume(top >= 0)
    _, arrays = cleared_forest_arrays(w, d, top)
    z = helpers.forest_peel(w, d, top * d + d - 1)
    assert arrays == [[[z[top * d + d - 1 - k * d - s][n * d + s] for k in range(top + 1)] for n in range(top + 1)]
                      for s in range(d)]


class TestGrowthKernel:
    def test_forced_first_step(self):
        tables = compute_tables(ONES8, 1, N=3)
        row = growth_kernel_row(tables, PlaneTree([()]))
        assert row == {frozenset({(), (1,)}): (1, 1)}  # a certain move multiplies no pair

    def test_two_vertex_row(self):
        rows = growth_kernel(compute_tables(ONES8, 1, N=3))
        row = helpers.growth_law(rows, PlaneTree([(), (1,)]))
        assert row == {PlaneTree([(), (1,), (1, 1)]): F(1, 2),
                       PlaneTree([(), (1,), (2,)]): F(1, 2)}

    def test_binary_cherry_row(self):
        rows = growth_kernel(compute_tables(WeightSequence([1, 0, 1]), 2, N=5))
        row = helpers.growth_law(rows, PlaneTree([(), (1,), (2,)]))
        assert row == {PlaneTree([(), (1,), (2,), (1, 1), (1, 2)]): F(1, 2),
                       PlaneTree([(), (1,), (2,), (2, 1), (2, 2)]): F(1, 2)}

    def test_rows_leave_no_state_on_the_tables(self):
        # only the step rows and the decisions of the walk, each formed on first use, may grow
        tables = compute_tables(ONES8, 1, N=9)

        def sizes():
            return {name: len(value) for name, value in vars(tables).items()
                    if hasattr(value, "__len__") and name not in ("_step_memo", "_decisions")}

        built = sizes()
        for n in range(1, 9):
            for tree in enumerate_plane_trees(n):
                growth_kernel_row(tables, tree)
        assert tables._step_memo and tables._decisions and sizes() == built

    @pytest.mark.parametrize("entries,d", [([1] * 9, 1), ([1, 0, 1, 0, 1, 0, 1, 0, 1], 2), ([1, 0, 0, 1, 0, 0, 1], 3),
                                           ([1, 3, 3, 1], 1)])
    def test_row_function_gives_the_rows(self, entries, d):
        """Rows spliced from memoized subtree rows are the stack walk's: the same pairs in the same target order.

        A tree with a degree past the radius of w is refused by both, with the same message.
        """
        tables = compute_tables(WeightSequence(entries), d, N=9 + d)
        rows = growth_kernel(tables)

        def outcome(row_of, word):
            try:
                return list(row_of(word).items())
            except DomainError as exc:
                return str(exc)

        for n in range(1, 10, d):
            for tree in enumerate_plane_trees(n, d):
                word = child_count_word(tree)
                expected = outcome(lambda word: helpers.reference_word_row(tables, word), word)
                assert outcome(rows, word) == expected
                assert outcome(lambda word: growth_word_row(tables, word), word) == expected
                pushed = {}
                assert outcome(lambda word: rows.push(word, 1, pushed) or pushed, word) == expected

    def test_row_functions_share_no_memo(self, monkeypatch):
        tables = compute_tables(ONES8, 1, N=9)
        compiled = []
        kernel_row = tables.kernel_row
        monkeypatch.setattr(tables, "kernel_row", lambda t, parts: compiled.append(t) or kernel_row(t, parts))
        first, second = growth_kernel(tables), growth_kernel(tables)
        word = child_count_word(PlaneTree([(), (1,), (2,), (1, 1), (2, 1), (2, 2)]))
        row = first(word)
        once = len(compiled)
        assert once > 0 and first(word) == row and len(compiled) == once  # first compiled every law it reads
        assert second(word) == row and len(compiled) == 2 * once  # second compiles them again

    @pytest.mark.parametrize("entries,d,top", [
        ([1] * 8, 1, 6), ([1, 3, 3, 1], 1, 6), ([1, 0, 1], 2, 7), ([2, 0, 0, 1], 3, 7),
    ])
    def test_interchange(self, entries, d, top):
        w = WeightSequence(entries)
        rows = growth_kernel(compute_tables(w, d, N=top + d))
        n = 1
        while n + d <= top + d:
            law_lo = sg_law(w, d, n)
            law_hi = sg_law(w, d, n + d)
            pushed = {}
            for tree, mass in law_lo.items():
                for tree2, p in helpers.growth_law(rows, tree).items():
                    pushed[tree2] = pushed.get(tree2, F(0)) + mass * p
            pushed = {t: m for t, m in pushed.items() if m}
            assert pushed == law_hi
            n += d

    def test_kernel_support_is_right_leaning(self):
        rows = growth_kernel(compute_tables(ONES8, 1, N=7))
        for n in range(1, 6):
            for tree in enumerate_plane_trees(n):
                for tree2, p in helpers.growth_law(rows, tree).items():
                    if p:
                        assert is_right_leaning_leaf_addition(tree, tree2)

    def test_bouquet_support(self):
        w = WeightSequence([1, 0, 1])
        rows = growth_kernel(compute_tables(w, 2, N=9))
        for n in (1, 3, 5):
            for tree in enumerate_plane_trees(n, 2):
                if any(w[tree.children_count(u)] == 0 for u in tree.vertices):
                    continue  # outside the support of the law
                for tree2, p in helpers.growth_law(rows, tree).items():
                    if p:
                        assert is_bouquet_addition(tree, tree2, 2)


@st.composite
def drawn_trees(draw):
    """A tree with mass under all-ones weights on the multiples of d in {1, 2, 3}, of at most 10 vertices."""
    d = draw(st.sampled_from([1, 2, 3]))
    trees = enumerate_plane_trees(draw(st.sampled_from(range(1, 10 - d + 1, d))), d)
    return d, trees[draw(st.integers(0, len(trees) - 1))]


@settings(max_examples=150, deadline=None)
@given(drawn_trees())
def test_word_row_is_the_tree_row(case):
    """Each target of the word row is a bouquet addition of the tree, with the pair of the tree row."""
    d, tree = case
    word = child_count_word(tree)
    assert from_child_count_word(word) == tree and child_count_word(from_child_count_word(word)) == word
    tables = compute_tables(WeightSequence([1] + ([0] * (d - 1) + [1]) * 9), d, N=len(tree) + d)
    word_row, tree_row = growth_word_row(tables, word), growth_kernel_row(tables, tree)
    assert len(word_row) == len(tree_row) and sum(F(*pair) for pair in word_row.values()) == 1
    for target, pair in word_row.items():
        bigger = PlaneTree(from_child_count_word(target).vertices)  # through the checked constructor
        assert child_count_word(bigger) == target and is_bouquet_addition(tree, bigger, d)
        assert tree_row[bigger.vertices] == pair


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

    def test_supplied_tables_shorter_than_the_horizon_refused(self):
        w = WeightSequence([1, 3, 3, 1])
        tables = compute_tables(w, 1, N=5)
        assert GrowthChain(w, horizon=5, rng=random.Random(0), tables=tables).horizon == 5
        with pytest.raises(HorizonError, match="supplied tables stop before the requested horizon"):
            GrowthChain(w, horizon=6, rng=random.Random(0), tables=tables)

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

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(st.sampled_from(LOG_CONCAVE), LOG_CONCAVE_DRAWN), st.integers(1, 3), st.integers(2, 60),
           st.integers(0, 2 ** 32))
    @example((1, 1, 1), 1, 60, 0)
    def test_prob_is_the_left_to_right_product(self, progression, d, n, seed):
        w = [0] * ((len(progression) - 1) * d + 1)
        w[::d] = progression
        chain = GrowthChain(WeightSequence(w), d=d, horizon=n, rng=derive_rng(seed, "chain"))
        steps = chain.run()
        for step in steps:
            before = list(step.factors)
            prob = step.prob
            assert type(prob) is F and prob == helpers.left_to_right_prob(before)
            assert prob.denominator > 0 and math.gcd(prob.numerator, prob.denominator) == 1
            assert step.factors == before and all(a is b for a, b in zip(step.factors, before))

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
