import copy
import pickle
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
import treegrow
import treegrow.compositions
from treegrow._rand import derive_rng
from treegrow.compositions import (PLAIN, ArithClass, CheckReport, PairTables, WeightPair,
                                   apply_move, as_fraction, check_admissibility_inequalities,
                                   check_ratio_chain, iter_compositions, move_rows, peel_partition_values,
                                   sample_composition_chain)
from treegrow.errors import DomainError, HorizonError, NotCoupleable, ZeroMassError
from treegrow.oracle import GofReport, InterchangeReport, tv_distance
from treegrow.sgtrees import LogConcavity, WeightSequence, compute_tables, is_log_concave

from helpers import comp_law, composition_kernel, covering_successors, satisfies_arith, shift

ONES = [F(1)] * 14


def tree_pair(w_entries, d=1, n_total=16):
    """The weight pair whose count weights are w and part weights the tree masses."""
    w = WeightSequence(w_entries)
    tables = compute_tables(w, d, N=n_total + 1)
    b = [tables.b_value(m) for m in range(1, n_total + 1)]
    return WeightPair(w.entries, b)


def coupled(low, high):
    """``move_rows`` of two integer step laws as Fractions, checked against the Fraction oracle."""
    zl, zh = sum(low.values()), sum(high.values())
    rows = {m: F(num, den) for m, (num, den) in move_rows(helpers.running_sums(low),
                                                          helpers.running_sums(high)).items()}
    oracle = helpers.monotone_move_probs({m: F(v, zl) for m, v in low.items()},
                                         {m: F(v, zh) for m, v in high.items()})
    assert rows == oracle
    return rows


class TestCoveringAndArith:
    def test_covering_d1(self):
        got = set(covering_successors((2, 1), 1))
        assert got == {(3, 1), (2, 2), (2, 1, 1)}

    def test_covering_empty(self):
        assert covering_successors((), 1) == [(1,)]

    def test_covering_d2(self):
        assert set(covering_successors((1,), 2)) == {(3,), (1, 1, 1)}

    def test_covering_totals(self):
        for c in iter_compositions(5):
            for c2 in covering_successors(c, 3):
                assert sum(c2) == 8

    def test_satisfies_arith(self):
        assert satisfies_arith((1, 1, 1), ArithClass(3, 0))
        assert satisfies_arith((4,), ArithClass(3, 1))
        assert not satisfies_arith((2, 1), ArithClass(3, 2))

    def test_covering_preserves_arith(self):
        cls = ArithClass(3, 0)
        for c in iter_compositions(6, cls):
            for c2 in covering_successors(c, 3):
                assert satisfies_arith(c2, cls)


@pytest.mark.parametrize("value, twin, other, text, frozen", [
    (ArithClass(3, 2), ArithClass(d=3, s=2), ArithClass(3, 1), "ArithClass(d=3, s=2)", True),
    (LogConcavity(False, 2), LogConcavity(ok=False, witness=2), LogConcavity(False), "LogConcavity(ok=False, witness=2)",
     True),
    (CheckReport("x", 1, [{"v": "1/2"}]), CheckReport(name="x", checked=1, failures=[{"v": "1/2"}]), CheckReport("x"),
     "CheckReport(name='x', checked=1, failures=[{'v': '1/2'}])", False),
    (InterchangeReport(True, 4), InterchangeReport(ok=True, states_checked=4, first_discrepancy=None),
     InterchangeReport(True, 5), "InterchangeReport(ok=True, states_checked=4, first_discrepancy=None)", False),
    (GofReport(9, 3, None, None, None, F(1, 3), True), GofReport(9, 3, None, None, None, F(1, 3), undersampled=True),
     GofReport(9, 3, None, None, None, F(1, 4), True),
     "GofReport(sample_size=9, categories=3, chi_square=None, dof=None, p_value=None, tv=Fraction(1, 3), "
     "undersampled=True)", False),
], ids=["ArithClass", "LogConcavity", "CheckReport", "InterchangeReport", "GofReport"])
def test_value_classes_compare_and_show_their_fields(value, twin, other, text, frozen):
    # plain __slots__ classes that keep what their dataclass forms gave: ==, repr, and hash only when frozen
    assert value == twin and value != other and value != value._fields() and repr(value) == text
    assert pickle.loads(pickle.dumps(value)) == value == copy.deepcopy(value)
    if frozen:
        assert hash(value) == hash(twin) and {value: 1}[twin] == 1
        with pytest.raises(AttributeError):
            setattr(value, value.__slots__[0], None)
    else:
        with pytest.raises(TypeError):
            hash(value)
        setattr(value, value.__slots__[0], None)
        assert value != twin


def test_check_reports_do_not_share_a_failure_list():
    one, two = CheckReport("a"), CheckReport("a")
    one.record(False, v=F(1, 2))
    assert one.failures == [{"v": "1/2"}] and two.failures == [] and two.ok and not one.ok


class TestPartitionFunction:
    def test_z0_is_one_for_unit_a0(self):
        wp = WeightPair(ONES, ONES)
        assert PairTables(wp, total_horizon=0).partition_value(0, 0) == 1

    def test_catalan_b_example(self):
        # oracle: direct sum over the four compositions of 3
        wp = WeightPair(ONES, [1, 1, 2, 5, 14])
        direct = F(0)
        for c in iter_compositions(3):
            m = wp.a[len(c)]
            for p in c:
                m *= wp.b[p]
            direct += m
        assert direct == 5
        assert PairTables(wp, total_horizon=3).partition_value(0, 3) == direct

    def test_zero_mass_residue(self):
        b = [F(1), F(0), F(1), F(0), F(1)]  # supported on 1, 3, 5
        wp = WeightPair([0, 1], b)
        tables = PairTables(wp, ArithClass(2, 1), total_horizon=3)
        assert tables.partition_value(0, 2) == 0
        assert tables.partition_value(0, 3) == 1

    def test_matches_enumeration(self):
        wp = tree_pair(ONES)
        tables = PairTables(wp, total_horizon=8)
        for n in range(0, 9):
            direct = F(0)
            for c in iter_compositions(n):
                m = wp.a[len(c)]
                for p in c:
                    m *= wp.b[p]
                direct += m
            assert tables.partition_value(0, n) == direct


@st.composite
def residue_peels(draw):
    """Count weights on one residue class s mod d, part weights on 1 mod d (or the tree masses), a total."""
    d = draw(st.integers(1, 3))
    tree_masses = draw(st.booleans())
    s = 0 if tree_masses else draw(st.integers(0, d - 1))
    a = [0] * draw(st.integers(1, 9))
    for ell in range(s, len(a), d):
        a[ell] = draw(st.integers(0, 4))
    T = draw(st.integers(0, 16))
    if tree_masses:
        return a, T, None, d
    b = [draw(st.integers(0, 4)) if (m - 1) % d == 0 else 0 for m in range(T + 1)]
    return a, T, b.__getitem__, d


@settings(max_examples=200, deadline=None)
@given(case=residue_peels())
@example(case=([1, 0, 2, 0, 1], 12, None, 2))
@example(case=([0, 3, 0, 0, 1], 10, [0, 1, 0, 0, 2, 0, 0, 1, 0, 0, 5].__getitem__, 3))
def test_residue_peel_skips_only_zero_entries(case):
    # d = 1 runs the sum at every entry; at d > 1 the entries it skips are zero
    a, T, b, d = case
    assert peel_partition_values(a, T, b, d) == peel_partition_values(a, T, b, 1)


@st.composite
def peels_with_empty_lowest_shifts(draw):
    """Count weights on a class s mod d that vanish on its lowest shifts, part weights on 1 mod d, kept sums or none."""
    d = draw(st.integers(1, 3))
    s = draw(st.integers(0, d - 1))
    a = [0] * draw(st.integers(1, 14))
    for ell in range(s + d * draw(st.integers(1, 4)), len(a), d):
        a[ell] = draw(st.integers(0, 4))
    T = draw(st.integers(0, 16))
    b = [draw(st.integers(0, 4)) if (m - 1) % d == 0 else 0 for m in range(T + 1)]
    return a, T, b.__getitem__, d, draw(st.integers(0, len(a)))


@settings(max_examples=300, deadline=None)
@given(case=peels_with_empty_lowest_shifts())
@example(case=([0] * 9 + [1], 9, [0, 1, 0, 2, 0, 3, 0, 4, 0, 5].__getitem__, 2, 10))   # a forest peel
@example(case=([0, 0, 0, 0, 1], 6, [0, 1, 1, 1, 1, 1, 1].__getitem__, 1, 5))
@example(case=([0, 0, 0], 4, [0, 1, 1, 1, 1].__getitem__, 1, 3))                      # no count weight at all
@example(case=([0, 0, 0, 1, 0], 12, [0, 1, 0, 2, 0, 3, 0, 1, 0, 2, 0, 3, 0].__getitem__, 2, 3))  # R - 2 kept at odd t
def test_bounded_peel_matches_the_unbounded_sums(case):
    # Z_{ell+1} without mass at its low totals: same values, same kept running sums, each cut at its last mass
    a, T, b, d, kept = case
    sums, ref_sums = ([[None] * (T + 1) for _ in range(kept)] for _ in range(2))
    z = peel_partition_values(a, T, b, d, sums)
    assert z == helpers.unbounded_peel(a, T, b, d, ref_sums)
    assert sums == ref_sums
    assert all(sums[ell][t] == [0] for ell in range(kept) for t in range(1, T + 1)
               if sums[ell][t] is not None and z[ell][t] == 0)


@st.composite
def top_shift_peels(draw):
    """Count weights ending at a positive a_R, zero or not at R - 1 and R - 2 on their class, part weights, kept sums.

    Tree masses need the count weights on multiples of d; given part weights
    lie on 1 mod d.  Sums are kept at the lowest 0 to R + 1 shifts, so at
    every shift, R - 1 and R - 2 included, in some draws.
    """
    d = draw(st.integers(1, 3))
    tree_masses = draw(st.booleans())
    R = d * draw(st.integers(0, 8 // d)) if tree_masses else draw(st.integers(0, 8))
    a = [0] * (R + 1)
    for ell in range(R % d, R, d):
        a[ell] = draw(st.integers(0, 4) | st.just(0))
    a[R] = draw(st.integers(1, 4))
    T = draw(st.integers(0, 40))
    b = None if tree_masses else [draw(st.integers(0, 4)) if (m - 1) % d == 0 else 0 for m in range(T + 1)].__getitem__
    return a, T, b, d, draw(st.integers(0, R + 1))


@settings(max_examples=300, deadline=None)
@given(case=top_shift_peels())
@example(case=([2, 3], 8, None, 1, 0))                                    # R = 1: no shift R - 2
@example(case=([2, 3], 8, None, 1, 2))
@example(case=([1, 2, 3], 9, [0, 1, 2, 0, 3, 1, 4, 2, 1, 3].__getitem__, 1, 0))   # R = 2: no shift R - 3
@example(case=([1, 0, 2], 9, None, 2, 3))
@example(case=([1, 2, 0, 3], 10, None, 1, 0))      # a_{R-1} = 0 at d = 1: the slice of shift R - 2 stops above 0
@example(case=([1, 2, 0, 3], 10, None, 1, 4))
@example(case=([1, 1, 1], 40, None, 1, 2))          # the kept shifts of the grow workloads: R - 2 among them
@example(case=([1, 3, 3, 1], 40, None, 1, 2))
@example(case=([24, 26, 9, 1], 40, None, 1, 2))
@example(case=([1, 0, 2, 0, 1], 40, None, 2, 3))    # sums kept at R - 2 for d = 2 and d = 3
@example(case=([2, 0, 0, 1], 40, None, 3, 2))
@example(case=([1, 0, 0, 2, 0, 0, 3], 40, [1 + m % 5 if m % 3 == 1 else 0 for m in range(41)].__getitem__, 3, 5))
def test_top_shifts_read_off_b_match_the_unbounded_sums(case):
    # Z_{R-1} in closed form and Z_{R-2} from mirrored pairs: the same values and kept running sums
    a, T, b, d, kept = case
    sums, ref_sums = ([[None] * (T + 1) for _ in range(kept)] for _ in range(2))
    assert peel_partition_values(a, T, b, d, sums) == helpers.unbounded_peel(a, T, b, d, ref_sums)
    assert sums == ref_sums


class TestResiduePeelRefusals:
    def test_count_weights_on_two_residues(self):
        with pytest.raises(DomainError, match="one residue class mod 2"):
            peel_partition_values([1, 1, 1], 6, None, 2)

    def test_part_weight_off_one_mod_d(self):
        b = [0, 1, 0, 1, 1, 0, 0]  # b_3 != 0 with d = 3
        with pytest.raises(DomainError, match=r"off 1 mod 3 \(b_3 "):
            peel_partition_values([1, 0, 0, 1], 6, b.__getitem__, 3)


class TestCompDistribution:
    def test_two_compositions(self):
        wp = WeightPair(ONES, ONES)
        assert comp_law(wp, 2) == {(2,): F(1, 2), (1, 1): F(1, 2)}

    def test_empty(self):
        wp = WeightPair(ONES, ONES)
        assert comp_law(wp, 0) == {(): F(1)}

    def test_single_part_support(self):
        wp = WeightPair([1, 1], [F(j, 7) for j in range(1, 9)])
        assert comp_law(wp, 5) == {(5,): F(1)}

    def test_split_identity(self):
        # mass factorizes through the first part and the shifted remainder
        wp = tree_pair(ONES)
        tables = PairTables(wp, total_horizon=8)
        wp_shift = shift(wp, 1)
        for n in range(1, 9):
            law = comp_law(wp, n)
            mu = helpers.first_part_law(tables, 0, n)
            for c, mass in law.items():
                first, rest = c[0], c[1:]
                rest_law = comp_law(wp_shift, n - first)
                assert mass == mu[first - 1] * rest_law[rest]


class TestFirstPartLaw:
    # laws of the first part minus 1, at shift 0
    def test_mu3(self):
        tables = PairTables(tree_pair(ONES), total_horizon=3)
        assert helpers.first_part_law(tables, 0, 3) == {0: F(2, 5), 1: F(1, 5), 2: F(2, 5)}

    def test_mu4(self):
        tables = PairTables(tree_pair(ONES), total_horizon=4)
        assert helpers.first_part_law(tables, 0, 4) == {0: F(5, 14), 1: F(1, 7), 2: F(1, 7), 3: F(5, 14)}

    def test_against_grouped_distribution(self):
        wp = tree_pair([1, 2, 1])
        tables = PairTables(wp, total_horizon=8)
        for n in range(1, 9):
            law = comp_law(wp, n)
            grouped = {}
            for c, mass in law.items():
                grouped[c[0] - 1] = grouped.get(c[0] - 1, F(0)) + mass
            assert helpers.first_part_law(tables, 0, n) == grouped

    def test_single_part_support(self):
        wp = WeightPair([1, 1], [F(1)] * 10)
        assert helpers.first_part_law(PairTables(wp, total_horizon=7), 0, 7) == {6: F(1)}

    def test_no_mass_at_total(self):
        wp = WeightPair([0, 1], [F(1), F(0), F(1)])
        tables = PairTables(wp, ArithClass(2, 1), total_horizon=2)
        with pytest.raises(ZeroMassError):
            helpers.first_part_law(tables, 0, 2)


class TestMonotoneStepKernel:
    def test_spec_overlap_value(self):
        tables = PairTables(tree_pair(ONES), total_horizon=4)
        assert F(*tables.step_probs(0, 3)[0]) == F(3, 28)

    def test_deterministic_shift(self):
        assert coupled({0: 1}, {1: 1}) == {0: F(1)}

    def test_identity_case(self):
        assert coupled({0: 1}, {0: 1}) == {0: F(0)}

    def test_pushforward_recovers_target(self):
        tables = PairTables(tree_pair(ONES), total_horizon=9)
        for n in range(1, 9):
            mu_n = helpers.first_part_law(tables, 0, n)
            mu_n1 = helpers.first_part_law(tables, 0, n + 1)
            row = tables.step_probs(0, n)
            pushed = {}
            for m, mass in mu_n.items():
                q = F(*row[m])
                pushed[m] = pushed.get(m, F(0)) + mass * (1 - q)
                pushed[m + 1] = pushed.get(m + 1, F(0)) + mass * q
            pushed = {m: p for m, p in pushed.items() if p}
            assert pushed == mu_n1

    def test_not_coupleable(self):
        # 1/2, 1/2 against 9/10, 1/20, 1/20: the upper law outweighs the lower at 0
        with pytest.raises(NotCoupleable) as err:
            move_rows([1, 2], [18, 19, 20])
        assert err.value.witness == 0
        with pytest.raises(NotCoupleable) as err:
            helpers.monotone_move_probs({0: F(1, 2), 1: F(1, 2)}, {0: F(9, 10), 1: F(1, 20), 2: F(1, 20)})
        assert err.value.witness == 0


class TestCompositionKernel:
    def test_base_case(self):
        tables = PairTables(tree_pair(ONES), total_horizon=1)
        assert composition_kernel(tables, ()) == {(1,): F(1)}

    def test_row_at_one(self):
        tables = PairTables(tree_pair(ONES), total_horizon=2)
        row = composition_kernel(tables, (1,))
        q = helpers.monotone_move_probs(helpers.first_part_law(tables, 0, 1),
                                        helpers.first_part_law(tables, 0, 2))[0]
        assert row == {(2,): q, (1, 1): 1 - q}

    def test_rows_sum_to_one_and_cover(self):
        wp = tree_pair([1, 3, 3, 1])
        tables = PairTables(wp, total_horizon=7)
        for n in range(0, 7):
            for c in comp_law(wp, n):
                row = composition_kernel(tables, c)
                assert sum(row.values()) == 1
                assert set(row) <= set(covering_successors(c, 1))

    @pytest.mark.parametrize("entries", [ONES, [1, 3, 3, 1], [1, 1, 1, 1, 1]])
    def test_interchange_d1(self, entries):
        wp = tree_pair(entries)
        tables = PairTables(wp, total_horizon=8)
        for n in range(0, 8):
            law = comp_law(wp, n)
            target = comp_law(wp, n + 1)
            pushed = {}
            for c, mass in law.items():
                for c2, p in composition_kernel(tables, c).items():
                    pushed[c2] = pushed.get(c2, F(0)) + mass * p
            pushed = {c: m for c, m in pushed.items() if m}
            assert pushed == target

    @pytest.mark.parametrize("entries,d", [([1, 0, 1], 2), ([2, 0, 0, 1], 3)])
    def test_interchange_arithmetic(self, entries, d):
        cls = ArithClass(d, 0)
        wp = tree_pair(entries, d=d)
        tables = PairTables(wp, cls, total_horizon=9)
        n = 0
        while n + d <= 9:
            law = comp_law(wp, n, cls)
            target = comp_law(wp, n + d, cls)
            pushed = {}
            for c, mass in law.items():
                for c2, p in composition_kernel(tables, c).items():
                    pushed[c2] = pushed.get(c2, F(0)) + mass * p
            pushed = {c: m for c, m in pushed.items() if m}
            assert pushed == target
            n += d

    def test_move_law(self):
        tables = PairTables(tree_pair([1, 3, 3, 1]), total_horizon=8)
        law = tables.kernel_row(4, (1, 3))
        assert set(law) <= {("inc", 0), ("inc", 1), ("append", 2)} and sum(F(*p) for p in law.values()) == 1
        # parts that do not sum to the total, and a fourth part past the end of the shift ladder
        for t, parts in [(3, (1, 1)), (4, (1, 1, 1, 1))]:
            with pytest.raises(DomainError):
                tables.kernel_row(t, parts)

    def test_arith_row_support(self):
        cls = ArithClass(2, 0)
        tables = PairTables(tree_pair([1, 0, 1], d=2), cls, total_horizon=4)
        row = composition_kernel(tables, (1, 1))
        assert set(row) <= {(3, 1), (1, 3), (1, 1, 1, 1)}
        assert sum(row.values()) == 1


class TestOrderEquivalence:
    @staticmethod
    def brute_leq(c, c2, d):
        # reachability through covering moves
        if sum(c2) < sum(c) or (sum(c2) - sum(c)) % d:
            return False
        frontier = {c}
        while frontier and sum(next(iter(frontier))) < sum(c2):
            frontier = {nxt for cc in frontier for nxt in covering_successors(cc, d)}
        return c2 in frontier

    @staticmethod
    def recursive_leq(c, c2, d):
        if not c:
            return len(c2) % d == 0 and all(p % d == 1 % d for p in c2)
        if not c2:
            return False
        return (c[0] <= c2[0] and (c2[0] - c[0]) % d == 0
                and TestOrderEquivalence.recursive_leq(c[1:], c2[1:], d))

    def test_d1_equivalence(self):
        comps = [c for n in range(0, 7) for c in iter_compositions(n)]
        for c in comps:
            for c2 in comps:
                assert self.brute_leq(c, c2, 1) == self.recursive_leq(c, c2, 1)

    def test_d2_equivalence(self):
        cls = ArithClass(2, 0)
        comps = [c for n in range(0, 9, 2) for c in iter_compositions(n, cls)]
        for c in comps:
            for c2 in comps:
                assert self.brute_leq(c, c2, 2) == self.recursive_leq(c, c2, 2)


class TestAdmissibility:
    def test_all_ones_holds(self):
        wp = tree_pair(ONES, n_total=26)
        report = check_admissibility_inequalities(wp, PLAIN, N=10)
        assert report.ok and report.checked > 0

    def test_janson_fails(self):
        wp = tree_pair(["2/5", "1/5", "2/5"], n_total=26)
        report = check_admissibility_inequalities(wp, PLAIN, N=10)
        assert not report.ok
        first = report.failures[0]
        assert first["n"] == 0  # the n = 0 chain already requires log-concavity of the weights

    def test_builds_tables_without_kept_sums(self, monkeypatch):
        # the check reads no step row, so the peel keeps no running sums for it
        wp, init, built = tree_pair(ONES, n_total=26), treegrow.compositions.PartitionKernel.__init__, []
        monkeypatch.setattr(treegrow.compositions.PartitionKernel, "__init__",
                            lambda self, *args: built.append(args[-1]) or init(self, *args))
        assert check_admissibility_inequalities(wp, PLAIN, N=10).ok
        assert built == [False]

    def test_single_part_vacuous(self):
        wp = WeightPair([1, 1], [F(j) for j in range(1, 30)])  # deliberately wild b
        report = check_admissibility_inequalities(wp, PLAIN, N=10)
        assert report.ok and report.checked == 0

    def test_arithmetic_holds(self):
        wp = tree_pair([1, 0, 1], d=2, n_total=24)
        report = check_admissibility_inequalities(wp, ArithClass(2, 0), N=5)
        assert report.ok

    def test_lower_endpoint_identity(self):
        # generic part weights, not tree masses: at the last shift only
        # single-part compositions carry mass, so Z(t) = a_R b_t there
        wp = WeightPair([2, 3, 1], [F(1), F(5, 2), F(1, 3), F(7), F(2, 9), F(4)])
        tables = PairTables(wp, PLAIN, total_horizon=6)
        for n in range(1, 5):
            # the ratio at the last shift, ell = 1
            assert tables.partition_value(1, n + 1) / tables.partition_value(1, n) == wp.b[n + 1] / wp.b[n]
        report = check_ratio_chain(tables, 4)
        assert not [f for f in report.failures if f.get("kind") == "lower-endpoint"]
        # the partition values are built; from here the endpoints read b_2 doubled, so the
        # last ratio falls below the lower endpoint at n = 1 and exceeds it at n = 2
        tables._b[2] *= 2
        report = check_ratio_chain(tables, 4)
        assert [f["n"] for f in report.failures if f.get("kind") == "lower-endpoint"] == [1, 2]


WEIGHT = st.sampled_from([0, 1, 2, 3, 7, F(1, 2), F(2, 3), F(5, 7)])
POSITIVE = st.sampled_from([1, 2, 3, 7, F(1, 2), F(2, 3), F(5, 7)])


def on_multiples(progression, d):
    """Weights ``w`` with ``w_{id}`` the i-th entry of the progression and zeros between."""
    w = [0] * ((len(progression) - 1) * d + 1)
    w[::d] = progression
    return w


def assert_ratio_chain_matches_reference(tables, n_max):
    """``check_ratio_chain`` gives the report of the Fraction reference, or raises the error it raises."""
    try:
        want = helpers.ratio_chain_reference(tables, n_max)
    except (ZeroMassError, HorizonError) as exc:
        with pytest.raises(DomainError) as got:
            check_ratio_chain(tables, n_max)
        assert type(got.value) is type(exc) and got.value.args == exc.args
        return
    assert check_ratio_chain(tables, n_max).as_dict() == want


class TestRatioChainOnIntegers:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 3), POSITIVE, POSITIVE, st.lists(WEIGHT, max_size=3), st.integers(1, 8),
           st.integers(0, 2))
    @example(1, 1, 1, [1], 6, 0)              # geometric: consecutive ratios tie
    @example(1, F(2, 5), F(1, 5), [F(2, 5)], 6, 0)  # Janson's law: the chain fails at n = 0
    @example(2, 1, 1, [0, 1], 4, 0)           # an internal zero: a vanishing partition value
    def test_tree_tables_match_the_fraction_reference(self, d, w0, wd, rest, n_max, extra):
        # tables reaching exactly total (n_max + 1) d + 1, or a little further
        w = on_multiples([w0, wd, *rest], d)
        assert_ratio_chain_matches_reference(compute_tables(w, d, N=(n_max + 1) * d + 1 + extra), n_max)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 3), POSITIVE, POSITIVE, st.lists(WEIGHT, max_size=3), st.integers(1, 8),
           st.integers(0, 2), st.integers(0, 6))
    @example(1, 1, 1, [1, 1], 4, 0, 0)        # truncated at w_5: the read of Z_2(4) at n = 3 is refused
    @example(3, 1, 2, [1], 3, 1, 1)           # truncated at w_14: Z_3(12) at n = 3, s = 0, is refused first
    @example(2, 1, 1, [0, 1], 4, 0, 0)        # an internal zero: the vanishing value comes first, at n = 0
    def test_truncated_tree_tables_match_the_fraction_reference(self, d, w0, wd, rest, n_max, extra, beyond):
        # weights declared up to index N - 1 or beyond (N - 1 at least): a ratio that reads a weight past
        # the declared horizon raises HorizonError, at the same first read as the reference
        entries = on_multiples([w0, wd, *rest], d)
        N = (n_max + 1) * d + 1 + extra
        w = WeightSequence(entries, horizon=max(N - 1, len(entries) - 1) + beyond)
        assert_ratio_chain_matches_reference(compute_tables(w, d, N=N), n_max)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 2), st.lists(POSITIVE, min_size=2, max_size=5),
           st.lists(POSITIVE, min_size=16, max_size=16), st.integers(1, 6))
    def test_pair_tables_match_the_fraction_reference(self, d, a, b_entries, n_max):
        top = (n_max + 1) * d + 1
        b = [b_entries[m % 16] if m % d == 1 % d else 0 for m in range(1, top + 1)]
        tables = PairTables(WeightPair(on_multiples(a, d), b), ArithClass(d, 0), total_horizon=top)
        assert_ratio_chain_matches_reference(tables, n_max)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_tables_short_of_the_last_part_weight_raise_horizon_error(self, d):
        # the chain to n_max reads b up to total (n_max + 1) d + 1; tables one total short
        # hold every ratio but not that part weight
        n_max, w = 3, on_multiples([1, 2, 1], d)
        short = (n_max + 1) * d
        b = [1 if m % d == 1 % d else 0 for m in range(1, short + 3)]
        for tables in (compute_tables(w, d, N=short),
                       PairTables(WeightPair(w, b), ArithClass(d, 0), total_horizon=short)):
            with pytest.raises(HorizonError, match="past the tables"):
                check_ratio_chain(tables, n_max)
            assert check_ratio_chain(tables, n_max - 1).checked > 0


def refused_by_the_d1_rule(wp):
    """The separate d = 1 rule that ``check_nondegenerate`` kept before its general rule served d = 1."""
    support = wp.a.support()
    return (wp.a[0] == 0 or wp.a[1] == 0
            or support != list(range(support[-1] + 1))
            or any(wp.b[m] == 0 for m in range(1, wp.b.horizon + 1)))


class TestNondegenerate:
    @given(st.lists(st.sampled_from([0, 0, 1, F(1, 2), 3]), min_size=1, max_size=6),
           st.lists(st.sampled_from([0, 1, F(2, 3)]), max_size=6))
    @example([1, 0, 1], [1, 1])     # internal zero in a
    @example([1, 1, 0, 2], [1])     # internal zero past a_1
    @example([1, 1], [1, 0, 1])     # b_2 = 0
    @example([0, 1], [1])           # a_0 = 0
    @example([1], [1])              # support {0}
    @example([0, 0], [1])           # a identically zero
    @example([1, 1], [])            # no part weights
    @settings(max_examples=300, deadline=None)
    def test_plain_class_refuses_as_the_d1_rule(self, a, b):
        try:
            wp = WeightPair(a, b)
        except DomainError:
            assert not any(a) or not any(b)
            return
        assert any(a) and any(b)
        assert wp.b[0] == 0 and [wp.b[m] for m in range(1, len(b) + 1)] == b
        with pytest.raises(HorizonError):
            wp.b[len(b) + 1]
        try:
            wp.check_nondegenerate(PLAIN)
        except DomainError:
            assert refused_by_the_d1_rule(wp)
        else:
            assert not refused_by_the_d1_rule(wp)


class TestShift:
    def test_basic(self):
        wp = WeightPair([1, 2, 3], ONES)
        assert shift(wp, 1).a.entries == (F(2), F(3))

    def test_identity(self):
        wp = WeightPair([1, 2, 3], ONES)
        assert shift(wp, 0) is wp

    def test_degenerate(self):
        wp = WeightPair([1, 1], ONES)
        with pytest.raises(DomainError):
            shift(wp, 1)


class TestChainSampling:
    def test_forced_start(self):
        wp = tree_pair(ONES)
        chain = sample_composition_chain(wp, PLAIN, 3, derive_rng(0, "chain"))
        assert chain[0] == () and chain[1] == (1,)
        for a, b in zip(chain, chain[1:]):
            assert b in covering_successors(a, 1)

    def test_d2_forced_start(self):
        wp = tree_pair([1, 0, 1], d=2)
        chain = sample_composition_chain(wp, ArithClass(2, 0), 6, derive_rng(0, "chain"))
        assert chain[0] == () and chain[1] == (1, 1)
        for a, b in zip(chain, chain[1:]):
            assert b in covering_successors(a, 2)

    def test_deterministic(self):
        wp = tree_pair([1, 3, 3, 1])
        one = sample_composition_chain(wp, PLAIN, 9, derive_rng(7, "chain"))
        two = sample_composition_chain(wp, PLAIN, 9, derive_rng(7, "chain"))
        assert one == two

    def test_refuses_tables_of_another_pair_or_class(self):
        # on b's tables, a's chain would end at (6, 2), b's end state; its own ends at (7, 1)
        a, b = WeightPair([1, 1, 1], [1] * 9), WeightPair([1, 3, 1], [1] * 9)
        assert sample_composition_chain(a, PLAIN, 8, random.Random(3))[-1] == (7, 1)
        assert sample_composition_chain(a, PLAIN, 8, random.Random(3), tables=PairTables(a))[-1] == (7, 1)
        with pytest.raises(DomainError):
            sample_composition_chain(a, PLAIN, 8, random.Random(3), tables=PairTables(b))
        wp = WeightPair([0, 1], [1, 0])  # non-degenerate for (d, s) = (2, 1) and (3, 1)
        assert sample_composition_chain(wp, ArithClass(2, 1), 1, random.Random(3)) == [(1,)]
        with pytest.raises(DomainError):
            sample_composition_chain(wp, ArithClass(2, 1), 1, random.Random(3),
                                     tables=PairTables(wp, ArithClass(3, 1)))

    @pytest.mark.parametrize("b_len, supplied, message", [
        (5, None, "pair tables to total 12 need b up to 12, have 5"),
        (12, 5, "the chain to total 12 reaches total 12, past the tables' horizon 5"),
    ], ids=["built", "supplied"])
    def test_refuses_tables_short_of_the_last_total(self, b_len, supplied, message):
        # tables to total 5 cannot take the chain to 12: refused before the first step, no bit drawn
        wp = WeightPair([1, 2, 1], [1] * b_len)
        tables = None if supplied is None else PairTables(wp, total_horizon=supplied)
        rng = derive_rng(0, "chain")
        state = rng.getstate()
        with pytest.raises(HorizonError, match=message):
            sample_composition_chain(wp, PLAIN, 12, rng, tables=tables)
        assert rng.getstate() == state

    def test_tables_to_the_last_total_suffice(self):
        # with d = 2 the chain to 9 ends at total 8, so tables to 8 take it there and tables to 7 do not
        wp = tree_pair([1, 0, 1], d=2)
        cls = ArithClass(2, 0)
        assert sum(sample_composition_chain(wp, cls, 9, random.Random(3),
                                            tables=PairTables(wp, cls, total_horizon=8))[-1]) == 8
        with pytest.raises(HorizonError, match="reaches total 8, past the tables' horizon 7"):
            sample_composition_chain(wp, cls, 9, random.Random(3), tables=PairTables(wp, cls, total_horizon=7))

    def test_marginal_tv(self):
        # empirical law of the total-4 state over 1e5 chains vs the exact law
        wp = tree_pair(ONES)
        tables = PairTables(wp, PLAIN, total_horizon=5)
        counts = {}
        n_chains = 100_000
        for i in range(n_chains):
            chain = sample_composition_chain(wp, PLAIN, 4, derive_rng(11, "tv", i), tables=tables)
            key = chain[-1]
            counts[key] = counts.get(key, 0) + 1
        law = comp_law(wp, 4)
        assert tv_distance(counts, n_chains, law) < F(1, 100)


class TestHorizonsAndErrors:
    def test_b_horizon(self):
        b = WeightPair([1, 1], [1, 1, 2]).b
        assert b[3] == 2
        with pytest.raises(HorizonError, match="^weight 4 requested beyond declared truncation horizon 3$"):
            b[4]

    @pytest.mark.parametrize("a, b", [([1, 1], [-1]), ([1, -1], [1])], ids=["part", "count"])
    def test_pair_refusals_name_no_offspring(self, a, b):
        with pytest.raises(DomainError, match="^weights must be non-negative$"):
            WeightPair(a, b)

    def test_one_weight_sequence_type(self):
        assert treegrow.WeightSequence is WeightSequence is treegrow.compositions.WeightSequence

    def test_weight_sequence_iterates_its_entries(self):
        # iterated by index, a sequence would read zeros past its entries forever
        ws = WeightSequence([1, 2, 1], horizon=4)
        assert list(ws) == list(ws.entries)
        assert is_log_concave(ws) == is_log_concave(ws.entries)
        assert WeightSequence(ws) == ws  # a copy keeps the truncation
        assert WeightPair(WeightSequence([1, 1]), [1, 1]) == WeightPair([1, 1], [1, 1])

    def test_float_rejected(self):
        with pytest.raises(DomainError):
            as_fraction(0.4)

    def test_zero_mass_distribution(self):
        b = [F(1), F(0), F(1)]
        wp = WeightPair([0, 1], b)
        with pytest.raises(ZeroMassError):
            comp_law(wp, 2, ArithClass(2, 1))

    def test_kernel_requires_matching_total(self):
        # the total is read from c: the tables must reach it, and c must lie in their class
        wp = tree_pair(ONES)
        with pytest.raises(HorizonError):
            composition_kernel(PairTables(wp, total_horizon=4), (2, 2))
        cls = ArithClass(2, 0)
        tables = PairTables(tree_pair([1, 0, 1], d=2), cls, total_horizon=6)
        for c in [(2, 1), (1, 1, 1)]:
            with pytest.raises(DomainError):
                composition_kernel(tables, c)

    @given(st.integers(0, 6))
    @settings(max_examples=20, deadline=None)
    def test_apply_move_totals(self, n):
        rng = random.Random(n)
        comps = list(iter_compositions(n))
        c = rng.choice(comps)
        for j in range(len(c)):
            assert sum(apply_move(c, ("inc", j), 1)) == n + 1
        assert sum(apply_move(c, ("append", len(c)), 2)) == n + 2
