import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from treegrow._rand import derive_rng
from treegrow.compositions import (PLAIN, ArithClass, BSequence, PairTables, WeightPair,
                                   apply_move, as_fraction, check_admissibility_inequalities,
                                   check_ratio_chain, composition_kernel, covering_successors,
                                   iter_compositions, move_rows, sample_composition_chain,
                                   satisfies_arith, shift)
from treegrow.errors import DomainError, HorizonError, NotCoupleable, ZeroMassError
from treegrow.oracle import comp_law, tv_distance
from treegrow.sgtrees import WeightSequence, compute_tables

ONES = [F(1)] * 14


def tree_pair(w_entries, d=1, n_total=16):
    """The weight pair whose count weights are w and part weights the tree masses."""
    w = WeightSequence(w_entries)
    tables = compute_tables(w, d, N=n_total + 1)
    b = BSequence(tables.b_value(m) for m in range(1, n_total + 1))
    return WeightPair(w.entries, b)


def coupled(low, high):
    """``move_rows`` of two integer step laws as Fractions, checked against the Fraction oracle."""
    zl, zh = sum(low.values()), sum(high.values())
    rows = {m: F(num, den) for m, (num, den) in move_rows(low, zl, high, zh).items()}
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


class TestPartitionFunction:
    def test_z0_is_one_for_unit_a0(self):
        wp = WeightPair(ONES, ONES)
        assert PairTables(wp, total_horizon=0).partition_value(0, 0) == 1

    def test_catalan_b_example(self):
        # oracle: direct sum over the four compositions of 3
        wp = WeightPair(ONES, [1, 1, 2, 5, 14])
        direct = F(0)
        for c in iter_compositions(3):
            m = wp.a_at(len(c))
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
                m = wp.a_at(len(c))
                for p in c:
                    m *= wp.b[p]
                direct += m
            assert tables.partition_value(0, n) == direct


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
        low, high = {0: 1, 1: 1}, {0: 18, 1: 1, 2: 1}
        with pytest.raises(NotCoupleable) as err:
            move_rows(low, 2, high, 20)
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
        assert set(law) <= {("inc", 0), ("inc", 1), ("append", 2)} and sum(law.values()) == 1
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
            assert tables.ratio(n, 1, 0) == wp.b[n + 1] / wp.b[n]
        report = check_ratio_chain(tables, 4)
        assert not [f for f in report.failures if f.get("kind") == "lower-endpoint"]

        class Skewed(PairTables):
            # endpoints read b_2 doubled: the last ratio falls below the lower
            # endpoint at n = 1 and exceeds it at n = 2
            def b_weight(self, m):
                return super().b_weight(m) * (2 if m == 2 else 1)

        report = check_ratio_chain(Skewed(wp, PLAIN, total_horizon=6), 4)
        assert [f["n"] for f in report.failures if f.get("kind") == "lower-endpoint"] == [1, 2]


def refused_by_the_d1_rule(wp):
    """The separate d = 1 rule that ``check_nondegenerate`` kept before its general rule served d = 1."""
    support = wp.a_support
    return (not support or wp.a_at(0) == 0 or wp.a_at(1) == 0
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
    @settings(max_examples=300, deadline=None)
    def test_plain_class_refuses_as_the_d1_rule(self, a, b):
        wp = WeightPair(a, b)
        try:
            wp.check_nondegenerate(PLAIN)
        except DomainError:
            assert refused_by_the_d1_rule(wp)
        else:
            assert not refused_by_the_d1_rule(wp)


class TestShift:
    def test_basic(self):
        wp = WeightPair([1, 2, 3], ONES)
        assert shift(wp, 1).a == (F(2), F(3))

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
        b = BSequence([1, 1, 2])
        with pytest.raises(HorizonError):
            b[4]

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
