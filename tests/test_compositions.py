import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treegrow._rand import derive_rng
from treegrow.compositions import (PLAIN, ArithClass, BSequence, PairTables, WeightPair,
                                   apply_move, as_fraction, check_admissibility_inequalities,
                                   check_ratio_chain, composition_kernel, covering_successors,
                                   first_part_law, format_composition, is_covering,
                                   iter_compositions, monotone_step_kernel, parse_composition,
                                   partition_function, sample_composition_chain, satisfies_arith,
                                   shift, StepLaw)
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


def brute_law(wp, n, cls=PLAIN):
    """Composition law by raw enumeration, independent of the table recursions."""
    masses = {}
    for c in iter_compositions(n, cls if cls.d > 1 else None):
        m = wp.a_at(len(c))
        for p in c:
            m *= wp.b[p]
        if m:
            masses[c] = m
    total = sum(masses.values())
    return {c: m / total for c, m in masses.items()}


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

    def test_format_parse(self):
        assert format_composition(()) == "-"
        assert parse_composition("2 1") == (2, 1)
        assert parse_composition("-") == ()


class TestPartitionFunction:
    def test_z0_is_one_for_unit_a0(self):
        wp = WeightPair(ONES, ONES)
        assert partition_function(wp, 0) == 1

    def test_catalan_b_example(self):
        # oracle: direct sum over the four compositions of 3
        wp = WeightPair(ONES, [1, 1, 2, 5, 14])
        oracle = sum(
            wp.a_at(len(c)) * F(1) * [F(1), *map(F, [1, 1, 2])][0]  # placeholder, replaced below
            for c in ()
        )
        direct = F(0)
        for c in iter_compositions(3):
            m = wp.a_at(len(c))
            for p in c:
                m *= wp.b[p]
            direct += m
        assert direct == 5
        assert partition_function(wp, 3) == direct

    def test_zero_mass_residue(self):
        b = [F(1), F(0), F(1), F(0), F(1)]  # supported on 1, 3, 5
        wp = WeightPair([0, 1], b)
        cls = ArithClass(2, 1)
        assert partition_function(wp, 2, cls) == 0
        assert not wp.total_has_mass(2, cls)
        assert wp.total_has_mass(3, cls)

    def test_matches_enumeration(self):
        wp = tree_pair(ONES)
        for n in range(0, 9):
            direct = F(0)
            for c in iter_compositions(n):
                m = wp.a_at(len(c))
                for p in c:
                    m *= wp.b[p]
                direct += m
            assert partition_function(wp, n) == direct


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
        for n in range(1, 9):
            law = comp_law(wp, n)
            mu = first_part_law(wp, n)
            wp_shift = shift(wp, 1)
            for c, mass in law.items():
                first, rest = c[0], c[1:]
                rest_law = comp_law(wp_shift, n - first)
                assert mass == mu.masses[first] * rest_law[rest]


class TestFirstPartLaw:
    def test_mu3(self):
        wp = tree_pair(ONES)
        mu = first_part_law(wp, 3)
        assert mu.masses == {1: F(2, 5), 2: F(1, 5), 3: F(2, 5)}

    def test_mu4(self):
        wp = tree_pair(ONES)
        mu = first_part_law(wp, 4)
        assert mu.masses == {1: F(5, 14), 2: F(1, 7), 3: F(1, 7), 4: F(5, 14)}

    def test_against_grouped_distribution(self):
        wp = tree_pair([1, 2, 1])
        for n in range(1, 9):
            law = comp_law(wp, n)
            grouped = {}
            for c, mass in law.items():
                grouped[c[0]] = grouped.get(c[0], F(0)) + mass
            assert first_part_law(wp, n).masses == grouped

    def test_single_part_support(self):
        wp = WeightPair([1, 1], [F(1)] * 10)
        assert first_part_law(wp, 7).masses == {7: F(1)}

    def test_no_mass_at_total(self):
        wp = WeightPair([0, 1], [F(1), F(0), F(1)])
        with pytest.raises(ZeroMassError):
            first_part_law(wp, 2, ArithClass(2, 1))


class TestMonotoneStepKernel:
    def test_spec_overlap_value(self):
        wp = tree_pair(ONES)
        mu3 = first_part_law(wp, 3)
        mu4 = first_part_law(wp, 4)
        kernel = monotone_step_kernel(mu3, mu4)
        stay, step = kernel[1]
        assert step == F(3, 28)
        assert stay == 1 - step

    def test_deterministic_shift(self):
        mu_n = StepLaw(1, 1, {1: F(1)})
        mu_n1 = StepLaw(2, 1, {2: F(1)})
        assert monotone_step_kernel(mu_n, mu_n1)[1] == (F(0), F(1))

    def test_identity_case(self):
        mu_n = StepLaw(1, 1, {1: F(1)})
        mu_n1 = StepLaw(2, 1, {1: F(1)})
        assert monotone_step_kernel(mu_n, mu_n1)[1] == (F(1), F(0))

    def test_pushforward_recovers_target(self):
        wp = tree_pair(ONES)
        for n in range(1, 9):
            mu_n = first_part_law(wp, n)
            mu_n1 = first_part_law(wp, n + 1)
            kernel = monotone_step_kernel(mu_n, mu_n1)
            pushed = {}
            for m, mass in mu_n.masses.items():
                stay, step = kernel[m]
                pushed[m] = pushed.get(m, F(0)) + mass * stay
                pushed[m + 1] = pushed.get(m + 1, F(0)) + mass * step
            pushed = {m: p for m, p in pushed.items() if p}
            assert pushed == dict(mu_n1.masses)

    def test_not_coupleable(self):
        mu_n = StepLaw(2, 1, {1: F(1, 2), 2: F(1, 2)})
        mu_n1 = StepLaw(3, 1, {1: F(9, 10), 2: F(1, 20), 3: F(1, 20)})
        with pytest.raises(NotCoupleable) as err:
            monotone_step_kernel(mu_n, mu_n1)
        assert err.value.witness == 0


class TestCompositionKernel:
    def test_base_case(self):
        wp = tree_pair(ONES)
        assert composition_kernel(wp, PLAIN, 0, ()) == {(1,): F(1)}

    def test_row_at_one(self):
        wp = tree_pair(ONES)
        row = composition_kernel(wp, PLAIN, 1, (1,))
        mu1 = first_part_law(wp, 1)
        mu2 = first_part_law(wp, 2)
        q = monotone_step_kernel(mu1, mu2)[1][1]
        assert row == {(2,): q, (1, 1): 1 - q}

    def test_rows_sum_to_one_and_cover(self):
        wp = tree_pair([1, 3, 3, 1])
        for n in range(0, 7):
            for c in comp_law(wp, n):
                row = composition_kernel(wp, PLAIN, n, c)
                assert sum(row.values()) == 1
                assert set(row) <= set(covering_successors(c, 1))

    @pytest.mark.parametrize("entries", [ONES, [1, 3, 3, 1], [1, 1, 1, 1, 1]])
    def test_interchange_d1(self, entries):
        wp = tree_pair(entries)
        for n in range(0, 8):
            law = comp_law(wp, n)
            target = comp_law(wp, n + 1)
            pushed = {}
            for c, mass in law.items():
                for c2, p in composition_kernel(wp, PLAIN, n, c).items():
                    pushed[c2] = pushed.get(c2, F(0)) + mass * p
            pushed = {c: m for c, m in pushed.items() if m}
            assert pushed == target

    @pytest.mark.parametrize("entries,d", [([1, 0, 1], 2), ([2, 0, 0, 1], 3)])
    def test_interchange_arithmetic(self, entries, d):
        cls = ArithClass(d, 0)
        wp = tree_pair(entries, d=d)
        n = 0
        while n + d <= 9:
            law = comp_law(wp, n, cls)
            target = comp_law(wp, n + d, cls)
            pushed = {}
            for c, mass in law.items():
                for c2, p in composition_kernel(wp, cls, n, c).items():
                    pushed[c2] = pushed.get(c2, F(0)) + mass * p
            pushed = {c: m for c, m in pushed.items() if m}
            assert pushed == target
            n += d

    def test_arith_row_support(self):
        cls = ArithClass(2, 0)
        wp = tree_pair([1, 0, 1], d=2)
        row = composition_kernel(wp, cls, 2, (1, 1))
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
            assert is_covering(a, b, 1)

    def test_d2_forced_start(self):
        wp = tree_pair([1, 0, 1], d=2)
        chain = sample_composition_chain(wp, ArithClass(2, 0), 6, derive_rng(0, "chain"))
        assert chain[0] == () and chain[1] == (1, 1)
        for a, b in zip(chain, chain[1:]):
            assert is_covering(a, b, 2)

    def test_deterministic(self):
        wp = tree_pair([1, 3, 3, 1])
        one = sample_composition_chain(wp, PLAIN, 9, derive_rng(7, "chain"))
        two = sample_composition_chain(wp, PLAIN, 9, derive_rng(7, "chain"))
        assert one == two

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
        wp = tree_pair(ONES)
        with pytest.raises(DomainError):
            composition_kernel(wp, PLAIN, 4, (2, 1))

    @given(st.integers(0, 6))
    @settings(max_examples=20, deadline=None)
    def test_apply_move_totals(self, n):
        rng = random.Random(n)
        comps = list(iter_compositions(n))
        c = rng.choice(comps)
        for j in range(len(c)):
            assert sum(apply_move(c, ("inc", j), 1)) == n + 1
        assert sum(apply_move(c, ("append", len(c)), 2)) == n + 2
