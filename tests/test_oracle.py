import hashlib
import itertools
import json
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from treegrow.compositions import ArithClass, WeightPair, iter_compositions
from treegrow.errors import DomainError, HorizonError, ZeroMassError
from treegrow.oracle import (_chi2_tail, _plane_words, enumerate_plane_trees, enumerate_subtrees,
                             goodness_of_fit, janson_expectations, kernel_interchange_check, sg_law, sg_masses,
                             sg_word_masses, st_law, subset_law, tv_distance)
from treegrow.sgtrees import WeightSequence, compute_tables, growth_kernel, growth_word_row
from treegrow.treespace import ROOT, PlaneTree, child_count_word, format_tree, from_child_count_word

from helpers import comp_law, tree_mass


def catalan(k):
    return math.comb(2 * k, k) // (k + 1)


small_fraction = st.builds(F, st.integers(1, 9), st.integers(1, 9))


# SHA-256 of the canonical text of each enumeration, one line per size and class, in enumeration order
PINNED_ENUMERATIONS = {
    "plane-trees": (
        lambda: [f"{n} {d}: " + ";".join(format_tree(t) for t in enumerate_plane_trees(n, d))
                 for n in range(1, 11) for d in range(1, 4)],
        "2d7ae086f7ce5b956b4743ef8a9a3070b5b647e352e37c1a5fe4a281c0243a62"),
    "subtrees": (
        lambda: [f"{n} {k}: " + ";".join(format_tree(t) for t in enumerate_subtrees(n, dmax=k))
                 for n in range(1, 8) for k in range(1, 4)],
        "bf0b363c0442a8ff644482778e1f78c7b4a8fa5a997b204d1adb547f5280534c"),
    "compositions": (
        lambda: [f"{n} {d} {s}: " + ";".join(",".join(map(str, c)) for c in iter_compositions(n, ArithClass(d, s)))
                 for n in range(13) for d in range(1, 4) for s in range(d)],
        "6a1e500a36cc2084f43c68e59b8286c9b6ce64f8c9a96f101d6376e1aeda1cc3"),
}


class TestEnumeration:
    def test_single_tree(self):
        assert len(enumerate_plane_trees(1)) == 1

    @pytest.mark.parametrize("kwargs, message", [
        ({"n": 0, "dmax": 2}, "subtrees have at least one vertex"),
        ({"n": 3}, "pass dmax or an explicit position set"),
        ({"n": 3, "positions": [2, 0]}, "positions must be positive"),
        ({"n": 8, "dmax": 2}, "enumerating subtrees of size 8 exceeds the cap 7"),
        ({"n": 2, "dmax": 4}, "enumerating subtrees over 4 positions exceeds the cap 3"),
    ], ids=["no-vertex", "no-positions", "position-0", "size-cap", "position-cap"])
    def test_subtree_enumeration_refusals(self, kwargs, message):
        with pytest.raises(DomainError, match=message):
            enumerate_subtrees(**kwargs)

    @pytest.mark.parametrize("n", [1, 5, 11], ids=["one-vertex", "below-cap", "above-cap"])
    @pytest.mark.parametrize("d", [0, -1])
    def test_plane_tree_enumeration_refuses_d_below_1(self, n, d):
        # refused before the cap's size estimate, which divides by d
        with pytest.raises(DomainError, match="d must be >= 1"):
            enumerate_plane_trees(n, d)
        with pytest.raises(DomainError, match="d must be >= 1"):
            sg_masses([1, 1, 1], d, n)

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

    @pytest.mark.parametrize("name", sorted(PINNED_ENUMERATIONS))
    def test_pinned_enumerations(self, name):
        lines, digest = PINNED_ENUMERATIONS[name]
        assert hashlib.sha256("\n".join(lines()).encode()).hexdigest() == digest

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
            count = len(enumerate_subtrees(n, dmax=2))
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


def divided(masses):
    """The reference normalization: Fraction masses, each divided by their Fraction total."""
    total = sum(masses.values(), F(0))
    return {key: m / total for key, m in masses.items() if m}


def product(values):
    out = F(1)
    for v in values:
        out *= v
    return out


class TestIntegerLawsMatchFractionProducts:
    @pytest.mark.parametrize("w, d, n", [(["1/2", "1/3", "0", "2/7", "1/11"], 1, 6),
                                         (["3/4", 0, "1/6", 0, "2/5"], 2, 7),
                                         (["5/3", 0, 0, "1/9"], 3, 7)])
    def test_sg_law(self, w, d, n):
        w = WeightSequence(w)
        trees = enumerate_plane_trees(n, d)
        reference = divided({t: product(w[t.children_count(u)] for u in t.vertices) for t in trees})
        law = sg_law(w, d, n)
        assert law == reference and list(law) == list(reference)

    @pytest.mark.parametrize("theta, n", [(["1/2", "1/3", "1/5"], 4), (["2/3", "0", "3/7"], 5)])
    def test_st_law(self, theta, n):
        values = [F(v) for v in theta]
        support = [i + 1 for i, v in enumerate(values) if v]
        reference = divided({tau: product(values[u[-1] - 1] for u in tau.vertices if u)
                             for tau in enumerate_subtrees(n, positions=support)})
        law = st_law(theta, n)
        assert law == reference and list(law) == list(reference)

    @pytest.mark.parametrize("k", range(4))
    def test_subset_law(self, k):
        theta = ["1/2", "0", "2/3", "1/7"]
        reference = divided({frozenset(c): product(F(theta[i - 1]) for i in c)
                             for c in itertools.combinations((1, 3, 4), k)})
        law = subset_law(theta, k)
        assert law == reference and list(law) == list(reference)

    @pytest.mark.parametrize("cls, n", [(ArithClass(1, 0), 5), (ArithClass(2, 1), 7), (ArithClass(2, 0), 6)])
    def test_comp_law(self, cls, n):
        wp = WeightPair(["1/2", "1/3", "2/5", "0", "3/4"], ["1/3", "3/4", "1/6", "2/9", "5/7", "1/2", "4/11"])
        reference = divided({c: wp.a[len(c)] * product(wp.b[p] for p in c)
                             for c in iter_compositions(n, cls)})
        law = comp_law(wp, n, cls)
        assert law == reference and list(law) == list(reference)

    def test_sg_law_past_a_declared_horizon(self):
        # trees of 6 vertices read w_4 and w_5, beyond the truncation at 3
        with pytest.raises(HorizonError, match="beyond declared truncation horizon 3"):
            sg_law(WeightSequence(["1/2", "1/3", "1/5"], horizon=3), 1, 6)
        truncated = sg_law(WeightSequence(["1/2", "1/3", "1/5"], horizon=5), 1, 6)
        assert truncated == sg_law(WeightSequence(["1/2", "1/3", "1/5"]), 1, 6)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_horizon_read_before_a_zero_weight(self, n):
        # every tree has a leaf of weight 0, and some tree has 3 children at a vertex, past the horizon
        with pytest.raises(HorizonError, match="beyond declared truncation horizon 2"):
            sg_law(WeightSequence([0, 1, 1], horizon=2), 1, n)

    def test_tree_mass_reads_every_degree(self):
        star = PlaneTree([ROOT, (1,), (2,), (3,)])
        with pytest.raises(HorizonError):
            tree_mass(WeightSequence([0, 1, 1], horizon=2), star)
        with pytest.raises(IndexError):
            tree_mass([0, 1, 1], star)
        assert tree_mass(WeightSequence([0, 1, 1, 1], horizon=3), star) == 0


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


def fraction_rows(row_fn):
    """A word row function read as Fractions keyed by trees: the row form of ``helpers.fraction_interchange``."""
    return lambda tree: helpers.growth_law(row_fn, tree)


def canonical(word):
    """The sort key of the tree of a child-count word in canonical order: its sorted vertices."""
    return from_child_count_word(word).sorted_vertices()


class TestInterchangeHarness:
    def test_passes_on_true_kernel(self):
        w = WeightSequence([1] * 7)
        tables = compute_tables(w, 1, N=6)
        report = kernel_interchange_check(growth_kernel(tables), sg_word_masses(w, 1, 5), sg_word_masses(w, 1, 6))
        assert report.ok and report.states_checked == catalan(5)

    def test_a_faulty_subtree_row_fails_first_where_sources_hold_it(self):
        # a source's own row is spliced from its root's law and its children's rows, never read from the memo
        w = WeightSequence([1] * 9)
        rows = growth_kernel(compute_tables(w, 1, N=9))
        masses = [None] + [sg_word_masses(w, 1, n) for n in range(1, 10)]
        assert all(kernel_interchange_check(rows, masses[n], masses[n + 1]).ok for n in range(1, 9))
        subtree = (2, 0, 1, 0)
        row = rows.subtree_rows[subtree]
        target = min(row, key=canonical)
        num, den = row[target]
        row[target] = (num, 2 * den)  # halve one entry
        verdicts = [kernel_interchange_check(rows, masses[n], masses[n + 1]).ok for n in range(1, 9)]
        assert verdicts[:len(subtree)] == [True] * len(subtree) and not verdicts[len(subtree)]

    def test_catches_corruption(self):
        w = WeightSequence([1] * 7)
        tables = compute_tables(w, 1, N=6)

        def corrupted(word):
            row = dict(growth_word_row(tables, word))
            if len(word) == 5 and word[0] == 1:  # the root has one child
                first = min(row, key=canonical)
                num, den = row[first]
                row[first] = (num, 2 * den)  # halve one entry
            return row

        report = kernel_interchange_check(corrupted, sg_word_masses(w, 1, 5), sg_word_masses(w, 1, 6))
        assert not report.ok and report.states_checked == catalan(5)
        assert report.as_dict() == helpers.fraction_interchange(fraction_rows(corrupted), sg_law(w, 1, 5),
                                                                sg_law(w, 1, 6)).as_dict()

    def test_catches_a_stray_key(self):
        w = WeightSequence([1] * 7)
        tables = compute_tables(w, 1, N=6)
        stray = (1, 0)  # a tree of size 2 among the targets of size 6

        def corrupted(word):
            row = dict(growth_word_row(tables, word))
            if word == (4, 0, 0, 0, 0):  # the star
                row[stray] = (1, 9)
            return row

        report = kernel_interchange_check(corrupted, sg_word_masses(w, 1, 5), sg_word_masses(w, 1, 6))
        assert not report.ok and report.states_checked == catalan(5) + 1
        assert report.first_discrepancy == {"state": "PlaneTree('e,1')", "pushed": "1/126", "target": "0"}

    def test_reports_the_least_mismatching_state(self):
        w = WeightSequence(["1/2", "1/3", "1/5", "1/9"])
        tables = compute_tables(w, 1, N=7)
        law_lo, law_hi = sg_law(w, 1, 6), sg_law(w, 1, 7)
        stray = PlaneTree([ROOT, (1,)])  # carries no mass at size 7

        def corrupted(word):
            row = dict(growth_word_row(tables, word))
            if word[0] == 2:  # the root has two children
                for target in sorted(row, key=lambda key: repr(from_child_count_word(key)))[:2]:
                    num, den = row[target]
                    row[target] = (3 * num, 4 * den)  # break two entries of each such row
                row[child_count_word(stray)] = (1, 9)
            return row

        pushed = {}
        for state, mass in law_lo.items():
            for target, p in fraction_rows(corrupted)(state).items():
                pushed[target] = pushed.get(target, F(0)) + mass * p
        keys = set(pushed) | set(law_hi)
        bad = [key for key in keys if pushed.get(key, F(0)) != law_hi.get(key, F(0))]
        assert len(bad) > 2 and stray in bad
        first = sorted(bad, key=repr)[0]
        report = kernel_interchange_check(corrupted, sg_word_masses(w, 1, 6), sg_word_masses(w, 1, 7))
        assert not report.ok
        assert report.states_checked == len(keys) == len(law_hi) + 1
        assert report.first_discrepancy == {"state": repr(first), "pushed": str(pushed[first]),
                                            "target": str(law_hi.get(first, F(0)))}

    def test_refuses_laws_without_mass(self):
        with pytest.raises(ZeroMassError):
            kernel_interchange_check(lambda word: {}, {(0,): 0}, {(1, 0): 1})


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

    def test_one_category_passes_vacuously(self):
        report = goodness_of_fit({"a": 40}, {"a": F(1)})
        assert (report.chi_square, report.dof, report.p_value) == (0.0, 0, 1.0)

    def test_outside_support_reports_valid_json(self):
        report = goodness_of_fit({"a": 40, "b": 1}, {"a": F(1)})
        text = json.dumps(report.as_dict())
        assert json.loads(text, parse_constant=lambda c: pytest.fail(f"{c} in the JSON"))["chi_square"] == "inf"

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


# scipy.stats.chi2.sf(x, k), scipy 1.17.1, at x = 0, 1e-9, k/2, k, 3k/2 and 3k
CHI2_TAIL_PINS = {
    1: (1.0, 0.999974768674784, 0.47950012218695337, 0.31731050786291115, 0.22067136191984324, 0.08326451666355042),
    2: (1.0, 0.9999999995, 0.6065306597126334, 0.36787944117144245, 0.22313016014842982, 0.04978706836786395),
    3: (1.0, 0.9999999999999916, 0.6822703303362125, 0.3916251762710877, 0.2122902873601327, 0.02929088653488826),
    4: (1.0, 1.0, 0.7357588823428847, 0.40600584970983794, 0.1991482734714558, 0.01735126523666451),
    13: (1.0, 1.0, 0.9260508432938139, 0.4478116743194914, 0.10839812900948437, 0.00019994356161353788),
    54: (1.0, 1.0, 0.9992169195454657, 0.4744030126508324, 0.010135829534845866, 1.0039802152402618e-12),
    420: (1.0, 1.0, 1.0, 0.49082321555426406, 1.27991189070062e-10, 8.488640631124459e-85),
    7751: (1.0, 1.0, 1.0, 0.497863880410918, 9.877314581612642e-162, 0.0),
}


class TestChiSquareTail:
    @pytest.mark.parametrize("k", sorted(CHI2_TAIL_PINS))
    def test_matches_scipy(self, k):
        for x, want in zip((0, 1e-9, k / 2, k, 1.5 * k, 3 * k), CHI2_TAIL_PINS[k]):
            assert math.isclose(_chi2_tail(x, k), want, rel_tol=1e-10, abs_tol=0), (x, k)

    @pytest.mark.parametrize("k", [1, 2, 3, 7751])
    def test_far_tail_underflows_to_zero(self, k):
        assert _chi2_tail(1e6, k) == _chi2_tail(1e308, k) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 1000), st.floats(0, 5000), st.floats(0, 5000))
    def test_a_tail_in_x_and_a_recurrence_in_k(self, k, x, y):
        x, y = sorted((x, y))
        q = _chi2_tail(x, k)
        # the tail is accurate to a relative 1e-10, so it may rise by no more than that
        assert 0 <= q <= 1 and _chi2_tail(y, k) <= q * (1 + 1e-10)
        # Q(x, k + 2) - Q(x, k) = e^-h h^(k/2) / Gamma(k/2 + 1), h = x/2
        h = x / 2
        step = math.exp(-h + k / 2 * math.log(h) - math.lgamma(k / 2 + 1)) if h else 0.0
        assert math.isclose(_chi2_tail(x, k + 2), q + step, rel_tol=1e-10, abs_tol=0)

    def test_goodness_of_fit_runs_without_scipy(self):
        code = """if True:
            from fractions import Fraction
            from treegrow.oracle import goodness_of_fit
            law = {0: Fraction(1, 2), 1: Fraction(1, 2)}
            for counts in ({0: 52, 1: 48}, {0: 90, 1: 10}):
                print(repr(goodness_of_fit(counts, law).p_value))
        """
        done = helpers.run_without_scipy(code)
        assert done.returncode == 0, done.stderr
        passing, failing = (float(line) for line in done.stdout.split())
        # chi-square 0.16 and 64 on one degree of freedom
        assert math.isclose(passing, math.erfc(math.sqrt(0.08)), rel_tol=1e-12) and passing > 0.001
        assert math.isclose(failing, math.erfc(math.sqrt(32)), rel_tol=1e-12) and failing < 0.001


@st.composite
def interchange_cases(draw):
    """Log-concave weights of radius <= 4 with d in {1, 2, 3}, a level n + d <= 8, and a row corruption."""
    d = draw(st.sampled_from([1, 2, 3]))
    length = draw(st.integers(2, 4 // d + 1))
    ratios = sorted(draw(st.lists(small_fraction, min_size=length - 1, max_size=length - 1)), reverse=True)
    progression = [draw(small_fraction)]
    for ratio in ratios:
        progression.append(progression[-1] * ratio)
    entries = [F(0)] * ((length - 1) * d + 1)
    entries[::d] = progression
    n = draw(st.sampled_from(range(1, 9 - d, d)))
    return WeightSequence(entries), d, n, draw(st.sampled_from(["none", "halve", "stray"])), draw(st.integers(0, 999))


@settings(max_examples=80, deadline=None)
@given(interchange_cases())
def test_integer_decision_reports_as_the_fraction_push(case):
    w, d, n, corruption, pick = case
    tables = compute_tables(w, d, N=n + d)
    lo = sorted(sg_word_masses(w, d, n), key=canonical)
    victim = lo[pick % len(lo)]
    stray = (n + d,) + (0,) * (n + d)  # a star one vertex too big

    def rows(word):
        row = dict(growth_word_row(tables, word))
        if word == victim and corruption == "halve":
            target = sorted(row, key=canonical)[pick % len(row)]
            num, den = row[target]
            row[target] = (num, 2 * den)
        elif word == victim and corruption == "stray":
            row[stray] = (1, 7)
        return row

    report = kernel_interchange_check(rows, sg_word_masses(w, d, n), sg_word_masses(w, d, n + d))
    reference = helpers.fraction_interchange(fraction_rows(rows), sg_law(w, d, n), sg_law(w, d, n + d))
    assert report.as_dict() == reference.as_dict()
    assert report.ok == (corruption == "none")


@st.composite
def enumeration_cases(draw):
    """Weights on the multiples of d, internal zeros allowed, maybe a declared horizon, and a size n <= 9."""
    d = draw(st.sampled_from([1, 2, 3]))
    count = draw(st.integers(1, 8 // d + 1))
    entries = [F(0)] * ((count - 1) * d + 1)
    entries[::d] = draw(st.lists(st.sampled_from([F(0), F(1), F(2, 3), F(5)]), min_size=count, max_size=count))
    if not any(entries):
        entries[0] = F(1)
    n = draw(st.integers(1, 9))
    horizon = draw(st.one_of(st.none(), st.integers(len(entries) - 1, 9)))
    return WeightSequence(entries, horizon=horizon), d, n


def full_enumeration_law(w, d, n):
    """The law over every tree of ``enumerate_plane_trees``, zero masses dropped.

    ``tree_mass`` on the Fraction weights reads every child count, so a
    tree with a degree past a declared horizon fails whatever zero weights
    it holds.
    """
    masses = {tree: tree_mass(w, tree) for tree in enumerate_plane_trees(n, d)}
    masses = {tree: mass for tree, mass in masses.items() if mass}
    if not masses:
        raise ZeroMassError("no mass")
    total = sum(masses.values())
    return {tree: mass / total for tree, mass in masses.items()}


@settings(max_examples=150, deadline=None)
@given(enumeration_cases())
def test_degree_bounded_law_is_the_full_enumeration_law(case):
    w, d, n = case
    try:
        reference = full_enumeration_law(w, d, n)
    except (HorizonError, ZeroMassError) as exc:
        with pytest.raises(type(exc)):
            sg_law(w, d, n)
        return
    law = sg_law(w, d, n)
    assert law == reference and list(law) == list(reference)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_bounded_enumeration_keeps_the_order_and_shares_the_cache(d):
    for n in range(1, 11):
        full = _plane_words(n, d, None)
        assert _plane_words(n, d, n - 1) is full and _plane_words(n, d, 99) is full
        for degree in range(n - 1):
            assert list(_plane_words(n, d, degree)) == [word for word in full if max(word) <= degree]
