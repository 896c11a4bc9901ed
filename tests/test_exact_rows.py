"""Integer tables and integer step rows, checked exactly beyond the enumeration caps.

The tables clear denominators once and run over Python ints; each step row
maps a support point to an unreduced integer pair ``(num, den)``.  Read
back as Fractions, every row must equal the Fraction oracle
``helpers.monotone_move_probs`` applied to first-part laws built from
``partition_value``, on random log-concave weights and random weight pairs
alike, and must not move under an exponential tilt.  Pinned digests cover
the pair scaling ``b_m -> D^m b_m``, which no CLI trace goes through.
"""

import hashlib
import json
import random
from fractions import Fraction as F
from itertools import accumulate, count
from math import prod

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from treegrow._rand import LazyUniform, bernoulli, derive_rng, derive_seed
import treegrow.compositions
from treegrow.compositions import (ArithClass, PairTables, PartitionKernel, StepRow, WeightPair, check_admissibility_inequalities,
                                   iter_compositions, move_rows, sample_composition_chain)
from treegrow.errors import DomainError, NotCoupleable, TreegrowError, ZeroMassError
from treegrow.oracle import sg_law
from treegrow.sgtrees import GrowthChain, WeightSequence, compute_tables, growth_kernel_row, tilt
from treegrow.subtree_model import SubtreeChain, SummableTheta

small_fraction = st.builds(F, st.integers(1, 9), st.integers(1, 9))


@st.composite
def log_concave_weights(draw):
    """Fractional weights with log-concave progression (decreasing ratios), radius <= 4, and d."""
    d = draw(st.sampled_from([1, 2]))
    length = draw(st.integers(2, 4 // d + 1))
    ratios = sorted(draw(st.lists(small_fraction, min_size=length - 1, max_size=length - 1)), reverse=True)
    progression = [draw(small_fraction)]
    for ratio in ratios:
        progression.append(progression[-1] * ratio)
    entries = [F(0)] * ((length - 1) * d + 1)
    entries[::d] = progression
    return WeightSequence(entries), d, draw(st.integers(d + 2, 12))


@st.composite
def weight_pairs(draw):
    """Non-degenerate pairs with fractional a and b for the class (d, s), d in {1, 2}."""
    d = draw(st.sampled_from([1, 2]))
    s = draw(st.integers(0, d - 1))
    count = draw(st.integers(2 if s == 0 else 1, 3))
    a = [F(0)] * (s + (count - 1) * d + 1)
    for i in range(count):
        a[s + i * d] = draw(small_fraction)
    horizon = draw(st.integers(d + 2, 12))
    b = [draw(small_fraction) if m % d == 1 % d else F(0) for m in range(1, horizon + 1)]
    return WeightPair(a, b), ArithClass(d, s)


def outcome(fn):
    """The value of ``fn()``, or the exception type and arguments it raised."""
    try:
        return "value", fn()
    except (NotCoupleable, ZeroMassError) as exc:
        return type(exc).__name__, exc.args


def oracle_row(tables, ell, t):
    """Move probabilities from Fraction laws built out of ``partition_value`` and the exact part weights."""
    d, b = tables.d, helpers.part_weights(tables)

    def law(total):
        z = tables.partition_value(ell, total)
        if z == 0:
            raise ZeroMassError(f"no mass at total {total} for shift {ell}")
        masses = {}
        for mt in range((total - 1) // d + 1):
            mass = b(mt * d + 1) * tables.partition_value(ell + 1, total - mt * d - 1)
            if mass:
                masses[mt] = mass / z
        return masses

    return helpers.monotone_move_probs(law(t), law(t + d))


def fraction_row(tables, ell, t):
    """The compiled row as Fractions, read at each support point of ``move_rows``."""
    row = tables.step_probs(ell, t)
    return {m: F(*row.pair(m)) for m in exact_scan(tables, ell, t)}


def all_rows(tables, horizon):
    """Every (ell, t) -> outcome of the compiled row whose laws fit below ``horizon``."""
    return {(ell, t): outcome(lambda: fraction_row(tables, ell, t))
            for ell in range(tables.r) for t in range(1, horizon - tables.d + 1)}


def assert_rows_match_oracle(tables, horizon):
    rows = all_rows(tables, horizon)
    for (ell, t), got in rows.items():
        assert got == outcome(lambda: oracle_row(tables, ell, t)), (ell, t)
        if got[0] == "value":
            assert sum(helpers.first_part_law(tables, ell, t).values()) == 1
    return rows


@settings(max_examples=60, deadline=None)
@given(log_concave_weights())
def test_tree_rows_match_fraction_oracle(case):
    w, d, N = case
    rows = assert_rows_match_oracle(compute_tables(w, d, N), N - 1)
    # log-concave weights always couple (the paper's theorem), so every row with mass compiles
    assert all(kind != "NotCoupleable" for kind, _ in rows.values())


@settings(max_examples=40, deadline=None)
@given(log_concave_weights(), small_fraction, small_fraction)
def test_tree_rows_invariant_under_tilt(case, alpha, beta):
    w, d, N = case
    rows = all_rows(compute_tables(w, d, N), N - 1)
    assert all_rows(compute_tables(tilt(w, alpha, beta), d, N), N - 1) == rows


@settings(max_examples=80, deadline=None)
@given(weight_pairs())
def test_pair_rows_match_fraction_oracle(case):
    wp, cls = case
    tables = PairTables(wp, cls)
    assert_rows_match_oracle(tables, tables.total_horizon)


@st.composite
def any_weights(draw):
    """Weights on multiples of d in {1, 2, 3} with radius <= 4 and w_0 w_d > 0, log-concave or not, and N."""
    d = draw(st.sampled_from([1, 2, 3]))
    progression = [draw(small_fraction), draw(small_fraction)]
    progression += draw(st.lists(st.sampled_from([F(0), F(1, 9), F(1), F(9)]), max_size=4 // d - 1))
    entries = [F(0)] * ((len(progression) - 1) * d + 1)
    entries[::d] = progression
    return WeightSequence(entries), d, draw(st.integers(d + 2, 12))


def exact_scan(tables, ell, t):
    """``move_rows`` on the two first-part laws: the exact scan of every interleaving inequality."""
    return move_rows(tables.first_part_sums(ell, t), tables.first_part_sums(ell, t + tables.d))


def verdict(fn):
    """The value of ``fn()``, or the type, arguments and message of what it raised."""
    try:
        return "value", fn()
    except (NotCoupleable, ZeroMassError) as exc:
        return type(exc).__name__, exc.args, str(exc)


@settings(max_examples=150, deadline=None)
@given(any_weights(), st.randoms(use_true_random=False))
def test_rows_read_lazily_match_the_exact_scan(case, rnd):
    """Every row, compiled in any order, is ``move_rows`` pair for pair; a read off its support raises."""
    w, d, N = case
    tables = compute_tables(w, d, N)
    keys = [(ell, t) for ell in range(tables.r) for t in range(1, N - d)]
    rnd.shuffle(keys)  # rows compiled with and without the row d below them
    for ell, t in keys:
        got = verdict(lambda: tables.step_probs(ell, t))
        expected = verdict(lambda: exact_scan(tables, ell, t))
        if got[0] == "value":
            row, scan = got[1], exact_scan(tables, ell, t)
            got = "value", {m: row.pair(m) for m in scan}
            for m in set(range(len(row.cl) + 1)) - scan.keys():
                with pytest.raises(KeyError):
                    row.pair(m)
        assert got == expected, (ell, t)


@st.composite
def integer_law_pairs(draw):
    """Integer masses of a lower law on at most 6 points and an upper law 0-3 points longer.

    Internal zeros are allowed.  Half the upper laws are random; the other
    half push the lower law up by one point with non-decreasing
    probabilities ``p_m / den``, which often interleaves with it.
    """
    mass = st.integers(0, 4)
    low = draw(st.lists(mass, max_size=5)) + [draw(st.integers(1, 4))]
    if draw(st.booleans()):
        high = draw(st.lists(mass, min_size=len(low) - 1, max_size=len(low) + 2)) + [draw(st.integers(1, 4))]
    else:
        den = draw(st.integers(1, 4))
        p = sorted(draw(st.lists(st.integers(0, den), min_size=len(low), max_size=len(low))))
        high = [v * (den - q) for v, q in zip(low, p)] + [0]
        for m in range(len(low)):
            high[m + 1] += low[m] * p[m]
        while not high[-1]:
            high.pop()
    return low, high


@settings(max_examples=400, deadline=None)
@given(integer_law_pairs())
def test_move_rows_meets_the_fraction_oracle(laws):
    """``move_rows`` on running sums is the Fraction oracle, or refuses at the oracle's witness."""
    low, high = laws
    cl, ch = list(accumulate(low)), list(accumulate(high))

    def law(masses, z):
        return {m: F(v, z) for m, v in enumerate(masses) if v}

    try:
        expected = helpers.monotone_move_probs(law(low, cl[-1]), law(high, ch[-1]))
    except NotCoupleable as exc:
        with pytest.raises(NotCoupleable) as err:
            move_rows(cl, ch)
        assert err.value.witness == exc.witness
        if exc.witness >= len(low):
            assert str(err.value) == str(exc)
    else:
        assert {m: F(num, den) for m, (num, den) in move_rows(cl, ch).items()} == expected


@pytest.mark.parametrize("entries, d", [([1, 3, 3, 1], 1), ([1, 0, 2, 0, 1], 2)])
def test_consecutive_rows_share_one_list_of_sums(entries, d):
    # the upper law of row (ell, t) is the lower law of row (ell, t + d): one list holds both,
    # whether the peel kept it or first_part_sums formed it
    for keep in (False, True):
        tables = compute_tables(WeightSequence(entries), d, N=20, _keep_sums=keep)
        checked = 0
        for ell in range(tables.r - 1):
            for t in range(1, 20 - 2 * d):
                if tables.partition_int(ell, t):  # for d = 2 one total in two carries mass
                    row = tables.step_probs(ell, t)
                    assert tables.step_probs(ell, t + d).cl is row.ch
                    checked += 1
        assert checked >= 12


@st.composite
def kept_sum_weights(draw):
    """Weights on multiples of d in {1, 2, 3} up to radius 7, with internal zeros, and N."""
    d = draw(st.sampled_from([1, 2, 3]))
    progression = [draw(small_fraction), draw(small_fraction)]
    progression += draw(st.lists(st.sampled_from([F(0), F(1, 9), F(2, 3), F(1), F(9)]), max_size=7 // d - 1))
    entries = [F(0)] * ((len(progression) - 1) * d + 1)
    entries[::d] = progression
    return WeightSequence(entries), d, draw(st.integers(d + 2, 16))


@st.composite
def kept_sum_pairs(draw):
    """Non-degenerate pairs for the class (d, s), d in {1, 2, 3}, with up to 7 // d + 1 count weights."""
    d = draw(st.sampled_from([1, 2, 3]))
    s = draw(st.integers(0, d - 1))
    count = draw(st.integers(2 if s == 0 else 1, 7 // d + 1))
    a = [F(0)] * (s + (count - 1) * d + 1)
    for i in range(count):
        a[s + i * d] = draw(small_fraction)
    horizon = draw(st.integers(d + 2, 14))
    b = [draw(small_fraction) if m % d == 1 % d else F(0) for m in range(1, horizon + 1)]
    return WeightPair(a, b), ArithClass(d, s)


def sums_and_rows(tables, totals):
    """Per ``(ell, t)``: ``first_part_sums`` and every pair of the step row, or what each raised."""

    def pairs(ell, t):
        row = tables.step_probs(ell, t)
        return {m: row.pair(m) for m in range(len(row.cl) + 1) if m in exact_scan(tables, ell, t)}

    def caught(fn, *args):
        try:
            return "value", fn(*args)
        except TreegrowError as exc:
            return type(exc).__name__, exc.args, str(exc)

    return {(ell, t): (caught(tables.first_part_sums, ell, t), caught(pairs, ell, t))
            for ell in range(tables.r + 2) for t in range(-1, totals)}


def assert_kept_sums_change_nothing(build, totals):
    kept, formed = build(True), build(False)
    assert len(kept._sums) == 2 and not formed._sums
    got = sums_and_rows(kept, totals)
    assert got == sums_and_rows(formed, totals)
    return got


@settings(max_examples=120, deadline=None)
@given(kept_sum_weights())
def test_kept_sums_give_the_formed_rows_on_tree_tables(case):
    """Rows at shifts 0 and 1 read the peel's sums, the others form theirs: both give today's rows."""
    w, d, N = case
    got = assert_kept_sums_change_nothing(lambda keep: compute_tables(w, d, N, _keep_sums=keep), N - d)
    assert any(kind == "value" for (ell, _), ((kind, *_), _) in got.items() if ell >= 2) or w.radius < 3 * d


@settings(max_examples=120, deadline=None)
@given(kept_sum_pairs())
def test_kept_sums_give_the_formed_rows_on_pair_tables(case):
    wp, cls = case
    assert_kept_sums_change_nothing(lambda keep: PairTables(wp, cls, _keep_sums=keep), wp.b.horizon - cls.d + 1)


def test_kept_sums_past_the_horizon_and_below_total_one_refuse_alike():
    # the checks of first_part_sums run before a kept list is handed out
    w = WeightSequence([1, 2, 1], horizon=9)
    got = assert_kept_sums_change_nothing(lambda keep: compute_tables(w, 1, 8, _keep_sums=keep), 10)
    assert got[0, 0][0][0] == "DomainError" and got[0, 9][0][0] == "HorizonError"
    assert got[1, 7][0][0] == "value" and got[1, 8][0][0] == "HorizonError"  # w_9 read, w_10 past its horizon
    assert got[2, 3][0][0] == got[3, 3][0][0] == "ZeroMassError"


def steps_of(chain, count):
    return [(step.parent, step.new_vertices, step.factors) for step in (chain.step() for _ in range(count))]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("entries, d, n", [([1, 3, 3, 1], 1, 60), ([1, 0, 2, 0, 1], 2, 61)], ids=["sg", "sg-arith"])
def test_tree_chain_walks_alike_on_kept_and_formed_sums(entries, d, n, seed):
    w = WeightSequence(entries)
    walks = [steps_of(GrowthChain(w, d, n, derive_rng(seed, "chain"), tables=compute_tables(w, d, n, _keep_sums=keep)),
                      (n - 1) // d) for keep in (True, False)]
    assert walks[0] == walks[1]
    assert steps_of(GrowthChain(w, d, n, derive_rng(seed, "chain")), (n - 1) // d) == walks[0]  # it keeps its own


@pytest.mark.parametrize("seed", range(3))
def test_subtree_chain_walks_alike_on_kept_and_formed_sums(seed):
    theta = SummableTheta([F(1, 2), F(1, 3), F(1, 4)])
    walks = []
    for keep in (True, False, None):
        tables = None if keep is None else compute_tables(WeightSequence(theta.e), 1, 40, _keep_sums=keep)
        chain = SubtreeChain(theta, 40, seed, tables=tables)
        steps, inner_step = [], chain.inner.step
        chain.inner.step = lambda: steps.append(inner_step()) or steps[-1]
        words = [chain.step() for _ in range(39)]
        walks.append((words, [(step.parent, step.new_vertices, step.factors) for step in steps]))
    assert walks[0] == walks[1] == walks[2]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("entries, d, ell", [([1, 3, 3, 1], 1, 0), ([1, 0, 2, 0, 1], 2, 1)], ids=["plain", "d2-s1"])
def test_composition_chain_walks_alike_on_kept_and_formed_sums(entries, d, ell, seed):
    # count weights w_ell, w_{ell+1}, ... and the tree masses as part weights: the pair of shift ell of a tree chain
    trees = compute_tables(WeightSequence(entries), d, 32)
    cls = ArithClass(d, -ell % d)
    wp = WeightPair(entries[ell:], [trees.b_value(m) for m in range(1, 31)])
    last = 30 - (30 - cls.s) % d
    walks = []
    for keep in (True, False):
        tables, rng = PairTables(wp, cls, _keep_sums=keep), derive_rng(seed, "chain")
        c, walk = (1,) * cls.s, []
        while sum(c) + cls.d <= last:
            factors = []
            move = tables.sample_move(sum(c), c, bernoulli, rng, factors)
            c = treegrow.compositions.apply_move(c, move, cls.d)
            walk.append((move, factors))
        walks.append(walk)
    assert walks[0] == walks[1] and len(walks[0]) >= 14
    formed = PairTables(wp, cls, total_horizon=last)
    assert (sample_composition_chain(wp, cls, last, derive_rng(seed, "c"))
            == sample_composition_chain(wp, cls, last, derive_rng(seed, "c"), tables=formed))


def test_loose_b_bound_falls_back_to_the_exact_scan(monkeypatch):
    # at the last shift only m = top carries mass, so b_3/b_2 > zh/zl at m = 1 does not bind
    tables = compute_tables(WeightSequence([1, 1, 0, 0, 1]), 1, N=10)
    scans = []
    monkeypatch.setattr(treegrow.compositions, "move_rows", lambda *a: scans.append(a) or move_rows(*a))
    row = tables.step_probs(3, 6)
    assert len(scans) == 1 and row.pair(5) == (96, 96) and move_rows(*scans[0]) == {5: (96, 96)}


def test_full_iteration_forms_the_whole_row():
    tables = compute_tables(WeightSequence([1, 3, 3, 1]), 1, N=12)
    row, scan = tables.step_probs(0, 9), exact_scan(tables, 0, 9)
    assert len(scan) == 9 and {m: row.pair(m) for m in scan} == scan
    with pytest.raises(KeyError):
        row.pair(max(scan) + 1)


def test_kernel_row_reads_no_mass_from_the_masses():
    # w_2 = 0: a root with two children carries no mass, before and after the row's decisions are memoized
    tables = compute_tables(WeightSequence([1, 1, 0, 0, 1]), 1, N=6)
    for _ in range(2):
        with pytest.raises(DomainError, match="part 1 carries no mass at total 2, shift 0"):
            tables.kernel_row(2, (1, 1))
        assert (0, 2, 1) not in tables._decisions   # a refused part stores no decision
        assert tables.kernel_row(2, (2,)) == {("inc", 0): (1, 1)}
    with pytest.raises(KeyError):
        tables.step_probs(0, 2).pair(0)


def test_unreduced_threshold_decides_alike():
    """``is_below`` reads the value of num/den only: same decision, same bits drawn."""
    for num, den in ((1, 3), (2, 7), (5, 8), (1, 1 << 40), ((1 << 40) - 1, 1 << 40)):
        for scale in (1, 6, 3 ** 50):
            for seed in range(40):
                reduced, scaled = derive_rng(seed, "u"), derive_rng(seed, "u")
                assert (LazyUniform(reduced).is_below(num, den)
                        == LazyUniform(scaled).is_below(num * scale, den * scale))
                assert reduced.getstate() == scaled.getstate()
    rng = derive_rng(0, "edge")
    state = rng.getstate()
    assert not bernoulli(rng, 0, 5) and bernoulli(rng, 5, 5)
    assert rng.getstate() == state  # certain outcomes draw no bits


def assert_bernoulli_is_lazy_uniform(seed, num, den):
    """Same answer and same bits drawn as a fresh ``LazyUniform``; returns the 32-bit chunks drawn."""
    rng_a, rng_b, rng_c = (derive_rng(seed, "bernoulli") for _ in range(3))
    assert bernoulli(rng_a, num, den) == LazyUniform(rng_b).is_below(num, den)
    assert rng_a.getstate() == rng_b.getstate()
    chunks = 0
    while rng_c.getstate() != rng_a.getstate():
        rng_c.getrandbits(32)
        chunks += 1
    return chunks


@st.composite
def thresholds(draw):
    """``(seed, num, den)`` with ``0 <= num <= den``; some within 2^-40 of the seed's first 32-bit chunk."""
    seed = draw(st.integers(0, 1 << 32))
    if draw(st.booleans()):
        den = draw(st.integers(1, 1 << 70))
        return seed, draw(st.integers(0, den)), den
    chunk = derive_rng(seed, "bernoulli").getrandbits(32)
    scale = draw(st.sampled_from([1, 3, 1 << 20]))
    num = max(0, (chunk << 8) + draw(st.integers(-255, 255)))
    return seed, num * scale, (1 << 40) * scale


@settings(max_examples=400, deadline=None)
@given(thresholds())
def test_bernoulli_draws_as_a_lazy_uniform(case):
    assert_bernoulli_is_lazy_uniform(*case)


@pytest.mark.parametrize("seed", range(8))
def test_bernoulli_refines_past_an_open_first_chunk(seed):
    # num/den inside the dyadic interval of the first chunk: only a second chunk decides
    chunk = derive_rng(seed, "bernoulli").getrandbits(32)
    for offset in (1, 128, 255):
        assert assert_bernoulli_is_lazy_uniform(seed, (chunk << 8) + offset, 1 << 40) >= 2
    assert assert_bernoulli_is_lazy_uniform(seed, chunk << 8, 1 << 40) == 1


@st.composite
def decision_pairs(draw, seed):
    """``(num, den)`` of thousands of bits, on an exact dyadic boundary near the seed's first
    chunk, straddling the seed's first chunks, or certain (``num <= 0`` or ``num >= den``)."""
    kind = draw(st.sampled_from(["wide", "dyadic", "straddle", "certain"]))
    if kind == "wide":
        den = draw(st.integers(1, 1 << 4000))
        return draw(st.integers(1, den)), den
    scale = draw(st.sampled_from([1, 3, (1 << 2000) + 1, 7 ** 1500]))
    rng, prefix = random.Random(seed), 0
    chunks = draw(st.integers(1, 4))
    for _ in range(chunks):
        prefix = (prefix << 32) | rng.getrandbits(32)
    if kind == "dyadic":
        # num << 32 divisible by den: the first chunk's interval ends exactly at num/den
        offset = draw(st.integers(-1, 2))
        return max(0, (prefix >> 32 * (chunks - 1)) + offset) * scale, scale << 32
    if kind == "straddle":
        offset = draw(st.integers(-255, 255))
        return max(0, (prefix << 8) + offset) * scale, scale << (32 * chunks + 8)
    den = draw(st.integers(1, 1 << 3000))
    return draw(st.one_of(st.integers(-den, 0), st.integers(den, 2 * den))), den


@st.composite
def decision_cases(draw):
    seed = draw(st.integers(0, 1 << 32))
    return seed, draw(st.lists(decision_pairs(seed), min_size=1, max_size=3))


@settings(max_examples=500, deadline=None)
@given(decision_cases())
def test_decisions_match_the_interval_oracle(case):
    """``bernoulli`` and ``is_below`` answer as the interval test does and leave the stream where it does."""
    seed, pairs = case
    oracle_rng, lazy_rng = random.Random(seed), random.Random(seed)
    oracle, lazy = helpers.OracleUniform(oracle_rng), LazyUniform(lazy_rng)
    for num, den in pairs:  # one uniform asked again and again, as the subset coupling asks it
        assert lazy.is_below(num, den) == oracle.is_below(num, den)
        assert lazy_rng.getstate() == oracle_rng.getstate()
    num, den = pairs[0]
    oracle_rng, fresh_rng = random.Random(seed), random.Random(seed)
    assert bernoulli(fresh_rng, num, den) == helpers.OracleUniform(oracle_rng).is_below(num, den)
    assert fresh_rng.getstate() == oracle_rng.getstate()
    if num <= 0 or num >= den:
        assert fresh_rng.getstate() == random.Random(seed).getstate()  # certain: nothing drawn


@pytest.mark.parametrize("seed", [2.7, 2.0, "7", None, F(2)], ids=repr)
def test_non_integer_seeds_refused(seed):
    with pytest.raises(DomainError, match="a seed must be an integer"):
        derive_seed(seed, "chain")
    with pytest.raises(DomainError, match="a seed must be an integer"):
        SubtreeChain(["1", "1"], 10, seed=seed)


# (master seed and tokens, derived seed); pinned before non-integer seeds were refused
INT_SEED_STREAMS = [
    ((0,), 10508590740508340579),
    ((7, "chain"), 8467171884535280709),
    ((-3, "positions", (1, 2)), 8948289690682446580),
    ((2 ** 70, "sg8", 5), 16693249119682490946),
    ((np.int64(11), "chain"), 12382300729988755091),
    ((True, "chain"), derive_seed(1, "chain")),
]


@pytest.mark.parametrize("args, expected", INT_SEED_STREAMS)
def test_int_seed_streams_unchanged(args, expected):
    assert derive_seed(*args) == expected
    assert derive_rng(*args).getstate() == random.Random(expected).getstate()


# (w, d) of the tree pair, SHA-256 of four sampled chains to total 36; pinned from the
# Fraction tables, before the pair tables cleared denominators
GOLDEN_PAIR_CHAINS = {
    1: (["1/2", "1", "1/3"], "6ab2cfd465d84ad572bcc4ce4f83fa2e45c35c50f5e31b7f6aefb5c32a9db747"),
    2: (["1/2", "0", "1", "0", "1/3"], "5c5ef391a0926a38ae206acecaad0e77526758a0dc6c2a141e6052f92efa90d5"),
}


@pytest.mark.parametrize("d", sorted(GOLDEN_PAIR_CHAINS))
def test_golden_pair_chains(d):
    w_entries, digest = GOLDEN_PAIR_CHAINS[d]
    wp = helpers.tilted_tree_pair(w_entries, d, F(2, 3), F(3, 5))
    cls = ArithClass(d, 0)
    assert all(v.denominator > 1 for v in wp.a if v) and wp.b[3].denominator > 1
    assert check_admissibility_inequalities(wp, cls, N=36 // d).ok
    chains = [sample_composition_chain(wp, cls, 36, derive_rng(seed, "comp-golden")) for seed in range(4)]
    assert hashlib.sha256(json.dumps(chains).encode()).hexdigest() == digest


@pytest.mark.parametrize("entries, d, horizon", [
    ([1, 3, 3, 1], 1, 8),
    (["1/2", "1", "1/3"], 1, 8),
    ([1, 0, 2, 0, 1], 2, 9),
])
def test_step_prob_is_the_kernel_row_entry(entries, d, horizon):
    w = WeightSequence(entries)
    tables = compute_tables(w, d, N=horizon)
    for seed in range(12):
        chain = GrowthChain(w, d, horizon=horizon, rng=derive_rng(seed, "prob"), tables=tables)
        while chain.n + d <= horizon:
            before = chain.tree()
            step = chain.step()
            assert isinstance(step.prob, F)
            pair = growth_kernel_row(tables, before)[chain.tree_key()]
            assert pair == (prod(p for p, _ in step.factors), prod(q for _, q in step.factors))
            assert step.prob == F(*pair)


def walk_law(tables, t, parts):
    """Every move ``sample_move`` can draw from ``parts`` at total t, with the unreduced product of its ``factors``.

    A scripted ``decide`` says no to the first k uncertain decisions and
    yes to the next one; like ``bernoulli``, it never says yes where num is
    0.  k runs up from 0 until a walk makes k decisions or fewer, so each
    outcome of the walk is reached once.
    """
    law = {}
    for k in count():
        calls = []

        def decide(rng, num, den):
            if num:
                calls.append(num)
            return num > 0 and len(calls) > k

        factors = []
        move = tables.sample_move(t, parts, decide, None, factors)
        assert move not in law
        law[move] = (prod(p for p, _ in factors), prod(q for _, q in factors))
        if len(calls) <= k:
            return law


def row_or_refusal(row_fn, *args):
    """The row's pairs in order, or the type and message of its refusal."""
    try:
        return list(row_fn(*args).items())
    except TreegrowError as exc:
        return type(exc), str(exc)


def assert_kernel_row_is_the_reference(tables, t, parts):
    """``kernel_row`` against ``helpers.reference_kernel_row``, at the state and at states it refuses."""
    variants = [(t, parts), (t + 1, parts), (t + 1, (*parts[:-1], parts[-1] + 1))] if parts else [(t, parts)]
    if len(parts) >= 2:
        variants.append((t, (parts[0] + 1, parts[1] - 1, *parts[2:])))  # same total, a part off the support
    for state in variants:
        assert row_or_refusal(tables.kernel_row, *state) == row_or_refusal(helpers.reference_kernel_row,
                                                                             tables, *state)


def vertex_states(tree):
    """``(t, parts)`` at every vertex: its subtree size less one and its children's subtree sizes."""
    size = dict.fromkeys(tree.vertices, 1)
    for u in sorted(tree.vertices, key=len, reverse=True):
        if u:
            size[u[:-1]] += size[u]
    return {(size[v] - 1, tuple(size[v + (j,)] for j in range(1, tree.children_count(v) + 1)))
            for v in tree.vertices}


@pytest.mark.parametrize("entries, d, n_max", [
    ([1, 3, 3, 1], 1, 8),
    ([1, 0, 2, 0, 1], 2, 9),
    (SummableTheta(["1/2", "1/3", "1/4"]).e, 1, 8),
], ids=["sg-1331", "sg-arith-10201", "e-theta"])
def test_sampler_walk_is_the_kernel_row(entries, d, n_max):
    # kernel_row reads its row off the walk the chains run; the reference reads the step rows itself
    w = WeightSequence(entries)
    tables = compute_tables(w, d, N=n_max + d)
    states = {state for n in range(1, n_max + 1, d) for tree in sg_law(w, d, n) for state in vertex_states(tree)}
    for t, parts in sorted(states):
        assert list(walk_law(tables, t, parts).items()) == list(tables.kernel_row(t, parts).items())
        assert_kernel_row_is_the_reference(tables, t, parts)


def test_sampler_walk_is_the_kernel_row_on_compositions():
    # all weights 1: the first of the parts (1, 1) at total 2 moves with probability 0, most rows are refused
    for wp in (WeightPair([1, 3, 3, 1], [1, 1, 2, 5, 14, 42, 132, 429, 1430]), WeightPair([1, 1, 1, 1], [1] * 9)):
        tables = PairTables(wp)
        for t in range(wp.b.horizon):
            for c in iter_compositions(t):
                if wp.a[len(c)]:
                    assert row_or_refusal(walk_law, tables, t, c) == row_or_refusal(tables.kernel_row, t, c)
                assert_kernel_row_is_the_reference(tables, t, c)


def test_sample_move_refuses_a_part_without_mass():
    # w_2 = 0: the first of two parts at total 2 is off its step row's support, and no bit is drawn
    tables = compute_tables(WeightSequence([1, 1, 0, 0, 1]), 1, N=6)
    tables.step_probs(0, 2)
    rng = derive_rng(0, "off-support")
    state = rng.getstate()
    with pytest.raises(DomainError, match="part 1 carries no mass at total 2, shift 0"):
        tables.sample_move(2, [1, 1], bernoulli, rng, [])
    assert (0, 2, 1) not in tables._decisions and rng.getstate() == state


def test_sample_move_refuses_parts_off_the_total_before_any_decision():
    # the parts (1, 1) sum to 2, not 5: every seed is refused, none walks to an increment
    tables = compute_tables(WeightSequence([1, 3, 3, 1]), 1, N=10)
    for seed in range(200):
        with pytest.raises(DomainError, match="parts do not sum to the stated total"):
            tables.sample_move(5, [1, 1], bernoulli, random.Random(seed), [])


def test_a_decision_of_probability_zero_is_asked_without_a_factor():
    tables = PairTables(WeightPair([1, 1, 1, 1], [1] * 9))
    asked, factors = [], []
    move = tables.sample_move(2, (1, 1), lambda rng, num, den: asked.append((num, den)), None, factors)
    assert move == ("append", 2) and asked == [(0, 4), (1, 2)] and factors == [(1, 2)]
    # bernoulli says no to the first decision without a bit, then draws one for the second
    rng, factors = derive_rng(0, "zero"), []
    state = rng.getstate()
    assert tables.sample_move(2, (1, 1), bernoulli, rng, factors) in {("inc", 1), ("append", 2)}
    assert factors == [(1, 2)] and rng.getstate() != state


class OnePairKernel(PartitionKernel):
    """A kernel whose step row at shift 0 and total 1 gives part 1 the pair ``(qn, qd)``, ``0 <= qn <= qd``.

    The row is a real ``StepRow``: with ``cl = [1]`` and ``ch = [qd - qn, qd]``
    its pair at 0 is ``(qd - (qd - qn), qd)``.
    """

    def __init__(self, qn, qd):
        super().__init__(1, 2, 1, 1, 2, False)
        self.row = StepRow([1], [qd - qn, qd], None, None)

    def step_probs(self, ell, t):
        assert (ell, t) == (0, 1)
        return self.row


class ScriptedRandom(random.Random):
    """A seeded stream whose first 32-bit chunk is ``first``; counts the chunks handed out."""

    def __init__(self, seed, first):
        super().__init__(seed)
        self.script, self.chunks = [first], 0

    def getrandbits(self, k):
        assert k == 32
        self.chunks += 1
        return self.script.pop() if self.script else super().getrandbits(k)


@st.composite
def cut_cases(draw):
    """``(seed, qn, qd, first)``: certain pairs, pairs with ``qd | qn 2^32``, and wide ones; the first
    chunk is the cut, one off it, or drawn."""
    kind = draw(st.sampled_from(["zero", "one", "exact", "wide"]))
    qd = draw(st.integers(1, 1 << draw(st.sampled_from([8, 40, 200]))))
    if kind == "exact":
        # qd = g 2^s with s <= 32 and qn = x g, x < 2^s: qn 2^32 / qd = x 2^(32 - s)
        s = draw(st.integers(1, 32))
        x = draw(st.integers(1, (1 << s) - 1))
        qd, qn = qd << s, x * qd
    else:
        qn = {"zero": 0, "one": qd}[kind] if kind != "wide" else draw(st.integers(1, qd))
    cut = (qn << 32) // qd
    first = draw(st.sampled_from([cut, cut - 1, cut + 1, None])) if 0 < qn < qd else None
    if first is None or not 0 <= first < 1 << 32:
        first = random.Random(draw(st.integers(0, 1 << 32))).getrandbits(32)
    return draw(st.integers(0, 1 << 32)), qn, qd, first


@settings(max_examples=500, deadline=None)
@given(cut_cases())
@example((5, 1, 3, (1 << 32) // 3))            # the first chunk is the cut and straddles 1/3: refined
@example((5, 1, 4, 1 << 30))                   # the cut of 1/4 is exact: no at the cut, without a second chunk
@example((5, 0, 7, 0))
@example((5, 7, 7, 0))
def test_cut_decides_as_bernoulli(case):
    """The chains' test against the cut gives ``bernoulli``'s answer from the same number of chunks."""
    seed, qn, qd, first = case
    kernel, walk_rng, reference_rng = OnePairKernel(qn, qd), ScriptedRandom(seed, first), ScriptedRandom(seed, first)
    factors = []
    moved = kernel.sample_move(1, [1], None, walk_rng, factors) == ("inc", 0)
    assert moved == bernoulli(reference_rng, qn, qd)
    assert walk_rng.chunks == reference_rng.chunks and walk_rng.getstate() == reference_rng.getstate()
    certain = qn in (0, qd)
    assert kernel._decisions == {(0, 1, 1): (qn, qd, None if certain else (qn << 32) // qd)}
    assert factors == ([] if certain else [(qn, qd)] if moved else [(qd - qn, qd)])
    if certain:
        assert walk_rng.chunks == 0
    elif first == (qn << 32) // qd:
        # the first chunk is the cut: it decides alone only when qd divides qn 2^32
        assert (walk_rng.chunks == 1) == ((qn << 32) % qd == 0)


class PairWalk:
    """Tables whose ``sample_move`` decides every part with the given ``decide``."""

    def __init__(self, tables, decide):
        self.tables, self.decide = tables, decide

    def sample_move(self, t, parts, decide, rng, factors):
        return self.tables.sample_move(t, parts, self.decide, rng, factors)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("entries, d, N", [([1, 3, 3, 1], 1, 300), ([1, 0, 2, 0, 1], 2, 301)], ids=["1331", "10201-d2"])
def test_chain_walk_is_the_bernoulli_walk_at_large_totals(entries, d, N, seed):
    """From the same seed the cut test and ``bernoulli`` make the same moves with the same factors."""
    tables = compute_tables(WeightSequence(entries), d, N, _keep_sums=True)
    walks = []
    for decide in (None, bernoulli):
        chain = GrowthChain(entries, d, horizon=N, rng=derive_rng(seed, "chain"), tables=tables)
        chain.tables = PairWalk(tables, decide)
        walks.append([(step.parent, step.new_vertices, step.factors) for step in chain.run()])
    assert walks[0] == walks[1] and len(walks[0]) == (N - 1) // d
    assert max(len(parent) for parent, _, _ in walks[0]) >= 5
