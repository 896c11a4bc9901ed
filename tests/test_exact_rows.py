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
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from treegrow._rand import LazyUniform, bernoulli, derive_rng
from treegrow.compositions import (ArithClass, PairTables, WeightPair, check_admissibility_inequalities,
                                   sample_composition_chain)
from treegrow.errors import NotCoupleable, ZeroMassError
from treegrow.sgtrees import GrowthChain, WeightSequence, compute_tables, growth_kernel_row, tilt

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
    """Move probabilities from Fraction laws built out of ``partition_value`` and ``b_weight``."""
    d = tables.d

    def law(total):
        z = tables.partition_value(ell, total)
        if z == 0:
            raise ZeroMassError(f"no mass at total {total} for shift {ell}")
        masses = {}
        for mt in range((total - 1) // d + 1):
            mass = tables.b_weight(mt * d + 1) * tables.partition_value(ell + 1, total - mt * d - 1)
            if mass:
                masses[mt] = mass / z
        return masses

    return helpers.monotone_move_probs(law(t), law(t + d))


def fraction_row(tables, ell, t):
    return {m: F(num, den) for m, (num, den) in tables.step_probs(ell, t).items()}


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
            assert step.prob == growth_kernel_row(tables, before)[chain.tree()]
