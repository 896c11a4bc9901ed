"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every exact criterion
is asserted with rational equality; the statistical criteria run fixed
seed batteries whose draws compare exact integer thresholds, so reruns
are bit-reproducible.
"""

import random
import time
from fractions import Fraction as F

import numpy as np

import helpers
from treegrow._rand import derive_rng
from treegrow.cli import main as cli_main
from treegrow.compositions import ArithClass, PairTables
from treegrow.oracle import (enumerate_plane_trees, enumerate_subtrees, goodness_of_fit,
                             janson_expectations, sg_law, st_law, subset_law, tv_distance)
from treegrow.sgtrees import (GrowthChain, WeightSequence, check_ratio_chain, check_tp2_array,
                              compute_tables, growth_kernel, is_log_concave)
from treegrow.subtree_model import (SubtreeChain, SummableTheta, bij_P, bij_P_inv, nested_coupling_law,
                                    nested_thresholds)
from treegrow.treespace import is_bouquet_addition, is_right_leaning_leaf_addition

from helpers import (apply_shuffle, check_equivariance, inverse_shuffle, pointwise_inverse, push_forward, shift,
                     shuffle_invariance_check, sigma_rule)


def report(number, ok, detail):
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def push_through(law, rows):
    pushed = {}
    for tree, mass in law.items():
        for tree2, p in helpers.growth_law(rows, tree).items():
            pushed[tree2] = pushed.get(tree2, F(0)) + mass * p
    return {t: m for t, m in pushed.items() if m}


def test_c01_kernel_interchange_plain():
    started = time.time()
    weights = ([1] * 8, [1, 3, 3, 1], [1, 1, 1, 1, 1])
    for entries in weights:
        w = WeightSequence(entries)
        rows = growth_kernel(compute_tables(w, 1, N=7))
        for n in range(1, 7):
            assert push_through(sg_law(w, 1, n), rows) == sg_law(w, 1, n + 1)
    elapsed = time.time() - started
    report(1, elapsed < 60,
           f"exact interchange for 3 weight sequences, n <= 6 (42 trees at n=6), {elapsed:.1f}s")


def test_c02_kernel_interchange_arithmetic():
    w2 = WeightSequence([1, 0, 1])
    rows2 = growth_kernel(compute_tables(w2, 2, N=9))
    for n in (1, 3, 5, 7):
        assert push_through(sg_law(w2, 2, n), rows2) == sg_law(w2, 2, n + 2)
    w3 = WeightSequence([2, 0, 0, 1])
    rows3 = growth_kernel(compute_tables(w3, 3, N=9))
    for n in (1, 4):
        assert push_through(sg_law(w3, 3, n), rows3) == sg_law(w3, 3, n + 3)
    sizes = []
    for n in (1, 3, 5, 7, 9):
        law = sg_law(w2, 2, n)
        assert len(set(law.values())) == 1  # uniform on its support
        sizes.append(len(law))
    assert sizes == [1, 1, 2, 5, 14]
    report(2, True, "arithmetic interchange exact to 9 vertices; uniform supports 1,1,2,5,14")


BATTERY_MODELS = (
    (WeightSequence([1] * 12), 1, 12),
    (WeightSequence([1, 0, 1]), 2, 13),
    (WeightSequence([2, 0, 0, 1]), 3, 13),
)


def test_c03_growth_shape_battery():
    checked = 0
    for w, d, horizon in BATTERY_MODELS:
        tables = compute_tables(w, d, N=horizon)
        for i in range(10_000):
            chain = GrowthChain(w, d=d, horizon=horizon,
                                rng=derive_rng(1000, "shape", d, i), tables=tables)
            before = chain.tree()
            while chain.n + d <= horizon:
                chain.step()
                after = chain.tree()
                ok = (is_right_leaning_leaf_addition(before, after) if d == 1
                      else is_bouquet_addition(before, after, d))
                assert ok, f"bad step in model d={d}, chain {i}"
                checked += 1
                before = after
    report(3, True, f"10^4 chains per model, {checked} steps, all right-leaning additions")


# (entries, d, kernel rows from trees of at most 7 vertices, their SHA-256 pinned from the
# table builders that the peeling recursion replaced)
PINNED_ROWS = (
    ([1] * 9, 1, 197, "e841130f3ab64f56890407899de7a73d0dc47b87924f6bcd7fd7d33727120c53"),
    ([1, 0, 1], 2, 9, "45eb908ae10283e167bc486a523e7d01be3f3d6c007693ee0e6da3729987b694"),
    ([2, 0, 0, 1], 3, 5, "02b77657b68d2cbe3df2142de704b6f67b52b8a3edd201d2c683aa635a7c819c"),
)


# (w, d, s) of a tilted tree pair shifted into the class (d, s), composition_kernel rows from
# every composition of the class with total <= 10, their SHA-256 pinned from the recursive rows
PINNED_COMPOSITION_ROWS = (
    (["1/2", "1", "1", "1/3"], 1, 0, 1024,
     "46922259ddff36ae2953320d278059392cb9f4cbd7ac13d4a75c101e8340e8a1"),
    (["1/2", "0", "1", "0", "1", "0", "1/3"], 2, 1, 55,
     "5deefe1bbc13d0fe7aaaa8d19ae7b04fe01e07a30a5cc7b98684deac77897e0e"),
    (["1", "0", "0", "2", "0", "0", "1"], 3, 0, 19,
     "747ff6f9c2e646e7c6f3bf02219e4e2d4178c59f7bf224376da84aa60350ab2c"),
)


def test_c04_peeling_recursion_exact():
    checked = 0
    for entries, d, n_rows, digest in PINNED_ROWS:
        w = WeightSequence(entries)
        tables = compute_tables(w, d, N=7 + d)
        for n in range(1, 8 + d):
            assert tables.b_value(n) == helpers.tree_mass_sum(w, n, d)
            checked += 1
        for ell in range(tables.r + 1):
            for t in range(0, 7 + d):
                assert tables.partition_value(ell, t) == helpers.composition_sum(w, tables.b_value, ell, t)
                checked += 1
        assert helpers.kernel_rows_digest(tables, w, d, 7) == (n_rows, digest)
    for entries, d, s, n_rows, digest in PINNED_COMPOSITION_ROWS:
        tree_pair = helpers.tilted_tree_pair(entries, d, F(2, 3), F(3, 5), horizon=10 + d)
        wp = shift(tree_pair, -s % d, ArithClass(d, 0))
        tables = PairTables(wp, ArithClass(d, s), total_horizon=10 + d)
        assert helpers.composition_rows_digest(tables, 10) == (n_rows, digest)
    report(4, True, f"peeling recursion equals enumeration on {checked} table values; "
                    f"{sum(r[2] for r in PINNED_ROWS)} tree and "
                    f"{sum(r[3] for r in PINNED_COMPOSITION_ROWS)} composition kernel rows "
                    f"match their pinned digests")


LOG_CONCAVE_WEIGHTS = (
    ([1] * 24, 1),
    ([1, 3, 3, 1], 1),
    ([1, 1, 1, 1, 1], 1),
    ([1, 0, 1], 2),
    ([2, 0, 0, 1], 3),
)


def test_c05_inequality_suites():
    for entries, d in LOG_CONCAVE_WEIGHTS:
        w = WeightSequence(entries)
        tables = compute_tables(w, d, N=22 * d + 1)
        chain_report = check_ratio_chain(tables, n_max=20)
        assert chain_report.ok, (entries, chain_report.failures[:2])
        tp2_report = check_tp2_array(w, d, 20 * d + 1)
        assert tp2_report.ok, (entries, tp2_report.failures[:2])
    janson = is_log_concave(["2/5", "1/5", "2/5"])
    assert not janson.ok and janson.witness == 1
    exit_code = cli_main(["grow", "--model", "sg", "--w", "2/5,1/5,2/5", "--n", "5"])
    assert exit_code == 2
    report(5, True, "ratio chains and TP2 arrays clean to n=20; non-log-concave weights refused (exit 2)")


def test_c06_janson_obstruction():
    e3, e4 = janson_expectations(F(1, 5))
    assert (e3, e4) == (F(9, 5), F(21, 13))
    assert e3 > e4
    report(6, True, "root-degree expectations (9/5, 21/13) at sizes (3, 4), strictly decreasing")


def test_c07_bijection_and_groupoid():
    round_trips = 0
    for dmax, n_max in ((3, 5), (2, 6)):
        for n in range(1, n_max + 1):
            for tau in enumerate_subtrees(n, dmax=dmax):
                tree, decorations = bij_P(tau)
                assert all(len(decorations[u]) == tree.children_count(u) for u in tree.vertices)
                assert bij_P_inv(tree, decorations) == tau
                round_trips += 1
    rng = random.Random(77)
    for _ in range(1000):
        tau = helpers.random_subtree(rng)
        g = helpers.random_shuffle_for(tau, rng)
        h = helpers.random_shuffle_for(tau, rng)
        x = {u: rng.randint(0, 9) for u in tau.vertices}
        image = apply_shuffle(tau, g)
        ginv = inverse_shuffle(g, tau)
        assert apply_shuffle(image, ginv) == tau
        assert ginv == push_forward(g, tau, pointwise_inverse(g))
        mapping = push_forward(g, tau, {u: u for u in tau.vertices})
        for v, u in mapping.items():
            assert set(image.children_positions(v)) == {g[u][i] for i in tau.children_positions(u)}
            assert len(image.children_positions(v)) == len(tau.children_positions(u))
        f = lambda s: s * 3 + 1
        assert push_forward(g, tau, {u: f(s) for u, s in x.items()}) == \
            {v: f(s) for v, s in push_forward(g, tau, x).items()}
        assert pointwise_inverse(push_forward(g, tau, h)) == push_forward(g, tau, pointwise_inverse(h))
    report(7, True, f"{round_trips} bijection round trips and 1000 randomized groupoid instances clean")


def test_c08_subtree_model_exactness():
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
    tables = compute_tables(w, 1, N=6)
    for n in range(1, 7):
        total = F(0)
        for tau in enumerate_subtrees(n, positions=theta.support):
            m = F(1)
            for u in tau.vertices:
                if u:
                    m *= theta.value(u[-1])
            total += m
        assert total == tables.b_value(n)
    report(8, True, "mass factorization term-by-term to n=5; normalizations equal tree masses to n=6")


def test_c09_nested_subset_coupling():
    for values in (["2", "1"], ["1", "1", "1"], ["1/2", "1/3", "1/4", "1/5"]):
        theta = SummableTheta(values)
        law = nested_coupling_law(theta)
        for k in range(0, theta.n_support + 1):
            marginal = {}
            for seq, mass in law.items():
                key = frozenset(seq[:k])
                marginal[key] = marginal.get(key, F(0)) + mass
            assert marginal == subset_law(theta, k)
        thresholds = nested_thresholds(theta)
        assert all(a <= b for a, b in zip(thresholds, thresholds[1:]))
        for seq in law:
            assert len(set(seq)) == theta.n_support and set(seq) == set(theta.support)
            prefixes = [frozenset(seq[:k]) for k in range(theta.n_support + 1)]
            assert all(a < b for a, b in zip(prefixes, prefixes[1:]))
    report(9, True, "exact joint laws have the right prefix marginals; thresholds and chains monotone")


def _subtree_battery(theta_values, seeds, chains_per_seed, levels=(3, 4, 5)):
    theta = SummableTheta(theta_values)
    w = WeightSequence(theta.e)
    tables = compute_tables(w, 1, N=max(levels))
    kernels = helpers.LevelKernels(tables, w, 1, max(levels))
    exact = {}
    cond = {}
    sub_states = {}
    for n in levels:
        law = st_law(theta, n)
        states = sorted((t.vertices for t in law), key=sorted)
        index = {k: i for i, k in enumerate(states)}
        sub_states[n] = states
        exact[n] = ({t.vertices: m for t, m in law.items()}, index)
        cond[n] = helpers.conditional_embedding_laws(theta, kernels.states[n], index)
    per_seed_p = {n: [] for n in levels}
    pooled = {n: np.zeros(len(sub_states[n]), dtype=np.int64) for n in levels}
    first_seed_tv = {}
    for s in range(seeds):
        rng = np.random.default_rng(550_000 + s)
        tree_counts = kernels.run_chains(chains_per_seed, rng, record=levels)
        for n in levels:
            law, index = exact[n]
            counts_vec = helpers.draw_embeddings(tree_counts[n], cond[n], len(sub_states[n]), rng)
            pooled[n] += counts_vec
            counts = {sub_states[n][i]: int(c) for i, c in enumerate(counts_vec) if c}
            gof = goodness_of_fit(counts, law)
            per_seed_p[n].append(gof.p_value)
            if s == 0:
                first_seed_tv[n] = gof.tv
    pooled_tv = {}
    for n in levels:
        law, _ = exact[n]
        counts = {sub_states[n][i]: int(c) for i, c in enumerate(pooled[n]) if c}
        pooled_tv[n] = tv_distance(counts, int(pooled[n].sum()), law)
    passing = sum(1 for s in range(seeds)
                  if all(per_seed_p[n][s] > 0.001 for n in levels))
    return passing, first_seed_tv, pooled_tv


def test_c10_subtree_coupling():
    # stepwise inclusion on real sampled chains
    for values in (["1", "1"], ["2", "1", "1"]):
        theta = SummableTheta(values)
        tables = compute_tables(WeightSequence(theta.e), 1, N=20)
        for i in range(10_000):
            chain = SubtreeChain(values, horizon=20, seed=910_000 + i, tables=tables)
            prev = set(chain.subtree_key())
            while chain.n < 20:
                new = chain.step()
                assert new not in prev and new[:-1] in prev
                prev.add(new)
    # marginal battery: 100 seeds x 1e5 chains, exact-threshold sampling
    detail = []
    for values in (["1", "1"], ["2", "1", "1"]):
        passing, first_tv, pooled_tv = _subtree_battery(values, seeds=100, chains_per_seed=100_000)
        assert passing >= 95, (values, passing)
        for n, tv in pooled_tv.items():
            assert tv < F(1, 100), (values, n, float(tv))
        if values == ["1", "1"]:
            # the stated 1e5-sample tolerance is attainable here per seed
            for n, tv in first_tv.items():
                assert tv < F(1, 100), (values, n, float(tv))
        else:
            # at 273 reachable subtrees the expected TV of a perfect sampler
            # already exceeds 0.01 at 1e5 samples; the bound is asserted on
            # the pooled battery above, and per-seed at the smallest level
            assert first_tv[3] < F(1, 100)
        detail.append(f"theta={','.join(values)}: {passing}/100 seeds, "
                      f"pooled TV {max(float(v) for v in pooled_tv.values()):.4f}")
    report(10, True, "; ".join(detail))


def test_c11_statistical_marginals_sg():
    w = WeightSequence([1] * 9)
    tables = compute_tables(w, 1, N=8)
    kernels = helpers.LevelKernels(tables, w, 1, 8)
    law = sg_law(w, 1, 8)
    states = kernels.states[8]
    law_by_key = {t.vertices: m for t, m in law.items()}
    assert len(states) == 429 and set(law_by_key.values()) == {F(1, 429)}
    passing = 0
    pooled = np.zeros(len(states), dtype=np.int64)
    for s in range(100):
        rng = np.random.default_rng(770_000 + s)
        counts_vec = kernels.run_chains(100_000, rng, record=(8,))[8]
        pooled += counts_vec
        counts = {states[i].vertices: int(c) for i, c in enumerate(counts_vec) if c}
        gof = goodness_of_fit(counts, law_by_key)
        if gof.p_value > 0.001:
            passing += 1
    assert passing >= 95, passing
    pooled_counts = {states[i].vertices: int(c) for i, c in enumerate(pooled) if c}
    pooled_tv = tv_distance(pooled_counts, int(pooled.sum()), law_by_key)
    assert pooled_tv < F(1, 100), float(pooled_tv)
    # cross-check the step-by-step sampler itself at the same size
    counts = {}
    for i in range(100_000):
        chain = GrowthChain(w, horizon=8, rng=derive_rng(42, "t8", i), tables=tables)
        while chain.n < 8:
            chain.step()
        key = chain.tree_key()
        counts[key] = counts.get(key, 0) + 1
    gof = goodness_of_fit(counts, law_by_key)
    assert gof.p_value > 0.001, gof.p_value
    report(11, True,
           f"battery {passing}/100 seeds at p>0.001, pooled TV {float(pooled_tv):.4f}; "
           f"direct sampler p={gof.p_value:.3f}")


def test_c12_shuffling_invariance():
    import itertools

    def rank_rule(tree, x, u):
        return sigma_rule(tree.children_count(u), x[u])

    nu = dict(nested_coupling_law(["2", "1"]))
    w = WeightSequence(SummableTheta(["2", "1"]).e)
    invariance = shuffle_invariance_check(w, nu, rank_rule, 4)
    assert invariance.ok

    def crooked_rule(tree, x, u):
        k = tree.children_count(u)
        if k >= 1 and x[u + (1,)] == "a":
            return tuple(range(k, 0, -1))
        return tuple(range(1, k + 1))

    instances = []
    for tree in enumerate_plane_trees(3):
        vertices = tree.sorted_vertices()
        for combo in itertools.product("ab", repeat=len(vertices)):
            instances.append((tree, dict(zip(vertices, combo))))
    detection = check_equivariance(crooked_rule, instances)
    assert not detection.ok
    report(12, True,
           f"two-symbol product law invariant under the rank rule (checked {invariance.checked} states); "
           f"planted non-equivariant rule detected")
