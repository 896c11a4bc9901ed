"""Test oracles, views and checkers, and bulk exact-threshold trajectory sampling.

The oracles, views and checkers here are read only by the tests: brute-force
laws and masses, covering moves and shifts of compositions, composition
kernel rows as Fractions, elementary symmetric functions, the ordering
draw with one ``LazyUniform`` per level that the cut-ladder draw must
match, and the shuffle calculus of subtrees (shuffles, push forwards and
their inverses, the rank rule, the equivariance checker of shuffling rules
and the exact checker of their invariance), which the subtree chain does
not run.

The growth chains live on enumerable state spaces at desk scale, so their
one-step kernels can be materialized exactly and trajectories sampled in
bulk: each categorical draw compares a uniform integer below the row's
common denominator against exact cumulative thresholds, so no rounding
enters anywhere.  numpy only vectorizes the integer comparisons.
"""

import hashlib
import itertools
import json
import math
import operator
import os
import subprocess
import sys
from fractions import Fraction
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from treegrow._rand import LazyUniform
from treegrow.compositions import (ONE, PLAIN, ZERO, ArithClass, CheckReport, Composition, PairTables, WeightPair,
                                   apply_move, as_fraction, cleared, iter_compositions, peel_partition_values)
from treegrow.errors import DomainError, NotCoupleable, ParseError, TreegrowError, ZeroMassError
from treegrow.oracle import InterchangeReport, _normalized, enumerate_plane_trees, enumerate_subtrees, sg_law
from treegrow.sgtrees import PartitionTables, WeightSequence, compute_tables, growth_kernel
from treegrow.subtree_model import (PositionMap, SubtreeChain, _image_map, bij_P_inv, coerce_theta, left_packing,
                                    nested_coupling_law)
from treegrow.treespace import (ROOT, CountWord, PlaneTree, RootedSubtree, Word, child_count_word, child_sizes,
                                format_tree, from_child_count_word, is_bouquet_addition, is_right_leaning_leaf_addition,
                                parse_tree, word_to_text)


def covering_successors(c: Composition, d: int = 1) -> List[Composition]:
    """All compositions covering ``c``: one part incremented by d, or d parts 1 appended."""
    if d < 1:
        raise DomainError("d must be >= 1")
    out = [c[:j] + (c[j] + d,) + c[j + 1:] for j in range(len(c))]
    out.append(c + (1,) * d)
    return out


def satisfies_arith(c: Composition, cls: ArithClass) -> bool:
    """True iff the part count is s mod d and every part is 1 mod d."""
    if len(c) % cls.d != cls.s:
        return False
    return all(p % cls.d == 1 % cls.d for p in c)


def shift(wp: WeightPair, ell: int, cls: ArithClass = PLAIN) -> WeightPair:
    """Drop the first ``ell`` count weights, keeping the part weights.

    Fails if the shifted pair is degenerate for the correspondingly
    shifted arithmetic class.
    """
    if ell < 0:
        raise DomainError("shift must be non-negative")
    if ell == 0:
        return wp
    shifted = WeightPair(wp.a.entries[ell:], wp.b.entries[1:])
    new_cls = ArithClass(cls.d, (cls.s - ell) % cls.d)
    shifted.check_nondegenerate(new_cls)
    return shifted


def composition_kernel(tables: PairTables, c: Composition) -> Dict[Composition, Fraction]:
    """Exact one-step law on compositions of ``sum(c) + d`` given the current composition c.

    The tables must reach total ``sum(c) + d``; share one ``PairTables``
    across the rows of a pair.
    """
    cls = tables.cls
    if not satisfies_arith(c, cls):
        raise DomainError(f"composition {c} violates the (d={cls.d}, s={cls.s}) condition")
    return {apply_move(c, move, tables.d): Fraction(*p) for move, p in tables.kernel_row(sum(c), c).items()}


def comp_law(wp: WeightPair, n: int, cls: ArithClass = PLAIN) -> Dict[Composition, Fraction]:
    """Composition law from raw products; a part weight past the horizon of ``wp.b`` raises HorizonError.

    The count weights are cleared by ``La`` and each part weight ``b_p`` by
    ``Lb^p``, so every composition of n carries the scale ``La Lb^n``.
    """
    _, a = cleared(wp.a.entries)
    lb, b = cleared(wp.b.entries[1:])
    b = [0] + [v * lb ** (p - 1) for p, v in enumerate(b, 1)]
    masses = {}
    for c in iter_compositions(n, cls):
        mass = a[len(c)] if len(c) < len(a) else 0
        for p in c:
            if not mass:
                break
            if p >= len(b):
                wp.b[p]  # past the declared horizon: raises HorizonError
            mass *= b[p]
        if mass:
            masses[c] = mass
    return _normalized(masses)


def tree_mass(w, tree: PlaneTree):
    """The product of ``w_k`` over the vertices, k the vertex's child count.

    ``w`` is a ``WeightSequence`` or the integer list of ``cleared_weights``.
    Every child count is read, past a zero weight too, so a tree that reads
    ``w`` past a declared horizon fails whatever the order of its vertices.
    """
    return math.prod(map(w.__getitem__, child_count_word(tree)))


# ---------------------------------------------------------------------------
# the shuffle calculus: per-vertex injective repositioning of children

Shuffle = Dict[Word, PositionMap]


def _check_shuffle(tau: RootedSubtree, g: Shuffle):
    for u in tau.vertices:
        gu = g.get(u)
        if gu is None:
            raise DomainError(f"shuffle missing a map at vertex {u!r}")
        positions = set(tau.children_positions(u))
        if set(gu.keys()) != positions:
            raise DomainError(f"shuffle map at {u!r} has domain {sorted(gu)} instead of {sorted(positions)}")
        images = list(gu.values())
        if len(set(images)) != len(images):
            raise DomainError(f"shuffle map at {u!r} is not injective")
        if any(i < 1 for i in images):
            raise DomainError(f"shuffle map at {u!r} has non-positive images")


def apply_shuffle(tau: RootedSubtree, g: Shuffle) -> RootedSubtree:
    """Reposition the children of every vertex of ``tau`` through ``g``."""
    _check_shuffle(tau, g)
    return RootedSubtree(_image_map(tau, g).values())


def push_forward(g: Shuffle, tau: RootedSubtree, x: Mapping[Word, object]) -> Dict[Word, object]:
    """Transport a per-vertex tuple along the relabelling induced by ``g``."""
    _check_shuffle(tau, g)
    image = _image_map(tau, g)
    if set(x.keys()) != set(tau.vertices):
        raise DomainError("tuple is not indexed by the vertices of the subtree")
    return {image[u]: x[u] for u in tau.vertices}


def sigma_rule(k: int, x: Sequence[int]) -> Tuple[int, ...]:
    """Permutation of 1..k: position j goes to the rank of x_j among x_1..x_k."""
    if k < 0 or k > len(x):
        raise DomainError(f"need 0 <= k <= {len(x)}, got {k}")
    packed = left_packing(x[:k])
    return tuple(packed[x[j]] for j in range(k))


def _rule_collection(rule, tree: PlaneTree, x: Mapping[Word, object]) -> Shuffle:
    out: Shuffle = {}
    for u in tree.vertices:
        k = tree.children_count(u)
        perm = tuple(rule(tree, x, u))
        if sorted(perm) != list(range(1, k + 1)):
            raise DomainError(f"rule returned {perm} at a vertex with {k} children")
        out[u] = {j + 1: perm[j] for j in range(k)}
    return out


def shuffle_invariance_check(w, decoration_law: Mapping[object, Fraction], rule, n_max: int) -> CheckReport:
    """Verify that shuffling by an equivariant rule preserves the decorated law.

    Sums the exact product measure (tree law times independent per-vertex
    decorations) over the full finite space of decorated trees of each
    size up to ``n_max`` and compares it with its image under the rule's
    shuffle, term by term.
    """
    report = CheckReport(name="shuffle-invariance")
    alphabet = list(decoration_law.keys())
    if sum(decoration_law.values()) != 1:
        raise DomainError("decoration law must be a probability law")
    for n in range(1, n_max + 1):
        tree_law = sg_law(w, 1, n)
        original: Dict[Tuple, Fraction] = {}
        image: Dict[Tuple, Fraction] = {}
        for tree, tree_mass in tree_law.items():
            vertices = tree.sorted_vertices()
            for combo in itertools.product(alphabet, repeat=len(vertices)):
                x = dict(zip(vertices, combo))
                mass = tree_mass
                for sym in combo:
                    mass *= decoration_law[sym]
                if mass == 0:
                    continue
                key = (tree.vertices, tuple(sorted(x.items())))
                original[key] = original.get(key, ZERO) + mass
                sigma = _rule_collection(rule, tree, x)
                new_tree = apply_shuffle(tree, sigma)
                new_x = push_forward(sigma, tree, x)
                key2 = (new_tree.vertices, tuple(sorted(new_x.items())))
                image[key2] = image.get(key2, ZERO) + mass
        keys = set(original) | set(image)
        for key in keys:
            report.record(original.get(key, ZERO) == image.get(key, ZERO),
                          n=n, state=str(key), original=original.get(key, ZERO),
                          image=image.get(key, ZERO))
    return report


def inverse_shuffle(g: Shuffle, tau: RootedSubtree) -> Shuffle:
    """The unique shuffle over ``g . tau`` undoing ``g`` vertex by vertex."""
    _check_shuffle(tau, g)
    image = _image_map(tau, g)
    return {image[u]: {i2: i1 for i1, i2 in g[u].items()} for u in tau.vertices}


def pointwise_inverse(g: Shuffle) -> Shuffle:
    """Invert each per-vertex map in place (still indexed by the source tree)."""
    return {u: {i2: i1 for i1, i2 in gu.items()} for u, gu in g.items()}


def elementary_symmetric(values: Sequence) -> List[Fraction]:
    """Elementary symmetric functions e_0..e_n of the n given values."""
    vals = [as_fraction(v) for v in values]
    e = [ONE] + [ZERO] * len(vals)
    for size, v in enumerate(vals, 1):
        for k in range(size, 0, -1):
            e[k] += v * e[k - 1]
    return e


def _all_permutation_collections(tree: PlaneTree):
    """Every grading-compatible collection of per-vertex permutations of the tree."""
    vertices = tree.sorted_vertices()
    choices = [list(itertools.permutations(range(1, tree.children_count(u) + 1))) for u in vertices]
    for combo in itertools.product(*choices):
        yield {u: {j + 1: perm[j] for j in range(len(perm))} for u, perm in zip(vertices, combo)}


def check_equivariance(rule, instances) -> CheckReport:
    """Exhaustively test a shuffling rule for equivariance and reversibility.

    For every supplied (tree, decorations) instance and every collection
    of per-vertex permutations pi, the rule evaluated on the permuted
    decorated tree must be the push-forward of the rule on the original;
    additionally the shuffle produced by the rule must be undone by the
    rule evaluated on its own output.
    """
    report = CheckReport(name="equivariance")
    for tree, x in instances:
        sigma = _rule_collection(rule, tree, x)
        for pi in _all_permutation_collections(tree):
            permuted_tree = PlaneTree(apply_shuffle(tree, pi).vertices)
            permuted_x = push_forward(pi, tree, x)
            lhs = _rule_collection(rule, permuted_tree, permuted_x)
            rhs = push_forward(pi, tree, sigma)
            report.record(lhs == rhs, instance=repr(tree), check="rule-commutes-with-relabelling")
        # reversibility through the rule on the shuffled output
        shuffled_tree = PlaneTree(apply_shuffle(tree, sigma).vertices)
        shuffled_x = push_forward(sigma, tree, x)
        sigma_back = _rule_collection(rule, shuffled_tree, shuffled_x)
        inv = inverse_shuffle(sigma, tree)
        report.record(pointwise_inverse(sigma_back) == inv,
                      instance=repr(tree), check="reverse-shuffle-identity")
        back_tree = apply_shuffle(shuffled_tree, pointwise_inverse(sigma_back))
        report.record(back_tree.vertices == tree.vertices, instance=repr(tree),
                      check="unshuffle-restores-tree")
        back_x = push_forward(pointwise_inverse(sigma_back), shuffled_tree, shuffled_x)
        report.record(back_x == dict(x), instance=repr(tree), check="unshuffle-restores-decorations")
    return report




def random_subtree(rng, n_max=5, positions=(1, 2, 3)):
    n = rng.randint(1, n_max)
    pool = enumerate_subtrees(n, positions=positions)
    return pool[rng.randrange(len(pool))]


def random_shuffle_for(tau, rng, span=9):
    g = {}
    for u in tau.vertices:
        positions = tau.children_positions(u)
        images = rng.sample(range(1, span + 1), len(positions))
        g[u] = dict(zip(positions, images))
    return g


def tree_mass_sum(w, n, d=1):
    """Total mass of the n-vertex plane trees with out-degrees in dZ: the enumeration side of b_n."""
    return sum((tree_mass(w, tree) for tree in enumerate_plane_trees(n, d)), Fraction(0))


def composition_sum(w, b, ell, t):
    """Raw partition value: sum over compositions c of t of w_{len(c)+ell} * prod b_{c_i}."""
    total = Fraction(0)
    for c in iter_compositions(t):
        mass = w[len(c) + ell]
        for p in c:
            mass *= b(p)
        total += mass
    return total


def toeplitz_tp2(xs, window):
    """Whether every 2x2 minor of the Toeplitz matrix ``(x_{i-j})``, 0 <= i, j < window, is non-negative.

    Indices outside the sequence read as zero.  The brute-force oracle
    of ``is_log_concave``: a non-negative sequence without internal zeros
    is log-concave exactly when its Toeplitz matrix is TP2 (Karlin), and a
    window of ``len(xs) + 1`` reaches every minor that can fail.
    """
    x = [Fraction(v) for v in xs]

    def at(i):
        return x[i] if 0 <= i < len(x) else Fraction(0)

    return all(at(i - j) * at(i2 - j2) >= at(i - j2) * at(i2 - j)
               for i in range(window) for i2 in range(i, window)
               for j in range(window) for j2 in range(j, window))


def forest_fractions(w, T):
    """``f[t][k] = f(t, k)`` for t, k <= T, the weight of the ordered k-tree forests with t vertices.

    The Lukasiewicz recursion on the first vertex, whose i children join
    the remaining trees, ``f(t, k) = sum_i w_i f(t - 1, k + i - 1)``, on
    the rational weights: the oracle of the forest arrays of
    ``check_tp2_array``.
    """
    f = [[Fraction(0)] * (T + 1) for _ in range(T + 1)]
    f[0][0] = Fraction(1)
    for t in range(1, T + 1):
        for k in range(1, t + 1):
            f[t][k] = sum((w[i] * f[t - 1][k + i - 1] for i in range(t - k + 1)), Fraction(0))
    return f


def pair_minors_nonnegative(x, y, low):
    """Whether every minor ``x_k y_k2 - x_k2 y_k`` with ``low <= k <= k2`` of two rows is non-negative.

    The brute-force oracle of ``sgtrees.ratios_rise``, one minor at a time.
    """
    return all(x[k] * y[k2] >= x[k2] * y[k] for k in range(low, len(x)) for k2 in range(k, len(x)))


def forest_peel(w, d, T):
    """``z[T - k][t] = L^t f(t, k)`` for t, k <= T, L clearing ``w``: the peel that once built the forest arrays.

    ``compositions.peel_partition_values`` with count weights ``e_T`` and
    the tree masses ``L^m b_m`` of ``w`` as part weights.  The oracle of
    ``sgtrees.forest_arrays``.
    """
    return peel_partition_values([0] * T + [1], T, compute_tables(w, d, N=T + 1)._b.__getitem__, d)


def tp2_brute_force(w, d, N):
    """``check_tp2_array(w, d, N).as_dict()`` from ``forest_fractions`` and every minor.

    Each minor of ``F_s(n, k) = f(nd + s, kd + s)`` is compared and
    recorded, failures with both exact sides, in row-major order.
    """
    top = (N - 1) // d
    low = 1 if d == 1 else 0
    f = forest_fractions(w, top * d + d - 1)
    report = CheckReport(name="tp2-array")
    for s in range(d):
        where = {"s": s} if d > 1 else {}
        F = [[f[n * d + s][k * d + s] for k in range(top + 1)] for n in range(top + 1)]
        for n, n2, k, k2, lhs, rhs in array_minors(F, low):
            report.record(lhs >= rhs, **where, n=n, n2=n2, k=k, k2=k2, lhs=lhs, rhs=rhs)
    return report.as_dict()


def array_minors(F, low):
    """Every minor of an array with ``low <= n <= n2`` and ``low <= k <= k2``, as ``(n, n2, k, k2, lhs, rhs)``.

    ``lhs = F[n][k] F[n2][k2]`` and ``rhs = F[n][k2] F[n2][k]``, in
    row-major order of ``(n, n2, k, k2)``: the brute force behind
    ``sgtrees.failing_minors``, which yields those with ``lhs < rhs``.
    """
    for n in range(low, len(F)):
        for n2 in range(n, len(F)):
            for k in range(low, len(F[n])):
                for k2 in range(k, len(F[n])):
                    yield n, n2, k, k2, F[n][k] * F[n2][k2], F[n][k2] * F[n2][k]


def unbounded_peel(a, T, b, d, sums=()):
    """``compositions.peel_partition_values`` with every slice run to the bottom, without its refusals.

    The reference for the top shifts that the peel reads off b: each sum
    over ``Z_{ell+1}(t - 1), Z_{ell+1}(t - 1 - d), ...`` reaches total 0 or
    below, zeros included, at every shift and total, and each kept list
    is cut at its last point with mass.
    """
    r = len(a)
    support = [ell for ell in range(r) if a[ell]]
    s = support[0] % d if support else 0
    z = [[0] * (T + 1) for _ in range(r)]
    for ell in range(s, r, d):
        z[ell][0] = a[ell]
    bs = []
    for t in range(1, T + 1):
        if (t - 1) % d == 0:
            bs.append(z[0][t - 1] if b is None else b(t))
        for ell in range((s - t) % d, r - 1, d):
            running = list(itertools.accumulate(map(operator.mul, bs, z[ell + 1][t - 1::-d])))
            while len(running) > 1 and running[-2] == running[-1]:
                running.pop()
            if ell < len(sums):
                sums[ell][t] = running
            z[ell][t] = running[-1]
    return z


def running_sums(masses):
    """Running sums of integer masses ``{m: mass}`` on 0, 1, ..., up to the last point with mass."""
    top = max(m for m, mass in masses.items() if mass)
    return list(itertools.accumulate(masses.get(m, 0) for m in range(top + 1)))


def first_part_law(tables, ell, t):
    """Law of (first part - 1)/d at shift ``ell`` and total ``t``, read from ``first_part_sums``."""
    sums = tables.first_part_sums(ell, t)
    return {m: Fraction(c - below, sums[-1]) for m, (below, c) in enumerate(zip([0, *sums], sums)) if c != below}


def monotone_move_probs(low, high):
    """Move probabilities of the shared-uniform coupling of two step laws, in Fractions.

    The independent oracle for ``compositions.move_rows``: ``low`` and
    ``high`` are laws on consecutive integer ranges (the support of ``high``
    extends one point further right).  Verifies the interleaving
    inequalities high(m) <= low(m) >= high(m+1) and returns, for every m in
    the support of ``low``, the conditional probability that the coupled
    pair moves from m to m+1.
    """
    zero = Fraction(0)
    top = max(low) if low else -1
    for m in range(0, top + 1):
        lo_m = low.get(m, zero)
        if high.get(m, zero) > lo_m:
            raise NotCoupleable(m)
        if high.get(m + 1, zero) > lo_m:
            raise NotCoupleable(m)
    for m in high:
        if m > top + 1:
            raise NotCoupleable(m, f"upper law reaches {m}, beyond the lower support {top}")
    probs = {}
    f_low = zero
    cum_high = {}
    acc = zero
    for m in range(0, top + 2):
        acc += high.get(m, zero)
        cum_high[m] = acc
    for m in range(0, top + 1):
        mass = low.get(m, zero)
        if mass == 0:
            continue
        f_prev = f_low
        f_low += mass
        overlap = f_low - max(f_prev, cum_high.get(m, zero))
        if overlap < 0:
            overlap = zero
        probs[m] = overlap / mass
    return probs


def part_weights(tables):
    """The exact part weight ``b_m`` as a function of m: ``wp.b`` of pair tables, ``b_value`` of tree tables."""
    return tables.wp.b.__getitem__ if isinstance(tables, PairTables) else tables.b_value


def ratio_chain_reference(tables, n_max):
    """The report of ``check_ratio_chain`` from reduced Fractions: every ratio formed, then compared.

    The independent oracle for the integer checker: each ratio is a quotient
    of two ``partition_value`` reads and each endpoint a quotient of exact
    part weights, read in the order the checker reads them.
    """
    report = CheckReport(name="ratio-chain")
    d, b = tables.d, part_weights(tables)
    r = tables.r // d

    def ratio(n, q, s):
        num = tables.partition_value(q * d + s, (n + 1) * d - s)
        den = tables.partition_value(q * d + s, n * d - s)
        if den == 0:
            raise ZeroMassError(f"vanishing partition value at n={n}, shift ({q},{s})")
        return num / den

    for n in range(n_max + 1):
        grid = [(q, s) for s in range(d) for q in range(r)] if n >= 1 else [(q, 0) for q in range(r)]
        values = [(q, s, ratio(n, q, s)) for q, s in grid]
        for (q1, s1, v1), (q2, s2, v2) in zip(values, values[1:]):
            report.record(v1 >= v2, n=n, hi=(q1, s1), lo=(q2, s2), lhs=v1, rhs=v2)
        upper = b((n + 1) * d + 1) / b(n * d + 1)
        report.record(values[0][2] <= upper, n=n, kind="upper-endpoint", lhs=values[0][2], rhs=upper)
        if n >= 1:
            lower = b(n * d + 1) / b((n - 1) * d + 1)
            report.record(values[-1][2] == lower, n=n, kind="lower-endpoint", lhs=values[-1][2], rhs=lower)
    return report.as_dict()


def interval_side(bits, k, num, den):
    """Where ``[bits/2^k, (bits+1)/2^k)`` lies against ``num/den``: True below, False above, None across."""
    scaled = num << k
    if (bits + 1) * den <= scaled:
        return True
    if bits * den >= scaled:
        return False
    return None


class OracleUniform:
    """The lazy-bits decision spelled out (Knuth & Yao 1976): 32-bit chunks until ``interval_side`` decides."""

    def __init__(self, rng):
        self.rng, self.bits, self.k = rng, 0, 0

    def is_below(self, num, den):
        if num <= 0:
            return False
        if num >= den:
            return True
        while (side := interval_side(self.bits, self.k, num, den)) is None:
            self.bits = (self.bits << 32) | self.rng.getrandbits(32)
            self.k += 32
        return side


def reference_nested_subset_coupling(theta, rng) -> Tuple[int, ...]:
    """The insertion ordering drawn with one ``LazyUniform(rng)`` per level: the reference that
    ``nested_subset_coupling``, which decides on the 32-bit cuts of the ladder, must draw alike."""
    levels = coerce_theta(theta).ladder
    ranks = []
    for _, thresholds in levels[:-1]:
        is_below = LazyUniform(rng).is_below
        # every level but the last has thresholds: when none says yes, rank ends at the last
        for rank, (num, den, _) in enumerate(thresholds, start=1):
            if is_below(num, den):
                break
        ranks.append(rank)
    seq = [levels[-1][0]]
    for (pivot, _), rank in zip(levels[-2::-1], reversed(ranks)):
        seq.insert(rank - 1, pivot)
    return tuple(seq)


def reference_kernel_row(tables, t, parts):
    """An independent per-part walk over the step rows: the oracle of ``PartitionKernel.kernel_row``.

    ``kernel_row`` reads its row off one walk of ``sample_move``; this loop
    reads each part's step probability itself and must give the same
    unreduced pairs, in the same order, with the same refusals.
    """
    if sum(parts) != t:
        raise DomainError("parts do not sum to the stated total")
    row = {}
    sn = sd = 1  # the pair of stay
    remaining = t
    for j, part in enumerate(parts):
        if tables.r - j <= 1:
            # beyond this shift only single-part compositions carry mass
            if j != len(parts) - 1:
                raise DomainError(f"parts {tuple(parts)} carry no mass past shift {j}")
            row[("inc", j)] = (sn, sd)
            return row
        try:
            qn, qd = tables.step_probs(j, remaining).pair((part - 1) // tables.d)
        except KeyError:
            raise DomainError(f"part {part} carries no mass at total {remaining}, shift {j}") from None
        if qn == qd:
            row[("inc", j)] = (sn, sd)
            return row
        if qn:
            row[("inc", j)] = (sn * qn, sd * qd)
            sn, sd = sn * (qd - qn), sd * qd
        remaining -= part
    row[("append", len(parts))] = (sn, sd)
    return row


def reference_word_row(tables: PartitionTables, word: CountWord,
                       laws: Optional[Dict] = None) -> Dict[CountWord, Tuple[int, int]]:
    """Exact one-step law of the growth chain from the tree of the given child-count word.

    Walks the tree from the root as ``GrowthChain.step`` does: the
    children's subtree sizes at a vertex take one move from
    ``tables.kernel_row``; an increment continues the walk at that child
    with the product so far, an append plants the bouquet there.  Each
    target is keyed by its word: the vertex at position i gains d
    children, d leaves that follow its subtree.  Its probability is the
    unreduced integer pair ``(num, den)`` that multiplies the ``factors``
    of the step to it.  Rows sum to one.  ``laws`` keeps each move law by
    its parts, which fix its total, as the walk reads it: per move,
    whether it increments, the offset to the child it continues at or to
    the end of the subtree, and the pair.

    The stack walk that ``growth_word_row`` was before it spliced subtree
    rows: the oracle of ``sgtrees.GrowthRows``, pairs and target order.
    """
    d = tables.d
    leaves = (0,) * d
    laws = {} if laws is None else laws
    sizes = child_sizes(word)
    out: Dict[CountWord, Tuple[int, int]] = {}
    stack = [(0, 1, 1)]
    while stack:
        i, pn, pd = stack.pop()
        parts = sizes[i]
        law = laws.get(parts)
        if law is None:
            t = sum(parts)
            law = laws[parts] = [(kind == "inc", 1 + (sum(parts[:j]) if kind == "inc" else t), qn, qd)
                                 for (kind, j), (qn, qd) in tables.kernel_row(t, parts).items()]
        for inc, offset, qn, qd in law:
            if inc:
                stack.append((i + offset, pn * qn, pd * qd))
            else:
                end = i + offset
                out[word[:i] + (word[i] + d,) + word[i + 1:end] + leaves + word[end:]] = (pn * qn, pd * qd)
    return out


def growth_law(rows, tree):
    """The row from a tree of a word row function such as ``growth_kernel(tables)``, as Fractions keyed by trees."""
    return {from_child_count_word(key): Fraction(*pair) for key, pair in rows(child_count_word(tree)).items()}


def fraction_interchange(row_fn, law_lo, law_hi):
    """The interchange report computed on Fractions: the reference of ``kernel_interchange_check``.

    ``law_lo`` and ``law_hi`` are Fraction laws, and ``row_fn`` maps a state
    to Fractions keyed by the target states; each pushed probability is a
    reduced Fraction sum, compared with the target law state by state.
    """
    pushed = {}
    for state, mass in law_lo.items():
        for target, p in row_fn(state).items():
            pushed[target] = pushed.get(target, Fraction(0)) + mass * p
    keys = set(pushed) | set(law_hi)
    bad = [key for key in keys if pushed.get(key, Fraction(0)) != law_hi.get(key, Fraction(0))]
    if not bad:
        return InterchangeReport(True, len(keys))
    key = min(bad, key=repr)
    return InterchangeReport(False, len(keys), {"state": repr(key), "pushed": str(pushed.get(key, Fraction(0))),
                                                "target": str(law_hi.get(key, Fraction(0)))})


def kernel_rows_digest(tables, w, d, n_max):
    """SHA-256 of every growth-kernel row from a tree of at most n_max vertices carrying mass."""
    kernel = growth_kernel(tables)
    rows = []
    for n in range(1, n_max + 1, d):
        for tree in enumerate_plane_trees(n, d):
            if any(w[tree.children_count(u)] == 0 for u in tree.vertices):
                continue
            row = growth_law(kernel, tree)
            rows.append([format_tree(tree), sorted([format_tree(t), str(p)] for t, p in row.items())])
    return len(rows), hashlib.sha256(json.dumps(sorted(rows)).encode()).hexdigest()


def composition_rows_digest(tables, n_max):
    """SHA-256 of ``composition_kernel`` at every composition of the tables' class with total <= n_max.

    A composition without mass contributes the name of the error its row raises.
    """
    rows = []
    for n in range(n_max + 1):
        for c in iter_compositions(n, tables.cls):
            try:
                row = sorted([list(c2), str(p)] for c2, p in composition_kernel(tables, c).items())
            except TreegrowError as exc:
                row = type(exc).__name__
            rows.append([list(c), row])
    return len(rows), hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def tilted_tree_pair(w_entries, d, c, beta, horizon=40):
    """A pair with the laws of a tree pair and neither a nor b a tree sequence: a_r c^r, b_m beta^m / c."""
    tables = compute_tables(WeightSequence(w_entries), d, N=horizon + 1)
    a = [Fraction(x) * c ** r for r, x in enumerate(w_entries)]
    b = [tables.b_value(m) * beta ** m / c for m in range(1, horizon + 1)]
    return WeightPair(a, b)


def integer_thresholds(masses):
    """Common denominator and exact cumulative integer thresholds of a law."""
    den = math.lcm(*[m.denominator for m in masses])
    if den >= 1 << 62:
        raise OverflowError("row denominator too large for int64 bulk sampling")
    nums = [int(m * den) for m in masses]
    cum = np.cumsum(np.array(nums, dtype=np.int64))
    assert int(cum[-1]) == den
    return den, cum


class LevelKernels:
    """Exact transition tables of a tree growth chain over enumerated levels."""

    def __init__(self, tables, w, d, n_max):
        self.d = d
        self.levels = list(range(1, n_max + 1, d))
        self.states = {}
        self.index = {}
        for n in self.levels:
            trees = [t for t in enumerate_plane_trees(n, d)
                     if all(w[t.children_count(u)] != 0 for u in t.vertices)]
            trees.sort(key=lambda t: sorted(t.vertices))
            self.states[n] = trees
            self.index[n] = {t.vertices: i for i, t in enumerate(trees)}
        self.trans = {}
        kernel = growth_kernel(tables)
        for n in self.levels[:-1]:
            nxt_index = self.index[n + d]
            rows = []
            for tree in self.states[n]:
                row = growth_law(kernel, tree)
                items = sorted(row.items(), key=lambda kv: sorted(kv[0].vertices))
                den, cum = integer_thresholds([m for _, m in items])
                targets = np.array([nxt_index[t.vertices] for t, _ in items], dtype=np.int64)
                rows.append((den, cum, targets))
            width = max(len(cum) for _, cum, _ in rows)
            dens = np.array([den for den, _, _ in rows], dtype=np.int64)
            cums = np.full((len(rows), width), 0, dtype=np.int64)
            nxts = np.zeros((len(rows), width), dtype=np.int64)
            for i, (den, cum, targets) in enumerate(rows):
                cums[i, :len(cum)] = cum
                cums[i, len(cum):] = den  # padding never selected: draws stay below den
                nxts[i, :len(targets)] = targets
            self.trans[n] = (dens, cums, nxts)

    def run_chains(self, n_chains, rng, record):
        """Sample trajectories; returns state-index count vectors at the recorded levels."""
        record = set(record)
        cur = np.zeros(n_chains, dtype=np.int64)
        out = {}
        if self.levels[0] in record:
            out[self.levels[0]] = np.bincount(cur, minlength=len(self.states[self.levels[0]]))
        for n in self.levels[:-1]:
            dens, cums, nxts = self.trans[n]
            draws = rng.integers(0, dens[cur])
            idx = (cums[cur] <= draws[:, None]).sum(axis=1)
            cur = nxts[cur, idx]
            if n + self.d in record:
                out[n + self.d] = np.bincount(cur, minlength=len(self.states[n + self.d]))
        return out


def prefix_laws(theta):
    """Exact laws of the first k inserted positions, for every k."""
    joint = nested_coupling_law(theta)
    n = len(next(iter(joint)))
    out = {}
    for k in range(n + 1):
        law = {}
        for seq, mass in joint.items():
            key = seq[:k]
            law[key] = law.get(key, Fraction(0)) + mass
        out[k] = law
    return out


def embedded_subtree_key(tree, prefixes):
    """Vertices of the subtree obtained by renaming child j of u to its j-th inserted position."""
    image = {ROOT: ROOT}
    for u in tree.sorted_vertices():
        if u:
            parent = u[:-1]
            image[u] = image[parent] + (prefixes[parent][u[-1] - 1],)
    return frozenset(image.values())


def conditional_embedding_laws(theta, trees, subtree_index):
    """Per plane tree, integer-threshold law of the embedded subtree.

    The per-vertex insertion orderings are independent of the tree chain,
    so the marginal subtree law factorizes through the plane tree; this
    enumerates the finitely many prefix assignments exactly.
    """
    prefs = prefix_laws(theta)
    out = []
    for tree in trees:
        vertices = tree.sorted_vertices()
        internal = [u for u in vertices if tree.children_count(u) > 0]
        law = {}
        choices = [list(prefs[tree.children_count(u)].items()) for u in internal]
        for combo in itertools.product(*choices):
            assignment = {u: seq for u, (seq, _) in zip(internal, combo)}
            mass = Fraction(1)
            for _, m in combo:
                mass *= m
            key = embedded_subtree_key(tree, assignment)
            law[key] = law.get(key, Fraction(0)) + mass
        items = sorted(law.items(), key=lambda kv: sorted(kv[0]))
        den, cum = integer_thresholds([m for _, m in items])
        targets = np.array([subtree_index[k] for k, _ in items], dtype=np.int64)
        out.append((den, cum, targets))
    return out


def draw_embeddings(tree_counts, cond_laws, n_subtree_states, rng):
    """Push bulk tree counts through the conditional embedding laws, exactly."""
    counts = np.zeros(n_subtree_states, dtype=np.int64)
    for i, k in enumerate(tree_counts):
        k = int(k)
        if k == 0:
            continue
        den, cum, targets = cond_laws[i]
        draws = rng.integers(0, den, size=k)
        idx = np.searchsorted(cum, draws, side="right")
        counts += np.bincount(targets[idx], minlength=n_subtree_states)
    return counts


def left_to_right_prob(factors):
    """A step's probability as the plain product of its pairs, multiplied left to right and reduced once.

    The reference for ``GrowthStep.prob``, which cancels pairs against
    their neighbours before it multiplies.
    """
    num = den = 1
    for p, q in factors:
        num *= p
        den *= q
    return Fraction(num, den)


def whole_tree_validate_trace(path, model, d=1):
    """Validate a grow trace by parsing every tree in full and comparing consecutive trees.

    The independent oracle for ``cli.validate_trace``, which reads each line
    as the step it records from the line before.  Every line must be the
    canonical text of the tree it parses to, the first tree the root
    alone; each line's ``n`` must be its tree's size, its ``step`` its index
    and its recorded words (``new_vertices``, or ``new_vertex`` for
    subtree) the canonical texts of the words of its tree that the tree
    before lacks.
    """
    with open(path, "r", encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    if not records:
        raise ParseError(f"{path}: empty trace")
    field, kind = ("tree", "plane") if model in ("sg", "sg-arith") else ("subtree", "subtree")
    trees = [parse_tree(rec[field], kind=kind) for rec in records]
    for rec, tree in zip(records, trees):
        if format_tree(tree) != rec[field]:
            raise DomainError(f"{path}: {rec[field]!r} is not the canonical text of its tree")
    if trees[0].vertices != {ROOT}:
        raise DomainError(f"{path}: the first tree is not the root alone")
    if kind == "plane":
        for before, after in zip(trees, trees[1:]):
            ok = (is_right_leaning_leaf_addition(before, after) if d == 1
                  else is_bouquet_addition(before, after, d))
            if not ok:
                raise DomainError(f"{path}: consecutive trees are not a right-leaning addition")
    else:
        for before, after in zip(trees, trees[1:]):
            if not (before.vertices < after.vertices and len(after) == len(before) + 1):
                raise DomainError(f"{path}: consecutive subtrees are not one-leaf inclusions")
    befores = [frozenset()] + [tree.vertices for tree in trees[:-1]]
    for index, (rec, before, tree) in enumerate(zip(records, befores, trees)):
        recorded = rec["new_vertices"] if kind == "plane" else [rec["new_vertex"]]
        added = sorted(word_to_text(u) for u in tree.vertices - before)
        if type(rec["n"]) is not int or rec["n"] != len(tree) or type(rec["step"]) is not int or rec["step"] != index:
            raise DomainError(f"{path}: line {index + 1} records n = {rec['n']!r} and step = {rec['step']!r}")
        if type(recorded) is not list or sorted(recorded) != added:
            raise DomainError(f"{path}: line {index + 1} records {recorded!r}, not its new words {added}")


def literal_image(chain):
    """The subtree of a ``SubtreeChain`` computed the long way, by shuffling and unpacking.

    Builds the per-vertex rank permutations from the orderings, shuffles
    the decorated plane tree with them and inverts the left-packing: a
    cross-check against the chain's direct embedding.
    """
    tree = chain.inner.tree()
    sigma = {}
    decorations: Dict[tuple, FrozenSet[int]] = {}
    for u in tree.vertices:
        k = tree.children_count(u)
        seq = chain.ordering(u)
        perm = sigma_rule(k, seq)
        sigma[u] = {j + 1: perm[j] for j in range(k)}
        decorations[u] = frozenset(seq[:k])
    shuffled_tree = apply_shuffle(tree, sigma)
    shuffled_dec = push_forward(sigma, tree, decorations)
    return bij_P_inv(PlaneTree(shuffled_tree.vertices), shuffled_dec)


def naive_subtree_chain(theta, N, seed, tables=None):
    """Reference sampler without the shuffling step.

    Uses the same tree chain and the same per-vertex orderings but
    unpacks the raw decorated tree at every size.  Each term has the
    right law, yet the sequence is generally not nested; it documents why
    the rank permutations are needed.
    """
    chain = SubtreeChain(theta, horizon=N, seed=seed, tables=tables)
    out = []
    while True:
        tree = chain.inner.tree()
        decorations = {u: frozenset(chain.ordering(u)[:tree.children_count(u)]) for u in tree.vertices}
        out.append(bij_P_inv(tree, decorations))
        if chain.n >= N:
            return out
        chain.step()


def is_letter(x):
    """Whether x is a letter of an Ulam-Harris word: a positive int, and not a bool."""
    return isinstance(x, int) and not isinstance(x, bool) and x >= 1


def three_pass_tree_check(words, plane):
    """The vertex set and child counts of a word set, checked in three passes over it, or a ``DomainError``.

    The reference for the check in ``PlaneTree`` (``plane``) and
    ``RootedSubtree``: first every letter of every word, then the root,
    then each word's parent, then, in a plane tree, each left sibling.
    """
    kind = "plane tree" if plane else "rooted subtree"
    vs = set()
    for u in words:
        word = tuple(u)
        for letter in word:
            if not is_letter(letter):
                raise DomainError(f"invalid word {word!r}: letters must be positive integers")
        vs.add(word)
    if ROOT not in vs:
        raise DomainError("a tree must contain the root (empty word)")
    kids = {u: 0 for u in vs}
    for u in vs:
        if u:
            if u[:-1] not in vs:
                raise DomainError(f"{kind} not closed under parents: {word_to_text(u)} present, parent missing")
            kids[u[:-1]] += 1
    for u in vs if plane else ():
        if u and u[-1] > 1:
            sibling = u[:-1] + (u[-1] - 1,)
            if sibling not in vs:
                raise DomainError(f"plane tree not closed under left siblings: {word_to_text(u)} present, "
                                  f"{word_to_text(sibling)} missing")
    return frozenset(vs), kids


def tree_rule_breaks(words, plane):
    """Every (word, rule) that a word set breaks; the rules are the checks of ``three_pass_tree_check``.

    A word with a bad letter breaks the letter rule and is left out of the
    set, so an unhashable letter is never hashed.
    """
    words = [tuple(u) for u in words]
    breaks = [(u, "letters") for u in words if not all(map(is_letter, u))]
    vs = {u for u in words if all(map(is_letter, u))}
    if ROOT not in vs:
        breaks.append(((), "root"))
    for u in vs:
        if u and u[:-1] not in vs:
            breaks.append((u, "parent"))
        if plane and u and u[-1] > 1 and u[:-1] + (u[-1] - 1,) not in vs:
            breaks.append((u, "left sibling"))
    return breaks


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_fresh(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter on this checkout's src."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=300)


def run_without_scipy(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter on this checkout's src, where ``import scipy`` raises ImportError.

    The interpreter first confirms that scipy is blocked, so a pass cannot
    come from a scipy it still reached.
    """
    prelude = ("import sys\nsys.modules['scipy'] = None\n"
               "try:\n    import scipy.stats\nexcept ImportError:\n    pass\n"
               "else:\n    sys.exit('scipy is not blocked')\n")
    return run_fresh(prelude + code)
