"""Bulk exact-threshold trajectory sampling for the statistical batteries.

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
from fractions import Fraction
from typing import Dict, FrozenSet

import numpy as np

from treegrow.compositions import WeightPair, composition_kernel, iter_compositions
from treegrow.errors import DomainError, NotCoupleable, ParseError, TreegrowError
from treegrow.oracle import enumerate_plane_trees, enumerate_subtrees, tree_mass
from treegrow.sgtrees import WeightSequence, compute_tables, growth_kernel_row
from treegrow.subtree_model import (SubtreeChain, apply_shuffle, bij_P_inv, nested_coupling_law,
                                    push_forward, sigma_rule)
from treegrow.treespace import (ROOT, PlaneTree, format_tree, is_bouquet_addition,
                                is_right_leaning_leaf_addition, parse_tree)


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


def first_part_law(tables, ell, t):
    """Law of (first part - 1)/d at shift ``ell`` and total ``t``, read from ``first_part_masses``."""
    masses, z = tables.first_part_masses(ell, t)
    return {mt: Fraction(mass, z) for mt, mass in masses.items()}


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


def kernel_rows_digest(tables, w, d, n_max):
    """SHA-256 of every growth-kernel row from a tree of at most n_max vertices carrying mass."""
    rows = []
    for n in range(1, n_max + 1, d):
        for tree in enumerate_plane_trees(n, d):
            if any(w[tree.children_count(u)] == 0 for u in tree.vertices):
                continue
            row = growth_kernel_row(tables, tree)
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
            trees = [t for t in enumerate_plane_trees(n, d, max_n=n_max)
                     if all(w[t.children_count(u)] != 0 for u in t.vertices)]
            trees.sort(key=lambda t: sorted(t.vertices))
            self.states[n] = trees
            self.index[n] = {t.vertices: i for i, t in enumerate(trees)}
        self.trans = {}
        for n in self.levels[:-1]:
            nxt_index = self.index[n + d]
            rows = []
            for tree in self.states[n]:
                row = growth_kernel_row(tables, tree)
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


def whole_tree_validate_trace(path, model, d=1):
    """Validate a grow trace by parsing every tree in full and comparing consecutive trees.

    The independent oracle for ``cli.validate_trace``, which checks the
    first tree in full and every later line as a step from the one before.
    Every line must be the canonical text of the tree it parses to.
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


def literal_image(chain):
    """The subtree of a ``SubtreeChain`` computed the long way, by shuffling and unpacking.

    Builds the per-vertex rank permutations from the orderings, shuffles
    the decorated plane tree with them and inverts the left-packing: a
    cross-check against the chain's direct embedding.
    """
    tree = chain.plane_tree()
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
        tree = chain.plane_tree()
        decorations = {u: frozenset(chain.ordering(u)[:tree.children_count(u)]) for u in tree.vertices}
        out.append(bij_P_inv(tree, decorations))
        if chain.n >= N:
            return out
        chain.step()
