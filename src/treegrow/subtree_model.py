"""Random subtrees of the Ulam-Harris tree and their increasing coupling.

A type-weight sequence theta gives a vertex at position i weight
``theta_i``; the law on n-vertex rooted subtrees has mass proportional to
the product of the type weights.  Left-packing a subtree into a plane
tree, while recording the original children positions as subset
decorations, identifies this model with a weighted plane tree whose
offspring weights are the elementary symmetric functions of theta.  The
growth of the plane tree and the growth of the decorations are coupled
separately and matched by decoration-dependent shuffles, yielding a
nested sequence of subtrees with the right marginals.

The shuffle calculus (per-vertex injective position maps, their inverses
and push-forwards) is implemented here together with an exact verifier
for shuffling rules that leave product-decorated tree laws invariant.
"""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from ._rand import LazyUniform, derive_rng
from .compositions import ONE, ZERO, CheckReport, as_fraction
from .errors import DomainError
from .sgtrees import GrowthChain, PartitionTables, WeightSequence
from .treespace import PlaneTree, ROOT, RootedSubtree, Word

PositionMap = Dict[int, int]
Shuffle = Dict[Word, PositionMap]


# ---------------------------------------------------------------------------
# shuffles: per-vertex injective repositioning of children


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


def _image_map(tau, g: Shuffle) -> Dict[Word, Word]:
    """The bijection u -> g.u obtained by repositioning along ancestral lines."""
    image: Dict[Word, Word] = {ROOT: ROOT}
    for u in tau.sorted_vertices():
        if u:
            p = u[:-1]
            image[u] = image[p] + (g[p][u[-1]],)
    return image


def apply_shuffle(tau: RootedSubtree, g: Shuffle) -> RootedSubtree:
    """Reposition the children of every vertex of ``tau`` through ``g``."""
    _check_shuffle(tau, g)
    return RootedSubtree(_image_map(tau, g).values())


def inverse_shuffle(g: Shuffle, tau: RootedSubtree) -> Shuffle:
    """The unique shuffle over ``g . tau`` undoing ``g`` vertex by vertex."""
    _check_shuffle(tau, g)
    image = _image_map(tau, g)
    return {image[u]: {i2: i1 for i1, i2 in g[u].items()} for u in tau.vertices}


def pointwise_inverse(g: Shuffle) -> Shuffle:
    """Invert each per-vertex map in place (still indexed by the source tree)."""
    return {u: {i2: i1 for i1, i2 in gu.items()} for u, gu in g.items()}


def push_forward(g: Shuffle, tau: RootedSubtree, x: Mapping[Word, object]) -> Dict[Word, object]:
    """Transport a per-vertex tuple along the relabelling induced by ``g``."""
    _check_shuffle(tau, g)
    image = _image_map(tau, g)
    if set(x.keys()) != set(tau.vertices):
        raise DomainError("tuple is not indexed by the vertices of the subtree")
    return {image[u]: x[u] for u in tau.vertices}


def left_packing(positions: Iterable[int]) -> PositionMap:
    """The order-preserving map sending a finite position set onto 1..k."""
    return {pos: rank for rank, pos in enumerate(sorted(positions), start=1)}


def push(tau: RootedSubtree) -> PlaneTree:
    """Left-pack all children positions, producing the underlying plane tree."""
    return bij_P(tau)[0]


def bij_P(tau: RootedSubtree) -> Tuple[PlaneTree, Dict[Word, FrozenSet[int]]]:
    """Left-pack and remember the original children positions as decorations.

    Returns the plane tree together with per-vertex position subsets whose
    sizes match the vertex degrees (grading-compatibility).
    """
    image = _image_map(tau, {u: left_packing(tau.children_positions(u)) for u in tau.vertices})
    decorations = {image[u]: frozenset(tau.children_positions(u)) for u in tau.vertices}
    return PlaneTree(image.values()), decorations


def bij_P_inv(tree: PlaneTree, decorations: Mapping[Word, Iterable[int]]) -> RootedSubtree:
    """Rebuild the subtree whose left-packing produced the decorated tree."""
    unpack: Shuffle = {}
    for u in tree.vertices:
        if u not in decorations:
            raise DomainError(f"missing decoration at vertex {u!r}")
        s = sorted(set(decorations[u]))
        if len(s) != tree.children_count(u):
            raise DomainError(
                f"decoration at {u!r} has {len(s)} elements for a vertex with "
                f"{tree.children_count(u)} children (not grading-compatible)")
        unpack[u] = dict(enumerate(s, 1))
    return RootedSubtree(_image_map(tree, unpack).values())


# ---------------------------------------------------------------------------
# type weights and the nested coupling of subsets


def elementary_symmetric(values: Sequence) -> List[Fraction]:
    """Elementary symmetric functions e_0..e_n of the n given values."""
    vals = [as_fraction(v) for v in values]
    e = [ONE] + [ZERO] * len(vals)
    for size, v in enumerate(vals, 1):
        for k in range(size, 0, -1):
            e[k] += v * e[k - 1]
    return e


class SummableTheta:
    """Finitely supported non-negative type weights theta_1, theta_2, ...

    Carries the support, its size, and the elementary symmetric values of
    the weights, which are the offspring weights of the matching plane
    tree model.
    """

    __slots__ = ("values", "support", "e", "_ladder")

    def __init__(self, values: Iterable):
        self.values = tuple(as_fraction(v) for v in values)
        if any(v < 0 for v in self.values):
            raise DomainError("type weights must be non-negative")
        self.support = tuple(i + 1 for i, v in enumerate(self.values) if v > 0)
        if not self.support:
            raise DomainError("type weights must have positive total mass")
        self.e = tuple(elementary_symmetric([self.values[i - 1] for i in self.support]))
        self._ladder = None

    @property
    def n_support(self) -> int:
        return len(self.support)

    def value(self, i: int) -> Fraction:
        return self.values[i - 1] if 1 <= i <= len(self.values) else ZERO

    @property
    def ladder(self) -> Tuple[Tuple[int, Tuple[Tuple[int, int], ...]], ...]:
        """Per level of the nested coupling, the pivot and its thresholds as ``(num, den)``.

        Level m pivots on the m-th support point.  With ``S_m`` the support
        from that point on, its k-th threshold is
        ``theta_pivot e_{k-1}(S_{m+1}) / e_k(S_m)``, reduced; the last level
        holds the one remaining support point and no thresholds.  Built on
        first use, once per theta, in one backward pass over the support:
        the elementary symmetric values of ``S_m`` are those of ``S_{m+1}``
        times ``1 + theta_pivot x``.
        """
        if self._ladder is None:
            *pivots, last = self.support
            levels = [(last, ())]
            e = [ONE, self.value(last)]
            for pivot in reversed(pivots):
                x, inner = self.value(pivot), e
                e = [hi + x * lo for hi, lo in zip(inner + [ZERO], [ZERO] + inner)]
                thresholds = (x * inner[k - 1] / e[k] for k in range(1, len(e)))
                levels.append((pivot, tuple((p.numerator, p.denominator) for p in thresholds)))
            self._ladder = tuple(reversed(levels))
        return self._ladder

    def __repr__(self):
        return f"SummableTheta({[str(v) for v in self.values]})"


def coerce_theta(theta) -> SummableTheta:
    """``theta``, or the ``SummableTheta``, ladder included, shared by every caller listing its values."""
    if isinstance(theta, SummableTheta):
        return theta
    return _prepared_theta(tuple(as_fraction(v) for v in theta))


@functools.lru_cache(maxsize=16)
def _prepared_theta(values: Tuple[Fraction, ...]) -> SummableTheta:
    return SummableTheta(values)


def nested_thresholds(theta) -> List[Fraction]:
    """Pivot inclusion probabilities p_1 <= ... <= p_N for the smallest support index."""
    thresholds = coerce_theta(theta).ladder[0][1]
    return [Fraction(num, den) for num, den in thresholds] or [ONE]


def nested_coupling_law(theta) -> Dict[Tuple[int, ...], Fraction]:
    """Exact joint law of the insertion ordering built by the nested coupling.

    Built level by level from the last one up the threshold ladder: each
    pivot is inserted at a random rank whose law is read from the
    threshold increments, independently of the ordering of the later
    support points.  Prefix sets of the resulting sequence realize every
    subset law simultaneously.
    """
    levels = coerce_theta(theta).ladder
    law: Dict[Tuple[int, ...], Fraction] = {(levels[-1][0],): ONE}
    for pivot, thresholds in levels[-2::-1]:
        inner, law, prev = law, {}, ZERO
        for k, (num, den) in enumerate(thresholds, start=1):
            pk = Fraction(num, den)
            weight, prev = pk - prev, pk
            if weight:
                for seq, mass in inner.items():
                    law[seq[:k - 1] + (pivot,) + seq[k - 1:]] = weight * mass
    return law


def nested_subset_coupling(theta, rng: random.Random) -> Tuple[int, ...]:
    """Sample the insertion ordering; prefix sets follow the subset laws.

    Each level of the threshold ladder draws one uniform and inserts its
    pivot at the first rank whose threshold the uniform lies below.
    """
    levels = coerce_theta(theta).ladder
    ranks = []
    for _, thresholds in levels[:-1]:
        u = LazyUniform(rng)
        rank = len(thresholds)
        for k, (num, den) in enumerate(thresholds, start=1):
            if u.is_below(num, den):
                rank = k
                break
        ranks.append(rank)
    seq: Tuple[int, ...] = (levels[-1][0],)
    for (pivot, _), rank in zip(levels[-2::-1], reversed(ranks)):
        seq = seq[:rank - 1] + (pivot,) + seq[rank - 1:]
    return seq


# ---------------------------------------------------------------------------
# matching the two growths


def sigma_rule(k: int, x: Sequence[int]) -> Tuple[int, ...]:
    """Permutation of 1..k: position j goes to the rank of x_j among x_1..x_k."""
    if k < 0 or k > len(x):
        raise DomainError(f"need 0 <= k <= {len(x)}, got {k}")
    packed = left_packing(x[:k])
    return tuple(packed[x[j]] for j in range(k))


class SubtreeChain:
    """Increasing sampler of the inhomogeneous subtree model.

    Runs the plane-tree growth chain for the elementary-symmetric
    offspring weights and lazily attaches an independent insertion
    ordering to every Ulam-Harris vertex; the subtree is the direct
    embedding that sends the j-th child of u to the j-th inserted
    position of u's ordering.  Every step adds exactly one leaf (not
    necessarily right-leaning) and the embedding of existing vertices
    never changes, so the trace is nested by construction.
    """

    def __init__(self, theta, horizon: int, seed: int,
                 tables: Optional[PartitionTables] = None):
        self.theta = coerce_theta(theta)
        # tables of this theta carry its weights; GrowthChain refuses any others
        if tables is not None and tables.w.entries == self.theta.e and tables.w.horizon is None:
            self.w = tables.w
        else:
            self.w = WeightSequence(self.theta.e)
        self.seed = seed
        self.inner = GrowthChain(self.w, d=1, horizon=horizon,
                                 rng=derive_rng(seed, "tree-growth"), tables=tables)
        self._orderings: Dict[Word, Tuple[int, ...]] = {}
        self._embed: Dict[Word, Word] = {ROOT: ROOT}

    @property
    def n(self) -> int:
        return self.inner.n

    def ordering(self, u: Word) -> Tuple[int, ...]:
        seq = self._orderings.get(u)
        if seq is None:
            seq = nested_subset_coupling(self.theta, derive_rng(self.seed, "positions", u))
            self._orderings[u] = seq
        return seq

    def step(self) -> Word:
        """Grow by one vertex; returns the new Ulam-Harris vertex of the subtree."""
        record = self.inner.step()
        (new_plane,) = record.new_vertices
        parent_plane = record.parent
        position = new_plane[-1]
        letter = self.ordering(parent_plane)[position - 1]
        image = self._embed[parent_plane] + (letter,)
        self._embed[new_plane] = image
        return image

    def subtree(self) -> RootedSubtree:
        return RootedSubtree(self._embed.values())

    def subtree_key(self) -> frozenset:
        return frozenset(self._embed.values())

    def plane_tree(self) -> PlaneTree:
        return self.inner.tree()


def subtree_grow_chain(theta, N: int, seed: int,
                       tables: Optional[PartitionTables] = None) -> List[RootedSubtree]:
    """Sample the nested subtree trace up to N vertices; deterministic per seed."""
    chain = SubtreeChain(theta, horizon=N, seed=seed, tables=tables)
    out = [chain.subtree()]
    while chain.n < N:
        chain.step()
        out.append(chain.subtree())
    return out


# ---------------------------------------------------------------------------
# decoration-dependent shuffling rules and their invariance


def _all_permutation_collections(tree: PlaneTree):
    """Every grading-compatible collection of per-vertex permutations of the tree."""
    vertices = tree.sorted_vertices()
    choices = [list(itertools.permutations(range(1, tree.children_count(u) + 1))) for u in vertices]
    for combo in itertools.product(*choices):
        yield {u: {j + 1: perm[j] for j in range(len(perm))} for u, perm in zip(vertices, combo)}


def _rule_collection(rule, tree: PlaneTree, x: Mapping[Word, object]) -> Shuffle:
    out: Shuffle = {}
    for u in tree.vertices:
        k = tree.children_count(u)
        perm = tuple(rule(tree, x, u))
        if sorted(perm) != list(range(1, k + 1)):
            raise DomainError(f"rule returned {perm} at a vertex with {k} children")
        out[u] = {j + 1: perm[j] for j in range(k)}
    return out


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


def shuffle_invariance_check(w, decoration_law: Mapping[object, Fraction], rule, n_max: int) -> CheckReport:
    """Verify that shuffling by an equivariant rule preserves the decorated law.

    Sums the exact product measure (tree law times independent per-vertex
    decorations) over the full finite space of decorated trees of each
    size up to ``n_max`` and compares it with its image under the rule's
    shuffle, term by term.
    """
    from .oracle import sg_law

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
