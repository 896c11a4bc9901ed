"""Random subtrees of the Ulam-Harris tree and their increasing coupling.

A type-weight sequence theta gives a vertex at position i weight
``theta_i``; the law on n-vertex rooted subtrees has mass proportional to
the product of the type weights.  Left-packing a subtree into a plane
tree, while recording the original children positions as subset
decorations, identifies this model with a weighted plane tree whose
offspring weights are the elementary symmetric functions of theta.
``SubtreeChain`` grows that plane tree and sends plane child j of u to
the j-th inserted letter of an independent insertion ordering of u; the
subtrees it grows are nested.

The pairs (plane tree, ordering prefixes) that embed to a subtree tau are
one tree relabelled, so ``P(tau)`` is the product over the vertices u of
``e_{k_u}`` times the probability that the first ``k_u`` letters of u's
ordering are its child positions ``S_u``, over ``b_n``: ``st_law(tau)``
exactly when the prefix sets of the nested coupling follow ``subset_law``.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from ._rand import CHUNK, LazyUniform, derive_rng
from .compositions import ONE, ZERO, as_fraction
from .errors import DomainError
from .sgtrees import GrowthChain, PartitionTables, WeightSequence
from .treespace import PlaneTree, ROOT, RootedSubtree, Word

PositionMap = Dict[int, int]


# ---------------------------------------------------------------------------
# the left-packing bijection with decorated plane trees


def _image_map(tau, g: Mapping[Word, PositionMap]) -> Dict[Word, Word]:
    """The bijection u -> g.u obtained by repositioning along ancestral lines."""
    image: Dict[Word, Word] = {ROOT: ROOT}
    for u in tau.sorted_vertices():
        if u:
            p = u[:-1]
            image[u] = image[p] + (g[p][u[-1]],)
    return image


def left_packing(positions: Iterable[int]) -> PositionMap:
    """The order-preserving map sending a finite position set onto 1..k."""
    return {pos: rank for rank, pos in enumerate(sorted(positions), start=1)}


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
    unpack: Dict[Word, PositionMap] = {}
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


class SummableTheta:
    """Finitely supported non-negative type weights theta_1, theta_2, ...

    Carries the support, its size, the elementary symmetric values ``e``
    of the weights, which are the offspring weights of the matching plane
    tree model, and the threshold ``ladder`` of the nested coupling.

    ``ladder`` holds, per level, the pivot and its thresholds as
    ``(num, den, cut)``, where ``cut = (num << 32) // den`` is the 32-bit
    cut on which ``nested_subset_coupling`` decides when ``0 < num < den``,
    and None otherwise.  Level m pivots on the m-th support point.  With
    ``S_m`` the support from that point on, its k-th threshold is
    ``theta_pivot e_{k-1}(S_{m+1}) / e_k(S_m)``, reduced; the last level
    holds the one remaining support point and no thresholds.  One backward
    pass over the support builds it: the elementary symmetric values of
    ``S_m`` are those of ``S_{m+1}`` times ``1 + theta_pivot x``, and those
    of ``S_1``, the whole support, are ``e``.
    """

    __slots__ = ("values", "support", "e", "ladder")

    def __init__(self, values: Iterable):
        self.values = tuple(as_fraction(v) for v in values)
        if any(v < 0 for v in self.values):
            raise DomainError("type weights must be non-negative")
        self.support = tuple(i + 1 for i, v in enumerate(self.values) if v > 0)
        if not self.support:
            raise DomainError("type weights must have positive total mass")
        *pivots, last = self.support
        levels = [(last, ())]
        e = [ONE, self.value(last)]
        for pivot in reversed(pivots):
            x, inner = self.value(pivot), e
            e = [hi + x * lo for hi, lo in zip(inner + [ZERO], [ZERO] + inner)]
            thresholds = (x * inner[k - 1] / e[k] for k in range(1, len(e)))
            levels.append((pivot, tuple(
                (p.numerator, p.denominator, (p.numerator << CHUNK) // p.denominator if 0 < p < 1 else None)
                for p in thresholds)))
        self.ladder = tuple(reversed(levels))
        self.e = tuple(e)

    @property
    def n_support(self) -> int:
        return len(self.support)

    def value(self, i: int) -> Fraction:
        return self.values[i - 1] if 1 <= i <= len(self.values) else ZERO

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
    return [Fraction(num, den) for num, den, _ in thresholds] or [ONE]


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
        for k, (num, den, _) in enumerate(thresholds, start=1):
            pk = Fraction(num, den)
            weight, prev = pk - prev, pk
            if weight:
                for seq, mass in inner.items():
                    law[seq[:k - 1] + (pivot,) + seq[k - 1:]] = weight * mass
    return law


def nested_subset_coupling(theta, rng: random.Random) -> Tuple[int, ...]:
    """Sample the insertion ordering; prefix sets follow the subset laws.

    Each level of the threshold ladder inserts its pivot at the first rank
    whose threshold one uniform lies below.  The level draws one 32-bit
    chunk at its first threshold strictly inside (0, 1) and compares it with
    each cut; a chunk equal to a cut goes on to one ``LazyUniform(rng,
    chunk, 32)``, which answers every threshold with that cut.  As in
    ``sample_move``, the answers and the bits drawn are those of one
    ``LazyUniform(rng).is_below`` per level.
    """
    levels = coerce_theta(theta).ladder
    ranks = []
    for _, thresholds in levels[:-1]:
        bits = lazy = None
        rank = -1   # 0-based: the index at which the pivot enters the ordering of the later points
        # every level but the last has thresholds: when none says yes, rank ends at the last
        for num, den, cut in thresholds:
            rank += 1
            if cut is None:
                if num > 0:
                    break
                continue
            if bits is None:
                bits = rng.getrandbits(CHUNK)
            if bits < cut:
                break
            if bits == cut:
                lazy = lazy or LazyUniform(rng, bits, CHUNK)
                if lazy.is_below(num, den):
                    break
        ranks.append(rank)
    seq = [levels[-1][0]]
    for m in range(len(ranks) - 1, -1, -1):
        seq.insert(ranks[m], levels[m][0])
    return tuple(seq)


# ---------------------------------------------------------------------------
# matching the two growths


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


def subtree_grow_chain(theta, N: int, seed: int,
                       tables: Optional[PartitionTables] = None) -> List[RootedSubtree]:
    """Sample the nested subtree trace up to N vertices; deterministic per seed."""
    chain = SubtreeChain(theta, horizon=N, seed=seed, tables=tables)
    out = [chain.subtree()]
    while chain.n < N:
        chain.step()
        out.append(chain.subtree())
    return out

