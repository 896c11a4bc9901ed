"""Weighted random plane trees grown one right-leaning bouquet at a time.

A non-negative weight sequence ``w`` assigns mass ``prod_u w_{k_u(T)}``
to a plane tree ``T``; normalizing within trees of a fixed size gives the
simply generated laws, which include conditioned branching-process trees.
When the offspring weights are log-concave (along their arithmetic
progression when the support lives on multiples of d), consecutive laws
can be coupled so that each step adds one right-leaning leaf (d = 1) or
one right-leaning bouquet of d leaves.  This module computes the
partition tables, runs the exact inequality suites behind that
construction, builds the one-step transition kernels on enumerable state
spaces, and samples the growth chains.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

from .compositions import CheckReport, PartitionKernel, ZERO, ONE, as_fraction, cleared, peel_partition_values
from .compositions import check_ratio_chain  # noqa: F401  (re-exported: it checks tree tables too)
from .errors import DomainError, HorizonError, Refused
from .treespace import PlaneTree, ROOT, Word


class WeightSequence:
    """Offspring weights ``w_0, w_1, ...`` with an optional truncation horizon.

    A sequence with ``horizon=None`` is exactly what it says: zero beyond
    its entries.  A declared horizon marks a user-side truncation of an
    infinite family; reads past it raise instead of silently treating the
    unknown tail as zero.
    """

    __slots__ = ("entries", "horizon")

    def __init__(self, entries: Iterable, horizon: Optional[int] = None):
        self.entries = tuple(as_fraction(v) for v in entries)
        if any(v < 0 for v in self.entries):
            raise DomainError("offspring weights must be non-negative")
        if not any(self.entries):
            raise DomainError("offspring weights are identically zero")
        if horizon is not None and horizon < len(self.entries) - 1:
            raise DomainError("declared horizon shorter than the supplied entries")
        self.horizon = horizon

    def __getitem__(self, i: int) -> Fraction:
        if i < 0:
            raise DomainError("offspring weights are indexed from 0")
        if self.horizon is not None and i > self.horizon:
            raise HorizonError(f"w_{i} requested beyond declared truncation horizon {self.horizon}")
        return self.entries[i] if i < len(self.entries) else ZERO

    @property
    def radius(self) -> int:
        return max(i for i, v in enumerate(self.entries) if v != 0)

    def support(self) -> List[int]:
        return [i for i, v in enumerate(self.entries) if v != 0]

    def is_d_arithmetic(self, d: int) -> bool:
        return all(i % d == 0 for i in self.support())

    def progression(self, d: int) -> Tuple[Fraction, ...]:
        """The subsequence ``w_0, w_d, w_2d, ...`` up to the radius."""
        if d < 1:
            raise DomainError("d must be >= 1")
        if not self.is_d_arithmetic(d):
            bad = next(i for i in self.support() if i % d != 0)
            raise DomainError(f"weights are not supported on multiples of {d} (w_{bad} != 0)")
        return tuple(self.entries[i] for i in range(0, self.radius + 1, d))

    def __eq__(self, other):
        return (isinstance(other, WeightSequence)
                and self.entries == other.entries and self.horizon == other.horizon)

    def __hash__(self):
        return hash((self.entries, self.horizon))

    def __repr__(self):
        return f"WeightSequence({list(self.entries)!r}, horizon={self.horizon!r})"


def coerce_weights(w) -> WeightSequence:
    return w if isinstance(w, WeightSequence) else WeightSequence(w)


@dataclass(frozen=True)
class LogConcavity:
    ok: bool
    witness: Optional[int] = None

    def __bool__(self):
        return self.ok


def is_log_concave(xs) -> LogConcavity:
    """Check ``x_i^2 >= x_{i-1} x_{i+1}`` everywhere and the absence of internal zeros.

    The witness is the first index at which either condition fails.
    """
    x = [as_fraction(v) for v in xs]
    support = [i for i, v in enumerate(x) if v != 0]
    lo = support[0] if support else 0
    hi = support[-1] if support else -1
    for i in range(len(x)):
        if lo < i < hi and x[i] == 0:
            return LogConcavity(False, i)
        if 1 <= i <= len(x) - 2 and x[i] * x[i] < x[i - 1] * x[i + 1]:
            return LogConcavity(False, i)
    return LogConcavity(True, None)


def require_log_concave(w, d: int):
    """Refuse growth (``Refused``, with the witness) unless ``w_0, w_d, w_2d, ...`` is log-concave."""
    lc = is_log_concave(coerce_weights(w).progression(d))
    if not lc.ok:
        raise Refused(lc.witness)


def tilt(w, alpha, beta) -> WeightSequence:
    """Reweight ``w_i`` to ``alpha * beta^i * w_i`` (exponential tilt)."""
    w = coerce_weights(w)
    alpha = as_fraction(alpha)
    beta = as_fraction(beta)
    if alpha <= 0 or beta <= 0:
        raise DomainError("tilt parameters must be positive")
    entries = [alpha * beta ** i * v for i, v in enumerate(w.entries)]
    return WeightSequence(entries, horizon=w.horizon)


class PartitionTables(PartitionKernel):
    """Exact tables for a weight sequence: tree masses and shifted partition values.

    ``b_n`` is the total mass of trees with n vertices and
    ``Z_ell(t) = sum_k w_{k+ell} f(t, k)``, where ``f(t, k)`` weighs the
    ordered k-tree forests with t vertices.  One peeling recursion builds
    both, for every d: ``b_n = Z_0(n - 1)``.  It runs on the integer
    weights ``L w``, where ``L`` clears the denominators of ``w``; every
    law is unchanged (see ``tilt``), and the tables hold
    ``L^(t+1) Z_ell(t)`` and ``L^n b_n``.  ``log_concave`` is the verdict
    of ``is_log_concave`` on ``w_0, w_d, w_2d, ...``: a ``GrowthChain`` on
    these tables refuses from it, while the inequality suites build tables
    for any weights.
    """

    def __init__(self, w: WeightSequence, d: int, N: int):
        w = coerce_weights(w)
        if d < 1:
            raise DomainError("d must be >= 1")
        if N < 1:
            raise DomainError("the vertex horizon must be at least 1")
        if w.horizon is not None and N - 1 > w.horizon:
            raise HorizonError(
                f"tables to {N} vertices need w up to index {N - 1}, truncation horizon is {w.horizon}")
        if not w.is_d_arithmetic(d):
            raise DomainError(f"weights must be supported on multiples of d={d}")
        if w[0] == 0 or w[d] == 0:
            raise DomainError(f"need w_0 w_{d} > 0 for trees of every size to carry mass")
        r = w.radius
        scale, entries = cleared(w.entries[:r + 1])
        super().__init__(d, r, scale, scale, N - 1)
        self.w = w
        self.N = N
        self.log_concave = is_log_concave(w.progression(d))
        self._z = peel_partition_values(entries, N - 1)
        self._b = [0] + self._z[0]

    def b_value(self, n: int) -> Fraction:
        if n < 1:
            raise DomainError("tree sizes start at 1")
        if n > self.N:
            raise HorizonError(f"b_{n} beyond the vertex horizon {self.N}")
        return Fraction(self._b[n], self.b_scale ** n)

    # -- PartitionKernel surface ----------------------------------------------

    def b_weight(self, m: int) -> Fraction:
        return self.b_value(m)

    def partition_int(self, ell: int, t: int) -> int:
        z = super().partition_int(ell, t)
        if self.w.horizon is not None and ell + t > self.w.horizon:
            raise HorizonError(f"w_{ell + t} requested beyond declared truncation horizon {self.w.horizon}")
        return z

    def partition_value(self, ell: int, t: int) -> Fraction:
        return Fraction(self.partition_int(ell, t), self.scale(t))


def compute_tables(w, d: int = 1, N: int = 10) -> PartitionTables:
    """Build the exact tables needed for laws and kernels up to N vertices."""
    return PartitionTables(coerce_weights(w), d, N)


def forest_array(w, T: int) -> List[List[Fraction]]:
    """``f[t][k]``: weighted count of ordered k-tree forests with t vertices, for t, k <= T.

    Lukasiewicz recursion on the first vertex, whose i children join the
    remaining trees: ``f(t, k) = sum_i w_i f(t - 1, k + i - 1)``.
    """
    w = coerce_weights(w)
    support = [(i, w[i]) for i in w.support()]
    f = [[ZERO] * (T + 1) for _ in range(T + 1)]
    f[0][0] = ONE
    for t in range(1, T + 1):
        prev = f[t - 1]
        for k in range(1, t + 1):
            acc = ZERO
            for i, wi in support:
                j = k + i - 1
                if j < t and prev[j]:
                    acc += wi * prev[j]
            f[t][k] = acc
    return f


def check_tp2_array(tables: PartitionTables, N: Optional[int] = None) -> CheckReport:
    """Exactly verify all 2x2 minors of the forest arrays are non-negative.

    There is one array per residue s mod d, ``F_s(n, k) = f(nd + s, kd + s)``;
    rows and columns run over 1..N when d = 1 and over 0..N otherwise, with
    N capped by the tables' vertex horizon.
    """
    report = CheckReport(name="tp2-array")
    d = tables.d
    cap = (tables.N - 1) // d
    top = cap if N is None else min(N, cap)
    low = 1 if d == 1 else 0
    f = forest_array(tables.w, top * d + d - 1)
    for s in range(d):
        F = [[f[n * d + s][k * d + s] for k in range(top + 1)] for n in range(top + 1)]
        where = {"s": s} if d > 1 else {}
        for n in range(low, top + 1):
            for n2 in range(n, top + 1):
                for k in range(low, top + 1):
                    for k2 in range(k, top + 1):
                        lhs = F[n][k] * F[n2][k2]
                        rhs = F[n][k2] * F[n2][k]
                        report.record(lhs >= rhs, **where, n=n, n2=n2, k=k, k2=k2, lhs=lhs, rhs=rhs)
    return report


def growth_kernel_row(tables: PartitionTables, tree: PlaneTree) -> Dict[PlaneTree, Fraction]:
    """Exact one-step law of the growth chain from the given tree.

    Walks the tree from the root as ``GrowthChain.step`` does: the
    children's subtree sizes at a vertex take one move from ``kernel_row``;
    an increment continues the walk at that child with the product so far,
    an append plants the bouquet there.  Rows sum to one and are supported
    on right-leaning bouquet additions.
    """
    d = tables.d
    size = dict.fromkeys(tree.vertices, 1)
    for u in sorted(tree.vertices, key=len, reverse=True):
        if u:
            size[u[:-1]] += size[u]
    out: Dict[PlaneTree, Fraction] = {}
    stack = [(ROOT, ONE)]
    while stack:
        v, p = stack.pop()
        k = tree.children_count(v)
        parts = tuple(size[v + (j,)] for j in range(1, k + 1))
        for (kind, j), q in tables.kernel_row(size[v] - 1, parts).items():
            if kind == "inc":
                stack.append((v + (j + 1,), p * q))
            else:
                out[PlaneTree(tree.vertices | {v + (k + i,) for i in range(1, d + 1)})] = p * q
    return out


@dataclass(frozen=True)
class GrowthStep:
    """One step of a growth chain; its probability is kept as the unreduced pair ``num/den``."""

    index: int
    n: int
    parent: Word
    new_vertices: Tuple[Word, ...]
    num: int
    den: int

    @property
    def prob(self) -> Fraction:
        """The exact probability of the step, reduced on each read."""
        return Fraction(self.num, self.den)


class GrowthChain:
    """Single-owner sampler of the increasing tree process.

    The state is the tree, kept as one map from each vertex to its
    children's subtree sizes: the local composition of that vertex.  Each
    step descends from the root, deciding at every level whether the
    current first part of the local composition grows, and finally plants
    a right-leaning bouquet.
    Deterministic given the rng stream.
    """

    def __init__(self, w, d: int = 1, horizon: int = 10, rng: Optional[random.Random] = None,
                 tables: Optional[PartitionTables] = None):
        w = coerce_weights(w)
        if tables is None:
            require_log_concave(w, d)
            tables = compute_tables(w, d, N=horizon)
        else:
            if (tables.w is not w and tables.w != w) or tables.d != d:
                require_log_concave(w, d)   # a refusal of w comes first, as without tables
                raise DomainError("supplied tables were built for other weights or another d")
            if not tables.log_concave:
                raise Refused(tables.log_concave.witness)
            if tables.N < horizon:
                raise HorizonError("supplied tables stop before the requested horizon")
        self.w = w
        self.d = d
        self.horizon = horizon
        self.rng = rng if rng is not None else random.Random()
        self.tables = tables
        self._parts: Dict[Word, List[int]] = {ROOT: []}
        self.n = 1
        self.step_index = 0

    def tree(self) -> PlaneTree:
        return PlaneTree(self._parts.keys())

    def tree_key(self) -> frozenset:
        return frozenset(self._parts.keys())

    def step(self) -> GrowthStep:
        if self.n + self.d > self.horizon:
            raise HorizonError(f"chain at {self.n} vertices cannot grow past horizon {self.horizon}")
        d = self.d
        sample_move, rng, parts_of = self.tables.sample_move, self.rng, self._parts
        v: Word = ROOT
        t = self.n - 1
        path = []  # (children's sizes, index of the child descended into) above v
        num = den = 1
        while True:
            parts = parts_of[v]
            (kind, j), p, q = sample_move(t, parts, rng)
            num *= p
            den *= q
            if kind == "append":
                new = tuple(v + (j + i,) for i in range(1, d + 1))
                for u in new:
                    parts_of[u] = []
                parts += [1] * d
                for above, i in path:
                    above[i] += d
                self.n += d
                self.step_index += 1
                return GrowthStep(self.step_index, self.n, v, new, num, den)
            path.append((parts, j))
            t = parts[j] - 1
            v = v + (j + 1,)

    def run(self) -> List[GrowthStep]:
        steps = []
        while self.n + self.d <= self.horizon:
            steps.append(self.step())
        return steps


def grow_chain(w, d: int, N: int, rng: random.Random,
               tables: Optional[PartitionTables] = None) -> List[PlaneTree]:
    """Sample the nested tree trace up to N vertices; deterministic per rng stream."""
    chain = GrowthChain(w, d, horizon=N, rng=rng, tables=tables)
    trees = [chain.tree()]
    while chain.n + d <= N:
        chain.step()
        trees.append(chain.tree())
    return trees
