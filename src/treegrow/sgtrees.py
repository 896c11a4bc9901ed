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
from fractions import Fraction
from itertools import repeat
from math import gcd
from operator import mod, mul
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .compositions import (CheckReport, FrozenRecord, PartitionKernel, WeightSequence, as_fraction, cleared,
                           coerce_weights, peel_partition_values)
from .compositions import check_ratio_chain  # noqa: F401  (re-exported: it checks tree tables too)
from .errors import DomainError, HorizonError, Refused
from .treespace import (CountWord, PlaneTree, ROOT, Word, child_count_word, child_sizes,
                        from_child_count_word)


class LogConcavity(FrozenRecord):
    """Whether a sequence is log-concave, and the first index where it is not."""

    __slots__ = ("ok", "witness")

    def __init__(self, ok: bool, witness: Optional[int] = None):
        super().__init__(ok, witness)

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

    def __init__(self, w: WeightSequence, d: int, N: int, _keep_sums: bool = False):
        w = tree_weights(w, d, N)
        r = w.radius
        scale, entries = cleared(w.entries[:r + 1])
        super().__init__(d, r, scale, scale, N - 1, _keep_sums)
        self.truncation = w.horizon
        self.w = w
        self.N = N
        self.log_concave = is_log_concave(w.progression(d))
        self._z = peel_partition_values(entries, N - 1, None, d, self._sums)
        self._b = [0] + self._z[0]

    def b_value(self, n: int) -> Fraction:
        if n < 1:
            raise DomainError("tree sizes start at 1")
        if n > self.N:
            raise HorizonError(f"b_{n} beyond the vertex horizon {self.N}")
        return Fraction(self._b[n], self.b_scale ** n)

    # -- PartitionKernel surface ----------------------------------------------

    def partition_value(self, ell: int, t: int) -> Fraction:
        return Fraction(self.partition_int(ell, t), self.scale(t))


def tree_weights(w, d: int, N: int) -> WeightSequence:
    """``w`` as a weight sequence, refused as the tree tables and forest arrays to N vertices and span d refuse it."""
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
    return w


def compute_tables(w, d: int = 1, N: int = 10, _keep_sums: bool = False) -> PartitionTables:
    """Build the exact tables needed for laws and kernels up to N vertices.

    ``_keep_sums`` has the peel keep the running sums that the step rows of
    a chain's walk read (see ``PartitionKernel``): chains set it for the
    tables they build, and every other caller leaves it off.
    """
    return PartitionTables(coerce_weights(w), d, N, _keep_sums)


def ratios_rise(x: List[int], y: List[int], low: int) -> bool:
    """Whether every minor ``x_k y_k2 - x_k2 y_k`` with ``low <= k <= k2`` of two non-negative rows is >= 0.

    A minor with ``y_k = 0`` or ``x_k2 = 0`` is a product of non-negative
    entries, so only the columns from the first k with ``y_k > 0`` to the
    last with ``x_k > 0`` matter.  There a column with exactly one zero
    entry fails against one of those two ends, a column of two zeros only
    meets zero minors, and on the columns with two positive entries the
    minors are non-negative exactly when the ratios ``y_k / x_k`` do not
    decrease, which transitivity reduces to neighbouring columns: one
    cross-multiplication per column.
    """
    first = next((k for k in range(low, len(y)) if y[k]), len(y))
    last = next((k for k in range(len(x) - 1, low - 1, -1) if x[k]), -1)
    px = py = 0  # the last ratio py / px; 0 / 0 lets the first one pass
    for xk, yk in zip(x[first:last + 1], y[first:last + 1]):
        if xk and yk:
            if yk * px < py * xk:
                return False
            px, py = xk, yk
        elif xk or yk:
            return False
    return True


def adjacent_rows_decide(F: List[List[int]], low: int) -> bool:
    """Whether no row of the non-negative array ``F`` is empty and its adjacent rows all pass ``ratios_rise``.

    From row and column ``low`` on, let row n have its positive entries
    between ``l_n`` and ``e_n``.  Then adjacent rows that pass make every
    minor with ``low <= n <= n2`` and ``low <= k <= k2`` non-negative.
    First, the ends do not decrease: were ``l_{m+1} < l_m``, the minor at
    columns ``l_{m+1} < l_m`` of rows m, m + 1 would be ``0 - F[m][l_m]
    F[m+1][l_{m+1}] < 0``, and likewise at columns ``e_{m+1} < e_m``.  So
    the scan of each adjacent pair reads a window ``[l_{m+1}, e_m]`` that
    holds ``[l_{n2}, e_n]`` for every n <= m < n2, and a column there with
    exactly one zero in rows m, m + 1 would fail it.  Each column of
    ``[l_{n2}, e_n]`` is thus positive in all rows from n to n2 or zero in
    all.  A minor of rows n < n2 at columns k < k2 can only fail with
    ``F[n][k2] F[n2][k] > 0``, which puts k and k2 in that window, on
    columns positive in every row between; there the adjacent ratios
    ``F[m+1][k] / F[m][k]`` do not decrease in k, and their product over
    n <= m < n2, ``F[n2][k] / F[n][k]``, does not either.  A row with no
    positive entry has no ends, and between two others it hides a falling
    pair from both its scans, so then the answer is False.
    """
    rows = F[low:]
    if not all(any(row[low:]) for row in rows):
        return False
    return all(ratios_rise(x, y, low) for x, y in zip(rows, rows[1:]))


def failing_minors(F: List[List[int]], low: int) -> Iterator[Tuple[int, int, int, int, int, int]]:
    """The minors of ``F`` that fail, as ``(n, n2, k, k2, lhs, rhs)`` with ``lhs < rhs``.

    The minor at ``low <= n <= n2`` and ``low <= k <= k2`` compares
    ``lhs = F[n][k] F[n2][k2]`` with ``rhs = F[n][k2] F[n2][k]``; the
    failures come in row-major order of ``(n, n2, k, k2)``.  An array that
    ``adjacent_rows_decide`` accepts has none; otherwise each row pair is
    decided by one ``ratios_rise`` scan, and only a pair that fails it
    compares its minors one by one.
    """
    if adjacent_rows_decide(F, low):
        return
    for n in range(low, len(F)):
        row = F[n]
        for n2 in range(n, len(F)):
            row2 = F[n2]
            if ratios_rise(row, row2, low):
                continue
            for k in range(low, len(row)):
                a, c = row[k], row2[k]
                for k2 in range(k, len(row)):
                    lhs, rhs = a * row2[k2], row[k2] * c
                    if lhs < rhs:
                        yield n, n2, k, k2, lhs, rhs


def packed_powers(u: Sequence[int], T: int, slots: int) -> Tuple[int, Iterator[bytes]]:
    """The slot width W in bytes and the powers ``u^1, ..., u^T`` of a polynomial, one packed int each.

    Kronecker substitution: a polynomial with non-negative integer
    coefficients is the int ``u(2^(8W))``, each coefficient in a slot of W
    bytes, and each power is one int, the power before times ``u(2^(8W))``.
    Each is masked to its first ``slots`` slots, which the slots above never
    reach, and handed out as its ``slots * W`` little-endian bytes: the
    coefficient of ``x^j`` is bytes ``jW`` to ``(j + 1)W``.  Every
    coefficient of ``u^t`` lies between 0 and ``u(1)^t``, and W is the byte
    length of ``u(1)^T``, so no slot carries into the next.
    """
    width = ((sum(u) ** T).bit_length() + 7) // 8
    size = slots * width
    terms = [(c, 8 * width * j) for j, c in enumerate(u[:slots]) if c]
    mask = (1 << 8 * size) - 1

    def powers():
        power = 1
        for _ in range(T):
            # times u(2^(8W)): one shifted multiple of the power per weight, each a product by a small int,
            # which at n-max 120 takes a half to a fifth of the time of one product of the two packed ints
            power = sum([(power * c if c > 1 else power) << at for c, at in terms]) & mask
            yield power.to_bytes(size, "little")

    return width, powers()


def forest_arrays(u: Sequence[int], d: int, top: int) -> List[List[List[int]]]:
    """The forest arrays ``F_s[n][k] = L^(nd+s) f(nd + s, kd + s)``, n, k <= top, of each residue s < d.

    ``u = L w_0, L w_d, L w_2d, ...`` are the cleared weights along their
    progression.  By Kemperman's formula (see ``check_tp2_array``), row n of
    ``F_s`` is read off the coefficients of ``x^0, ..., x^n`` in
    ``u(x)^(nd + s)``, ``x = y^d``, divided by ``nd + s``.  Each division is
    checked to be exact: an ``ArithmeticError`` would mean a carry between slots.
    """
    width, powers = packed_powers(u, top * d + d - 1, top + 1)
    arrays: List[List[List[int]]] = [[[1] + [0] * top]] + [[] for _ in range(1, d)]   # f(0, k) = [k = 0]
    for t, data in enumerate(powers, start=1):
        n, s = divmod(t, d)
        # column k reads slot n - k, times kd + s: the slots n, n - 1, ..., 0 against s, s + d, ..., t
        coefficients = [int.from_bytes(data[i:i + width], "little") for i in range(n * width, -1, -width)]
        counts = list(map(mul, range(s, t + 1, d), coefficients))
        if any(map(mod, counts, repeat(t))):
            raise ArithmeticError(f"a forest count of size {t} is not an integer: a slot carried")
        arrays[s].append([c // t for c in counts] + [0] * (top - n))
    return arrays


def check_tp2_array(w, d: int, N: int) -> CheckReport:
    """Exactly verify all 2x2 minors of the forest arrays of the weights ``w`` are non-negative.

    There is one array per residue s mod d, ``F_s(n, k) = f(nd + s, kd + s)``,
    where ``f(t, k)`` weighs the ordered k-tree forests with t vertices;
    rows and columns run over 1..N' when d = 1 and over 0..N' otherwise, N'
    the largest that the vertex horizon N allows.  No tables are built:
    Kemperman's formula (Lagrange inversion; Pitman, *Combinatorial
    Stochastic Processes*, 2006, section 6.1) gives every forest count
    from the powers of the cleared weights ``L w``,
    ``L^t f(t, k) = (k / t) [y^(t - k)] (L w)(y)^t``, and ``forest_arrays``
    reads them off ``packed_powers``: each power is one int with a slot
    per coefficient, each slot as wide as ``(L w)(1)^T``, T the last power,
    which bounds every coefficient of every power, so no slot carries, and
    each division by t is checked to be exact.  Both products of the minor
    at rows n, n2 carry the scale ``L^((n + n2) d + 2s)``, so they are
    compared as integers.  Since every tree size 1 mod d carries mass, no
    row of an array is empty, and when its adjacent rows pass their
    ``ratios_rise`` scans (``adjacent_rows_decide``), every row pair does:
    O(N^2) column comparisons decide the array.  Otherwise
    ``failing_minors`` scans every row pair, and a failing minor reports
    both sides divided by the scale.  ``checked`` counts every minor so
    decided.  The weights are refused as ``compute_tables`` refuses them
    (``tree_weights``).
    """
    w = tree_weights(w, d, N)
    report = CheckReport(name="tp2-array")
    top = (N - 1) // d
    low = 1 if d == 1 else 0
    size = top + 1 - low
    minors_per_array = (size * (size + 1) // 2) ** 2
    L, u = cleared(w.progression(d))
    for s, F in enumerate(forest_arrays(u, d, top)):
        where = {"s": s} if d > 1 else {}
        report.checked += minors_per_array
        for n, n2, k, k2, lhs, rhs in failing_minors(F, low):
            scale = L ** ((n + n2) * d + 2 * s)
            report.failures.append({**where, "n": n, "n2": n2, "k": k, "k2": k2,
                                    "lhs": str(Fraction(lhs, scale)), "rhs": str(Fraction(rhs, scale))})
    return report


def add_spliced(acc: Dict[CountWord, Tuple[int, int]], head: CountWord, tail: CountWord,
                row: Dict[CountWord, Tuple[int, int]], pn: int, pd: int) -> None:
    """Add ``(pn, pd)`` times each pair of ``row`` into ``acc``, its target spliced to ``head + target + tail``.

    The pair of a target new to ``acc`` is the product ``(num pn, den pd)``;
    one already there adds it unreduced: over one denominator the
    numerators add, otherwise the two pairs cross-multiply.
    """
    for target, (num, den) in row.items():
        key = head + target + tail
        num *= pn
        den *= pd
        old = acc.get(key)
        if old is None:
            acc[key] = (num, den)
        else:
            acc_num, scale = old
            acc[key] = (acc_num + num, den) if scale == den else (acc_num * den + num * scale, scale * den)


class GrowthRows:
    """The row function of ``growth_kernel``: ``word -> `` the exact one-step law of the growth chain from that tree.

    The walk of ``GrowthChain.step`` takes one move at the root from
    ``tables.kernel_row``: an append plants the bouquet there, and an
    increment continues the walk at that child, inside its subtree, whose
    word is a subword.  So the row is the root's append, then, for each
    increment, the row of the child's subword with each target spliced
    back into the word and its pair multiplied by the move's.  Each target
    is keyed by its word: the vertex at position i gains d children, d
    leaves that follow its subtree.  Its probability is the unreduced
    integer pair ``(num, den)`` that multiplies the ``factors`` of the step
    to it, and rows sum to one.

    ``laws`` keeps each move law by its parts, which fix its total, and
    ``subtree_rows`` the row of each child subword, so every law and every
    subtree row is formed once however many trees hold it (the subtree
    rows of a path of n vertices hold O(n^3) letters: the rows are for
    enumerable sizes).  Both memos live here, so the tables keep no rows
    and two row functions share nothing.  ``push`` adds a mass times the
    row of a word straight into an accumulation, building no row for
    that word.
    """

    __slots__ = ("tables", "laws", "subtree_rows", "_leaves")

    def __init__(self, tables: PartitionTables):
        self.tables = tables
        self.laws: Dict[Tuple[int, ...], List[Tuple[int, int, int, int]]] = {}
        self.subtree_rows: Dict[CountWord, Dict[CountWord, Tuple[int, int]]] = {}
        self._leaves = {(0,) * tables.d: (1, 1)}  # the row of a bouquet spliced after a subtree

    def __call__(self, word: CountWord) -> Dict[CountWord, Tuple[int, int]]:
        row: Dict[CountWord, Tuple[int, int]] = {}
        self.push(word, 1, row)
        return row

    def push(self, word: CountWord, mass: int, acc: Dict[CountWord, Tuple[int, int]]) -> None:
        """Add ``mass`` times the row of ``word`` into ``acc`` (see ``add_spliced``)."""
        self._spread(word, child_sizes(word), mass, 1, acc)

    def _spread(self, word, sizes, pn, pd, acc):
        parts = sizes[0]
        law = self.laws.get(parts)
        if law is None:
            law = self.laws[parts] = self._law(parts)
        for start, end, qn, qd in law:
            if start:
                sub = word[start:end]
                row = self.subtree_rows.get(sub)
                if row is None:
                    row = {}
                    self._spread(sub, sizes[start:end], 1, 1, row)
                    self.subtree_rows[sub] = row  # only once whole: a refused subtree is refused again
                add_spliced(acc, word[:start], word[end:], row, pn * qn, pd * qd)
            else:
                add_spliced(acc, (word[0] + self.tables.d,) + word[1:], (), self._leaves, pn * qn, pd * qd)

    def _law(self, parts):
        """The root's moves from these parts as ``(start, end, num, den)``: the span of the child an
        increment continues at, ``(0, 0)`` for the append, in the order the targets come."""
        law = []
        for (kind, j), (qn, qd) in self.tables.kernel_row(sum(parts), parts).items():
            if kind == "inc":
                start = 1 + sum(parts[:j])
                law.append((start, start + parts[j], qn, qd))
            else:
                law.append((0, 0, qn, qd))
        return law[::-1]


def growth_word_row(tables: PartitionTables, word: CountWord) -> Dict[CountWord, Tuple[int, int]]:
    """Exact one-step law of the growth chain from the tree of the given child-count word (see ``GrowthRows``)."""
    return GrowthRows(tables)(word)


def growth_kernel_row(tables: PartitionTables, tree: PlaneTree) -> Dict[frozenset, Tuple[int, int]]:
    """``growth_word_row`` from the given tree, each target keyed by its word set (``PlaneTree(key)`` is the tree)."""
    row = growth_word_row(tables, child_count_word(tree))
    return {from_child_count_word(word).vertices: pair for word, pair in row.items()}


def growth_kernel(tables: PartitionTables) -> GrowthRows:
    """The row function ``word -> growth_word_row(tables, word)``, forming each move law and subtree row once.

    Each law is still read off one ``sample_move`` walk by ``kernel_row``.
    """
    return GrowthRows(tables)


class GrowthStep:
    """One step of a growth chain; ``factors`` holds the integer pairs ``(p, q)`` of its decisions.

    Each pair is the probability ``p/q`` of one decision that was not
    certain, so their product is the probability of the step.  ``prob``
    forms it on its first read: each denominator is cancelled against the
    numerators of the decisions before and after it, with which it often
    shares a partition value, and the cancelled pairs are multiplied and
    reduced once.  A pair is not first reduced by its own gcd: on rough
    weights such as 1,1,1 that gcd has a few bits and costs more than it
    saves, while on smooth ones the neighbours cancel most of it too.
    ``factors`` keeps the pairs as the walk produced them.
    """

    __slots__ = ("index", "n", "parent", "new_vertices", "factors", "_prob")

    def __init__(self, index: int, n: int, parent: Word, new_vertices: Tuple[Word, ...],
                 factors: List[Tuple[int, int]]):
        self.index = index
        self.n = n
        self.parent = parent
        self.new_vertices = new_vertices
        self.factors = factors
        self._prob: Optional[Fraction] = None

    @property
    def prob(self) -> Fraction:
        """The exact probability of the step, formed on the first read."""
        if self._prob is None:
            num = den = 1
            last_p = last_q = 1  # the pair before, cancelled against this one before it is multiplied in
            for p, q in self.factors:
                g = gcd(last_q, p)
                if g > 1:
                    last_q //= g
                    p //= g
                g = gcd(last_p, q)
                if g > 1:
                    last_p //= g
                    q //= g
                num *= last_p
                den *= last_q
                last_p, last_q = p, q
            self._prob = Fraction(num * last_p, den * last_q)
        return self._prob


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
            tables = compute_tables(w, d, N=horizon, _keep_sums=True)
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
        factors = []
        while True:
            parts = parts_of[v]
            kind, j = sample_move(t, parts, None, rng, factors)
            if kind == "append":
                new = (v + (j + 1,),) if d == 1 else tuple([v + (i,) for i in range(j + 1, j + d + 1)])
                for u in new:
                    parts_of[u] = []
                parts += [1] * d
                self.n += d
                self.step_index += 1
                return GrowthStep(self.step_index, self.n, v, new, factors)
            # every walk ends in an append below, so the child descended into gains d vertices
            t = parts[j] - 1
            parts[j] += d
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
