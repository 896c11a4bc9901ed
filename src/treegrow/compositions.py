"""Random compositions of integers with exact rational weights.

A weight pair ``(a, b)`` puts mass ``a_r * b_{n_1} ... b_{n_r}`` on the
composition ``n_1 ... n_r`` of ``n``; normalizing by the partition value
``Z_n`` gives a probability law on compositions of ``n``.  This module
computes those laws exactly, couples consecutive ones so that every step
is a covering move (increment one part by d, or append d parts equal
to 1), and checks the ratio inequalities under which such couplings
exist.

Everything is exact: the tables clear denominators once and run over
Python ints, and the laws and kernels handed out are exact rationals.  The
one-step kernels produced here are verified elsewhere by exact interchange
against the target laws, which is only meaningful without rounding.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import accumulate, chain, repeat
from operator import mul
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ._rand import CHUNK, LazyUniform
from .errors import DomainError, HorizonError, NotCoupleable, ZeroMassError

Composition = Tuple[int, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


# Largest decimal exponent, and longest run of digits, read from text: Fraction('1e-10000000')
# computes 10**10000000.  The interpreter's default int-digit limit refuses such runs from 3.11 on;
# this fixed bound refuses them on 3.10 as well (sys.get_int_max_str_digits is new in 3.11).
MAX_DECIMAL_EXPONENT = 4300
_LONG_DIGIT_RUN = re.compile(rf"\d{{{MAX_DECIMAL_EXPONENT + 1}}}")


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions and exact strings like ``3/4``, ``0.25`` or ``1e-3``.

    Floats are rejected: their binary value is almost never the decimal
    the caller had in mind, and every table in this package must be exact.
    So are decimal exponents beyond ``MAX_DECIMAL_EXPONENT`` in magnitude,
    and runs of more than that many digits.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        digits = value.replace("_", "")
        exponent = digits.lower().partition("e")[2].strip().lstrip("+-")
        # a longer exponent is a long digit run, refused below
        if (exponent.isdecimal() and len(exponent) <= MAX_DECIMAL_EXPONENT
                and int(exponent) > MAX_DECIMAL_EXPONENT):
            raise DomainError(f"refusing {value!r}: its decimal exponent exceeds "
                              f"{MAX_DECIMAL_EXPONENT} in magnitude")
        try:
            if _LONG_DIGIT_RUN.search(digits):
                raise ValueError(value)
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise DomainError(f"cannot parse {value!r} as an exact rational") from None
    if isinstance(value, float):
        raise DomainError(f"refusing float {value!r}: pass a string or Fraction for exactness")
    raise DomainError(f"cannot interpret {value!r} as an exact rational")


class Record:
    """A small value class: equality, ``repr`` and pickling over the fields its ``__slots__`` names.

    ``__init__`` takes the fields in that order.  A record compares equal
    only to one of its own class, and is unhashable unless frozen.
    """

    __slots__ = ()
    __hash__ = None

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self.__slots__)})"

    def __reduce__(self):
        return type(self), self._fields()


class FrozenRecord(Record):
    """A ``Record`` whose fields cannot be assigned after ``__init__``, hashed by its fields."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._fields())


class ArithClass(FrozenRecord):
    """Residue data (d, s): parts are 1 mod d and the part count is s mod d."""

    __slots__ = ("d", "s")

    def __init__(self, d: int = 1, s: int = 0):
        if d < 1:
            raise DomainError("d must be >= 1")
        if not 0 <= s < d:
            raise DomainError("s must lie in {0, ..., d-1}")
        super().__init__(d, s)


PLAIN = ArithClass(1, 0)


def iter_compositions(n: int, cls: ArithClass = PLAIN) -> Iterator[Composition]:
    """All compositions of n in the class, in lexicographic order.

    Every part is 1 mod d, so parts step by d; a composition is kept when
    its part count is s mod d.
    """
    if n < 0:
        raise DomainError("n must be >= 0")
    d, s = cls.d, cls.s

    def rec(remaining, prefix):
        if remaining == 0:
            if len(prefix) % d == s:
                yield prefix
            return
        for first in range(1, remaining + 1, d):
            yield from rec(remaining - first, prefix + (first,))

    yield from rec(n, ())


class WeightSequence:
    """Exact weights ``w_0, w_1, ...`` (offspring, count or part) with an optional truncation horizon.

    A sequence with ``horizon=None`` is exactly what it says: zero beyond
    its entries.  A declared horizon marks a user-side truncation of an
    infinite family; reads past it raise instead of silently treating the
    unknown tail as zero.
    """

    __slots__ = ("entries", "horizon")

    def __init__(self, entries: Iterable, horizon: Optional[int] = None):
        if horizon is None and isinstance(entries, WeightSequence):
            horizon = entries.horizon  # a copy keeps its truncation
        self.entries = tuple(as_fraction(v) for v in entries)
        if any(v < 0 for v in self.entries):
            raise DomainError("weights must be non-negative")
        if not any(self.entries):
            raise DomainError("weights are identically zero")
        if horizon is not None and horizon < len(self.entries) - 1:
            raise DomainError("declared horizon shorter than the supplied entries")
        self.horizon = horizon

    def __getitem__(self, i: int) -> Fraction:
        if i < 0:
            raise DomainError("weights are indexed from 0")
        if self.horizon is not None and i > self.horizon:
            raise HorizonError(f"weight {i} requested beyond declared truncation horizon {self.horizon}")
        return self.entries[i] if i < len(self.entries) else ZERO

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.entries)

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


class WeightPair:
    """Count weights ``a`` and part weights ``b``, each a ``WeightSequence``.

    ``b`` holds ``b_0 = 0`` before the given part weights ``b_1, ..., b_H``
    and declares the horizon ``H``, so a read past the last part weight
    raises ``HorizonError``.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: Iterable, b: Iterable):
        self.a = WeightSequence(a)
        b = tuple(b)
        self.b = WeightSequence((0, *b), horizon=len(b))

    def check_nondegenerate(self, cls: ArithClass = PLAIN):
        """Raise unless the pair is non-degenerate for the given class."""
        support = self.a.support()
        d, s = cls.d, cls.s
        if self.a[s] == 0:
            raise DomainError(f"degenerate weight pair: a_{s} must be positive")
        expected = list(range(s, support[-1] + 1, d))
        if support != expected:
            raise DomainError(f"degenerate weight pair: support of a must be {{s, s+d, ...}}, got {support}")
        if s == 0 and len(support) < 2:
            raise DomainError("degenerate weight pair: with s = 0 the support of a cannot be {0}")
        for m in range(1, self.b.horizon + 1):
            if (self.b[m] != 0) != (m % d == 1 % d):
                raise DomainError(f"degenerate weight pair: b must be supported exactly on 1 mod d (b_{m})")

    def __eq__(self, other):
        return isinstance(other, WeightPair) and self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __repr__(self):
        return f"WeightPair(a={list(self.a)!r}, b={list(self.b)[1:]!r})"


def peel_partition_values(a: Sequence[int], T: int, b: Optional[Callable[[int], int]], d: int,
                          sums: Sequence[List[Optional[List[int]]]] = ()) -> List[List[int]]:
    """Partition values ``z[ell][t] = Z_ell(t)`` of every shift of ``a``, for totals t <= T.

    Peeling off the first part gives
    ``Z_ell(t) = a_ell [t = 0] + sum_{m = 1 mod d} b_m Z_{ell+1}(t - m)``,
    with ``Z_ell = 0`` past the last entry of ``a``.  ``b(m)`` is read once,
    when the loop reaches total m; with ``b = None`` the part weights are
    the tree masses ``b_m = Z_0(m - 1)``, known by then.  The tables pass
    integer weights, so the recursion never leaves Python ints.  The sum
    runs over the slices ``first_part_sums`` reads: ``b_1, b_{1+d}, ...``
    against ``Z_{ell+1}(t - 1), Z_{ell+1}(t - 1 - d), ...``.

    The count weights must lie on one residue class s mod d and the part
    weights on 1 mod d (``DomainError`` otherwise).  Then ``Z_ell(t) = 0``
    unless ``t = s - ell (mod d)``, so at each total only the shifts of
    that class run the sum and the others stay 0; at d = 1 every shift runs.

    Each list ``sums[ell]`` given, of length T + 1, keeps at index t the
    running sums of that sum, cut at the last point with mass (``[0]`` at
    a total with none): the list ``first_part_sums(ell, t)`` hands out.
    Totals that run no sum keep what the list held.

    The top two shifts below the last one, R, are read off b, since
    ``Z_R(t) = a_R [t = 0]``: ``Z_{R-1}(t) = a_{R-1} [t = 0] + a_R b_t``,
    whose kept list is ``[0] * k + [a_R b_t]``, and, with ``m + m' = t``,
    ``Z_{R-2}(t) = a_R sum b_m b_m' + a_{R-1} b_t``, each mirrored product formed once.
    A kept list's masses are those products (none unless t = 2 mod d), first half, middle
    square, reversed half, then ``a_{R-1} b_t``, with zeros for any missing products.
    """
    r = len(a)
    support = [ell for ell in range(r) if a[ell]]
    s = support[0] % d if support else 0
    if any((ell - s) % d for ell in support):
        raise DomainError(f"count weights must lie on one residue class mod {d}, got support {support}")
    z: List[List[int]] = [[0] * (T + 1) for _ in range(r)]
    for ell in range(s, r, d):
        z[ell][0] = a[ell]
    R = r - 1
    bs: List[int] = []  # b_1, b_{1+d}, ..., up to the current total
    cs: List[int] = []  # a_R b_1, a_R b_{1+d}, ...
    for t in range(1, T + 1):
        bt = z[0][t - 1] if b is None else b(t)
        if (t - 1) % d:
            if bt:
                raise DomainError(f"part weights must vanish off 1 mod {d} (b_{t} != 0)")
        else:
            bs.append(bt)
            cs.append(a[R] * bt)
        low = (s - t) % d  # the least shift of this total's class
        for ell in range(low, R - 2, d):
            masses = map(mul, bs, z[ell + 1][t - 1::-d])
            if ell < len(sums):
                sums[ell][t] = running = cut_running_sums(list(accumulate(masses)))
                z[ell][t] = running[-1]
            else:
                z[ell][t] = sum(masses)
        if R >= 1 and (R - 1 - low) % d == 0:
            last = z[R - 1][t] = a[R] * bt
            if R - 1 < len(sums):
                sums[R - 1][t] = [0] * (len(bs) - 1) + [last] if last else [0]
        if R >= 2 and (R - 2 - low) % d == 0:
            J, off = divmod(t - 2, d)  # b_m b_m' with m + m' = t pairs b_{1+jd} with b_{1+(J-j)d}
            half = [] if off else list(map(mul, bs[:(J + 1) // 2], cs[J:J // 2:-1]))
            middle = [] if off or J % 2 else [bs[J // 2] * cs[J // 2]]
            if R - 2 < len(sums):
                products = repeat(0, len(bs) - 1) if off else chain(half, middle, reversed(half))
                sums[R - 2][t] = running = cut_running_sums(list(accumulate(chain(products, [a[R - 1] * bt]))))
                z[R - 2][t] = running[-1]
            else:
                z[R - 2][t] = 2 * sum(half) + sum(middle) + a[R - 1] * bt
    return z


def cut_running_sums(running: List[int]) -> List[int]:
    """Running sums cut at the last point with mass, or ``[0]`` for none: a kept list's shape."""
    while len(running) > 1 and running[-2] == running[-1]:
        running.pop()
    return running or [0]


def cleared(values: Sequence[Fraction]) -> Tuple[int, List[int]]:
    """The least common denominator ``L`` of exact rationals and the integers ``L * v``."""
    scale = math.lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


Pairs = Dict[int, Tuple[int, int]]

# Shifts whose running sums the peel keeps for tables that a chain builds for its own walk.  A walk
# compiles almost every row at shifts 0 and 1 and fewer beyond: at n = 600, seed 3, 598 and 552 of the
# 599 rows for w = 1,3,3,1, and 598, 595, 580, 145, 15 and 11 at shifts 0 to 5 for w = 1 x 8, where
# keeping every shift took peak RSS from 101 to 181 MB (grow --out) for no time gained.
KEPT_SHIFTS = 2


class StepRow(dict):
    """The move probabilities of one step law, ``m -> (num, den)`` unreduced, each stored on first read.

    Keeps the running sums ``cl`` and ``ch`` of both laws' masses, which end
    at their totals ``zl`` and ``zh``; the mass of support point m is
    ``cl[m] - cl[m-1]``.  The row at total ``t + d`` takes ``ch`` as its
    ``cl``.  Once the interleaving inequalities hold, the pair of support
    point m is ``(cl[m] zh - ch[m] zl, low_m zh)``, exactly the pair
    ``move_rows`` returns; the dict holds the pairs read so far, and a read
    off the support raises ``KeyError`` and stores nothing.  ``pair(m)``
    forms the pair without storing it.  ``ymax`` and ``bmax`` are the ratio
    maxima that certified the row, which the row at total ``t + d`` extends.
    """

    __slots__ = ("cl", "ch", "ymax", "bmax")

    def __init__(self, cl: List[int], ch: List[int], ymax: Tuple[int, int], bmax: Tuple[int, int]):
        self.cl, self.ch, self.ymax, self.bmax = cl, ch, ymax, bmax

    def __missing__(self, m: int) -> Tuple[int, int]:
        pair = self[m] = self.pair(m)
        return pair

    def pair(self, m: int) -> Tuple[int, int]:
        cl, ch = self.cl, self.ch
        mass = m in range(len(cl)) and cl[m] - (cl[m - 1] if m else 0)
        if not mass:
            raise KeyError(m)
        zl, zh = cl[-1], ch[-1]
        return cl[m] * zh - ch[m] * zl, mass * zh


class PartitionKernel:
    """Partition values of a pair and all its shifts, plus the step coupling.

    Subclasses keep the partition values as Python ints after clearing
    denominators once: count weights ``a -> A a`` and part weights
    ``b_m -> D^m b_m``, so that ``_z[ell][t] = A D^t Z_ell(t)`` and
    ``_b[m] = D^m b_m``, for totals up to ``total_horizon``, and define
    ``partition_value``.  Every first-part law is a ratio of values at one
    total, whose common scale ``A D^t`` cancels, so laws and move
    probabilities are computed from integers alone.  This base class owns
    the bounds-checked integer accessor and derives first-part laws, the
    monotone one-step move probabilities, the exact law of one move and
    the sampling walk shared by every chain in the package.  ``r`` is the
    largest index with a non-zero count weight: the shift ladder ends there.

    Tables built with ``keep_sums`` have the peel keep the running sums of
    the shifts below ``KEPT_SHIFTS`` in ``_sums``, which ``first_part_sums``
    hands out; the sums of every other shift are formed on each call.
    ``_decisions`` maps each ``(shift, total, part)`` the walk has read to
    its decision (see ``decision``).
    """

    def __init__(self, d: int, r: int, a_scale: int, b_scale: int, total_horizon: int, keep_sums: bool):
        self.d = d
        self.r = r
        self.a_scale = a_scale
        self.b_scale = b_scale
        self.total_horizon = total_horizon
        self._z: List[List[int]] = []
        self._b: List[int] = []
        self._sums: List[List[Optional[List[int]]]] = \
            [[None] * (total_horizon + 1) for _ in range(KEPT_SHIFTS)] if keep_sums else []
        self._step_memo: Dict[Tuple[int, int], StepRow] = {}
        self._decisions: Dict[Tuple[int, int, int], Tuple[int, int, Optional[int]]] = {}
        self.truncation: Optional[int] = None

    def max_a_index(self) -> int:
        return self.r

    def partition_int(self, ell: int, t: int) -> int:
        """``A D^t Z_ell(t)``, bounds-checked like ``partition_value``.

        A value that reads a weight past ``truncation``, the declared
        horizon of tree weights, raises ``HorizonError``.
        """
        if ell < 0 or t < 0:
            raise DomainError("partition values need a non-negative shift and total")
        if t > self.total_horizon:
            raise HorizonError(f"partition value at total {t} beyond horizon {self.total_horizon}")
        if self.truncation is not None and ell + t > self.truncation:
            raise HorizonError(f"w_{ell + t} requested beyond declared truncation horizon {self.truncation}")
        return self._z[ell][t] if ell <= self.r else 0

    def scale(self, t: int) -> int:
        """The factor ``A D^t`` between the integer and the exact partition values at total t."""
        return self.a_scale * self.b_scale ** t

    def first_part_sums(self, ell: int, t: int) -> List[int]:
        """Running sums ``C_0, ..., C_top`` of the law of (first part - 1)/d at shift ``ell``, total ``t``.

        The mass of first part m is ``b_m Z_{ell+1}(t - m)`` at the common
        scale of ``Z_ell(t)``.  The sums stop at the last point with mass,
        so ``C_top`` is ``Z_ell(t)`` at that scale.  A list the peel kept is
        handed out itself, shared with the tables and every row that reads
        it: it is not to be changed.
        """
        if t < 1:
            raise DomainError("first-part laws need a positive total")
        z = self.partition_int(ell, t)
        if z == 0:
            raise ZeroMassError(f"no mass at total {t} for shift {ell}")
        if ell < len(self._sums):
            return self._sums[ell][t]
        # z != 0 at t >= 1 puts ell + 1 on the shift ladder, and every read below inside the bounds
        nxt, b, d = self._z[ell + 1], self._b, self.d
        return cut_running_sums(list(accumulate(map(mul, b[1:t + 1:d], nxt[t - 1::-d]))))

    def step_probs(self, ell: int, t: int) -> StepRow:
        """Probability that the reindexed first part increments between totals t and t+d.

        Maps each support point of the law at total t to an integer pair
        ``(num, den)`` with value ``num/den``, not reduced, formed on first
        read.  Derived from the coupling that feeds one shared uniform
        through both inverse cumulative functions; requires the
        interleaving inequalities between the two laws, otherwise
        NotCoupleable is raised with the failing support point.

        With ``Y = Z_{ell+1}`` and ``s = t - 1 - m d``, the inequalities at
        m read ``Y(s+d)/Y(s) <= zh/zl`` and, where ``Y(s) > 0``,
        ``b_{(m+1)d+1}/b_{md+1} <= zh/zl``.  The row checks the running
        maximum of each ratio against ``zh/zl`` by one cross-multiplication,
        extending the maxima of the row at ``t - d`` when it was compiled.
        When a maximum exceeds the bound (the b maximum may also count
        points with ``Y(s) = 0``), ``move_rows`` decides the row exactly.
        """
        row = self._step_memo.get((ell, t))
        if row is None:
            d = self.d
            prev = self._step_memo.get((ell, t - d))
            cl = self.first_part_sums(ell, t) if prev is None else prev.ch
            ch = self.first_part_sums(ell, t + d)
            zl, zh = cl[-1], ch[-1]
            # b > 0 on 1 mod d, so Y is zero below s = t - 1 - top d in this residue class,
            # and the upper law has no mass beyond top + 1
            top = len(cl) - 1
            if prev is None:
                (yp, yq), (bp, bq), s0, m0 = (0, 1), (0, 1), t - 1 - top * d, 0
            else:
                (yp, yq), (bp, bq), s0, m0 = prev.ymax, prev.bmax, t - 1, top
            y, b = self._z[ell + 1], self._b
            for s in range(s0, t, d):
                # Y(s) = 0 < Y(s+d) is the infinite ratio (p, 0); 0/0 never wins
                if y[s + d] * yq > yp * y[s]:
                    yp, yq = y[s + d], y[s]
            for i in range(m0 * d + 1, top * d + 2, d):
                if b[i + d] * bq > bp * b[i]:
                    bp, bq = b[i + d], b[i]
            if yp * zl > yq * zh or bp * zl > bq * zh:
                move_rows(cl, ch)  # raises NotCoupleable unless the b bound was loose
            row = self._step_memo[ell, t] = StepRow(cl, ch, (yp, yq), (bp, bq))
        return row

    def kernel_row(self, t: int, parts: Sequence[int]) -> Dict[Tuple, Tuple[int, int]]:
        """Exact law of the move that ``sample_move`` draws from these parts at total t.

        Read off one walk of ``sample_move`` that records and declines each
        decision: decision j is the step probability ``q_j`` of part j, which
        moves with probability ``stay * q_j``, ``stay`` being the probability
        that no earlier part moved; the move the walk ends at takes what is
        left.  Only moves with mass appear, each as the unreduced pair
        ``(num, den)`` that multiplies the ``factors`` of the walk to it.
        """
        asked: List[Tuple[int, int]] = []
        last = self.sample_move(t, parts, _decline, asked, [])
        row: Dict[Tuple, Tuple[int, int]] = {}
        sn = sd = 1  # the pair of stay
        for j, (qn, qd) in enumerate(asked):
            if qn:
                row[("inc", j)] = (sn * qn, sd * qd)
                sn, sd = sn * (qd - qn), sd * qd
        row[last] = (sn, sd)
        return row

    def decision(self, key: Tuple[int, int, int]) -> Tuple[int, int, Optional[int]]:
        """The decision ``(qn, qd, cut)`` of a part at a shift and remaining total, ``key = (ell, t, part)``.

        ``(qn, qd)`` is the part's step-row pair (``StepRow.pair``, not stored in the row), ``cut`` is
        ``(qn << 32) // qd`` when ``0 < qn < qd``, else None; kept in ``_decisions``.  A part off the
        row's support is refused and stores nothing.
        """
        ell, t, part = key
        try:
            qn, qd = self.step_probs(ell, t).pair((part - 1) // self.d)
        except KeyError:
            raise DomainError(f"part {part} carries no mass at total {t}, shift {ell}") from None
        entry = self._decisions[key] = qn, qd, (qn << CHUNK) // qd if 0 < qn < qd else None
        return entry

    def sample_move(self, t: int, parts: Sequence[int], decide, rng, factors: List[Tuple[int, int]]) -> Tuple:
        """Walk the peeling recursion once and return the move.

        The move is ``("inc", j)`` to increment part j by d, or
        ``("append", len(parts))`` to append d parts equal to 1.  Part j
        moves if ``decide(rng, num, den)`` says so, asked wherever its step
        probability ``num/den`` (not reduced) is below 1.  The pair of each
        decision that was not certain is appended to ``factors``; their
        product is the probability of the move.  Parts that do not sum to
        t, or a part off its step row's support, are refused.

        The chains pass ``decide=None``: a part then moves when one 32-bit
        chunk ``bits`` of ``rng`` is below the cut ``c = (num << 32) // den`` of
        its ``decision``, stays when above, and asks ``LazyUniform(rng, bits,
        32)`` at ``bits = c``.  So does ``bernoulli``, from the same chunks:
        ``(bits+1) den <= num 2^32`` holds exactly when ``bits < c``, and
        ``bits den >= num 2^32`` when ``bits > c``, or at ``bits = c`` when
        ``den`` divides ``num 2^32``, where that ``LazyUniform`` says no at once.
        """
        if sum(parts) != t:
            raise DomainError("parts do not sum to the stated total")
        r, decisions = self.r, self._decisions
        j, remaining = 0, t
        for part in parts:
            if r - j <= 1:
                # beyond this shift only single-part compositions carry mass
                if j != len(parts) - 1:
                    raise DomainError(f"parts {tuple(parts)} carry no mass past shift {j}")
                return ("inc", j)
            key = j, remaining, part
            qn, qd, cut = decisions.get(key) or self.decision(key)
            if qn == qd:
                return ("inc", j)
            if decide is not None:
                moves = decide(rng, qn, qd)
            elif cut is None:
                moves = False
            else:
                bits = rng.getrandbits(CHUNK)
                moves = bits < cut or bits == cut and LazyUniform(rng, bits, CHUNK).is_below(qn, qd)
            if moves:
                factors.append((qn, qd))
                return ("inc", j)
            if qn:
                factors.append((qd - qn, qd))
            remaining -= part
            j += 1
        return ("append", j)


def _decline(asked: List[Tuple[int, int]], num: int, den: int) -> None:
    asked.append((num, den))  # the decide of kernel_row: it records each decision, and None says no


def move_rows(cl: Sequence[int], ch: Sequence[int]) -> Pairs:
    """Move probabilities of the shared-uniform coupling of two step laws, as integer pairs.

    ``cl`` and ``ch`` are the running sums of the integer masses of the two
    laws on 0, 1, ..., each ending at its total ``zl`` or ``zh`` (the
    support of the upper law extends one point further right).  Verifies
    the interleaving inequalities high(m) <= low(m) >= high(m+1) by
    cross-multiplying, and returns, for every m in the support of the lower
    law, the conditional probability that the coupled pair moves from m to
    m+1: ``max(0, CL_m zh - max(CL_{m-1} zh, CH_m zl)) / (low_m zh)``.
    """
    zl, zh = cl[-1], ch[-1]
    top = len(cl) - 1
    rows: Pairs = {}
    upper = [*ch[:top + 2], *repeat(zh, top + 2 - len(ch))]  # CH_0, ..., CH_{top+1}
    below_low = below_high = 0  # CL_{m-1} and CH_{m-1}
    for m in range(top + 1):
        low_m = (cl[m] - below_low) * zh
        if (upper[m] - below_high) * zl > low_m or (upper[m + 1] - upper[m]) * zl > low_m:
            raise NotCoupleable(m)
        if low_m:
            overlap = cl[m] * zh - max(below_low * zh, upper[m] * zl)
            rows[m] = (overlap if overlap > 0 else 0, low_m)
        below_low, below_high = cl[m], upper[m]
    for m in range(top + 2, len(ch)):
        if ch[m] != ch[m - 1]:
            raise NotCoupleable(m, f"upper law reaches {m}, beyond the lower support {top}")
    return rows


class PairTables(PartitionKernel):
    """Integer partition values for a generic weight pair, from the peeling recursion."""

    def __init__(self, wp: WeightPair, cls: ArithClass = PLAIN, total_horizon: Optional[int] = None,
                 _keep_sums: bool = False):
        wp.check_nondegenerate(cls)
        n = wp.b.horizon if total_horizon is None else total_horizon
        if n > wp.b.horizon:
            raise HorizonError(f"pair tables to total {n} need b up to {n}, have {wp.b.horizon}")
        r = wp.a.radius
        a_scale, a = cleared(wp.a.entries[:r + 1])
        b_scale, b = cleared(wp.b.entries[1:n + 1])
        super().__init__(cls.d, r, a_scale, b_scale, n, _keep_sums)
        self.wp = wp
        self.cls = cls
        self._b = [0] + [bm * b_scale ** (m - 1) for m, bm in enumerate(b, 1)]  # D^m b_m
        self._z = peel_partition_values(a, n, self._b.__getitem__, cls.d, self._sums)

    def partition_value(self, ell: int, t: int) -> Fraction:
        return Fraction(self.partition_int(ell, t), self.scale(t))


class CheckReport(Record):
    """Outcome of an exact verification suite: a count and a failure list."""

    __slots__ = ("name", "checked", "failures")

    def __init__(self, name: str, checked: int = 0, failures: Optional[List[dict]] = None):
        self.name = name
        self.checked = checked
        self.failures = [] if failures is None else failures

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, ok: bool, **context):
        self.checked += 1
        if not ok:
            self.failures.append({k: (str(v) if isinstance(v, Fraction) else v) for k, v in context.items()})

    def as_dict(self):
        return {"name": self.name, "checked": self.checked, "ok": self.ok, "failures": self.failures}


def check_ratio_chain(tables: PartitionKernel, n_max: int) -> CheckReport:
    """Verify the descending chain of shifted partition ratios and its endpoints.

    For each level n <= n_max the ratios ``Z_ell((n+1)d - s) / Z_ell(nd - s)``
    at the shifts ``ell = qd + s``, read along the shift ladder, must be
    non-increasing.  The first may not exceed ``b_{(n+1)d+1} / b_{nd+1}``,
    the ratio of part weights one level up; the last equals the ratio one
    level down, because at the last shift only single-part compositions
    carry mass.  Every side is a quotient of table integers times the
    common factor ``D^-d``, so each check is one cross-multiplication, and
    only a failure forms the exact values of both sides.  The ratios are
    read off each shift's row of the tables, in the order and with the
    refusals of ``partition_int``: a read past the declared truncation of
    the weights raises ``HorizonError`` before the ratio is formed.
    """
    report = CheckReport(name="ratio-chain")
    d, b, truncation, failures = tables.d, tables._b, tables.truncation, report.failures
    scale = tables.b_scale ** d
    if (n_max + 1) * d + 1 >= len(b):
        raise HorizonError(f"the ratio chain to n={n_max} reads b_{(n_max + 1) * d + 1}, past the tables")

    def side(p: int, q: int) -> str:
        return str(Fraction(p, q * scale))   # the pair (p, q) stands for p / (q D^d)

    r = tables.r // d
    ladder = [(q, s, q * d + s, tables._z[q * d + s]) for s in range(d) for q in range(r)]   # ladder[:r]: s = 0
    for n in range(n_max + 1):
        shifts = ladder if n >= 1 else ladder[:r]
        report.checked += len(shifts) + (n >= 1)
        hi = None
        for q, s, ell, row in shifts:
            t = (n + 1) * d - s
            if truncation is not None and ell + t > truncation:
                raise HorizonError(f"w_{ell + t} requested beyond declared truncation horizon {truncation}")
            num, den = row[t], row[t - d]
            if den == 0:
                raise ZeroMassError(f"vanishing partition value at n={n}, shift ({q},{s})")
            if hi is None:
                first = num, den
            elif hp * den < num * hq:
                failures.append({"n": n, "hi": hi, "lo": (q, s), "lhs": side(hp, hq), "rhs": side(num, den)})
            hi, hp, hq = (q, s), num, den
        up, here = b[(n + 1) * d + 1], b[n * d + 1]
        if first[0] * here > up * first[1]:
            failures.append({"n": n, "kind": "upper-endpoint", "lhs": side(*first), "rhs": side(up, here)})
        if n >= 1:
            down = b[(n - 1) * d + 1]
            if hp * down != here * hq:
                failures.append({"n": n, "kind": "lower-endpoint", "lhs": side(hp, hq), "rhs": side(here, down)})
    return report


def check_admissibility_inequalities(wp: WeightPair, cls: ArithClass = PLAIN, N: int = 10) -> CheckReport:
    """Verify the ratio inequalities that make the pair's chain coupleable, for levels n <= N.

    Pairs whose count weights stop at index 1 (d = 1) only grow
    single-part compositions: the chain is forced and no inequality is
    involved, so the report holds no checks.
    """
    wp.check_nondegenerate(cls)
    d = cls.d
    if cls.s != 0:
        raise DomainError("admissibility checks start from the class (d, 0)")
    if d == 1 and wp.a.radius <= 1:
        return CheckReport(name="ratio-chain")
    total_horizon = (N + 1) * d + 1
    if total_horizon > wp.b.horizon:
        raise HorizonError(
            f"checking up to n={N} needs b up to {total_horizon}, have {wp.b.horizon}")
    tables = PairTables(wp, cls, total_horizon=total_horizon)
    return check_ratio_chain(tables, N)


def apply_move(c: Composition, move: Tuple, d: int) -> Composition:
    kind, j = move
    if kind == "inc":
        return c[:j] + (c[j] + d,) + c[j + 1:]
    if kind == "append":
        return c + (1,) * d
    raise DomainError(f"unknown move {move!r}")


def sample_composition_chain(wp: WeightPair, cls: ArithClass, N: int, rng,
                             tables: Optional[PairTables] = None) -> List[Composition]:
    """Sample a covering chain of compositions up to total N, one step per d.

    Deterministic given the rng stream.  The chain starts at the unique
    composition of total s (the empty one when s = 0).  Pass precomputed
    ``tables`` when sampling many chains from the same pair.  Tables,
    built or supplied, that stop before the last total the chain reaches
    are refused before any draw.
    """
    d, s = cls.d, cls.s
    if N < s:
        raise DomainError("horizon below the starting total")
    last = N - (N - s) % d
    if tables is None:
        tables = PairTables(wp, cls, total_horizon=last, _keep_sums=True)
    elif tables.wp != wp or tables.cls != cls:
        raise DomainError("supplied tables were built for another weight pair or class")
    elif tables.total_horizon < last:
        raise HorizonError(f"the chain to total {N} reaches total {last}, "
                           f"past the tables' horizon {tables.total_horizon}")
    c: Composition = (1,) * s
    total = s
    out = [c]
    while total + d <= N:
        move = tables.sample_move(total, c, None, rng, [])
        c = apply_move(c, move, d)
        total += d
        out.append(c)
    return out
