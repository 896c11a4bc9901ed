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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ._rand import bernoulli
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


@dataclass(frozen=True)
class ArithClass:
    """Residue data (d, s): parts are 1 mod d and the part count is s mod d."""

    d: int = 1
    s: int = 0

    def __post_init__(self):
        if self.d < 1:
            raise DomainError("d must be >= 1")
        if not 0 <= self.s < self.d:
            raise DomainError("s must lie in {0, ..., d-1}")


PLAIN = ArithClass(1, 0)


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


class BSequence:
    """Part weights ``b_1, ..., b_H`` up to a declared horizon ``H``.

    Asking for an index beyond the horizon fails loudly rather than
    silently returning a wrong value.
    """

    __slots__ = ("_values", "horizon")

    def __init__(self, values: Iterable):
        self._values = tuple(as_fraction(v) for v in values)
        self.horizon = len(self._values)

    def __getitem__(self, m: int) -> Fraction:
        if m < 1:
            raise DomainError(f"b is indexed from 1, got {m}")
        if m > self.horizon:
            raise HorizonError(f"b_{m} requested beyond declared horizon {self.horizon}")
        return self._values[m - 1]

    def values(self) -> Tuple[Fraction, ...]:
        return self._values

    def __eq__(self, other):
        return isinstance(other, BSequence) and self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        return f"BSequence({list(self._values)!r})"


class WeightPair:
    """A pair of count weights ``a`` (indexed from 0) and part weights ``b``."""

    __slots__ = ("a", "b")

    def __init__(self, a: Iterable, b):
        self.a = tuple(as_fraction(v) for v in a)
        self.b = b if isinstance(b, BSequence) else BSequence(b)
        if any(v < 0 for v in self.a):
            raise DomainError("count weights must be non-negative")
        if any(v < 0 for v in self.b.values()):
            raise DomainError("part weights must be non-negative")

    def a_at(self, i: int) -> Fraction:
        return self.a[i] if 0 <= i < len(self.a) else ZERO

    @property
    def a_support(self) -> List[int]:
        return [i for i, v in enumerate(self.a) if v != 0]

    @property
    def max_a_index(self) -> int:
        support = self.a_support
        if not support:
            raise DomainError("count weights are identically zero")
        return support[-1]

    def check_nondegenerate(self, cls: ArithClass = PLAIN):
        """Raise unless the pair is non-degenerate for the given class."""
        support = self.a_support
        if not support:
            raise DomainError("degenerate weight pair: a is identically zero")
        d, s = cls.d, cls.s
        if self.a_at(s) == 0:
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
        return f"WeightPair(a={list(self.a)!r}, b={self.b!r})"


def shift(wp: WeightPair, ell: int, cls: ArithClass = PLAIN) -> WeightPair:
    """Drop the first ``ell`` count weights, keeping the part weights.

    Fails if the shifted pair is degenerate for the correspondingly
    shifted arithmetic class.
    """
    if ell < 0:
        raise DomainError("shift must be non-negative")
    if ell == 0:
        return wp
    shifted = WeightPair(wp.a[ell:], wp.b)
    new_cls = ArithClass(cls.d, (cls.s - ell) % cls.d)
    shifted.check_nondegenerate(new_cls)
    return shifted


def peel_partition_values(a: Sequence[int], T: int,
                          b: Optional[Callable[[int], int]] = None) -> List[List[int]]:
    """Partition values ``z[ell][t] = Z_ell(t)`` of every shift of ``a``, for totals t <= T.

    Peeling off the first part gives
    ``Z_ell(t) = a_ell [t = 0] + sum_{m : b_m != 0} b_m Z_{ell+1}(t - m)``,
    with ``Z_ell = 0`` past the last entry of ``a``.  ``b(m)`` is read once,
    when the loop reaches total m; without it the part weights are the tree
    masses ``b_m = Z_0(m - 1)``, known by then.  The tables pass integer
    weights, so the recursion never leaves Python ints.
    """
    r = len(a)
    z: List[List[int]] = [[] for _ in range(r)]
    parts: List[Tuple[int, int]] = []
    for t in range(T + 1):
        if t:
            bt = z[0][t - 1] if b is None else b(t)
            if bt:
                parts.append((t, bt))
        for ell in range(r):
            acc = a[ell] if t == 0 else 0
            if ell + 1 < r:
                nxt = z[ell + 1]
                for m, bm in parts:
                    v = nxt[t - m]
                    if v:
                        acc += bm * v
            z[ell].append(acc)
    return z


def cleared(values: Sequence[Fraction]) -> Tuple[int, List[int]]:
    """The least common denominator ``L`` of exact rationals and the integers ``L * v``."""
    scale = math.lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


StepRow = Dict[int, Tuple[int, int]]


class PartitionKernel:
    """Partition values of a pair and all its shifts, plus the step coupling.

    Subclasses keep the partition values as Python ints after clearing
    denominators once: count weights ``a -> A a`` and part weights
    ``b_m -> D^m b_m``, so that ``_z[ell][t] = A D^t Z_ell(t)`` and
    ``_b[m] = D^m b_m``, for totals up to ``total_horizon``, and define
    ``b_weight`` and ``partition_value``.  Every first-part law is a ratio
    of values at one total, whose common scale ``A D^t`` cancels, so laws
    and move probabilities are computed from integers alone.  This base
    class owns the bounds-checked integer accessor and derives first-part
    laws, the monotone one-step move probabilities, the exact law of one
    move and the sampling walk shared by every chain in the package.
    ``r`` is the largest index with a non-zero count weight: the shift
    ladder ends there.
    """

    def __init__(self, d: int, r: int, a_scale: int, b_scale: int, total_horizon: int):
        self.d = d
        self.r = r
        self.a_scale = a_scale
        self.b_scale = b_scale
        self.total_horizon = total_horizon
        self._z: List[List[int]] = []
        self._b: List[int] = []
        self._step_memo: Dict[Tuple[int, int], StepRow] = {}

    def max_a_index(self) -> int:
        return self.r

    def partition_int(self, ell: int, t: int) -> int:
        """``A D^t Z_ell(t)``, bounds-checked like ``partition_value``."""
        if ell < 0 or t < 0:
            raise DomainError("partition values need a non-negative shift and total")
        if t > self.total_horizon:
            raise HorizonError(f"partition value at total {t} beyond horizon {self.total_horizon}")
        return self._z[ell][t] if ell <= self.r else 0

    def scale(self, t: int) -> int:
        """The factor ``A D^t`` between the integer and the exact partition values at total t."""
        return self.a_scale * self.b_scale ** t

    def ratio(self, n: int, q: int, s: int) -> Fraction:
        """Partition ratio of the (q*d+s)-shifted weights between adjacent levels."""
        d = self.d
        num = self.partition_int(q * d + s, n * d + (d - s))
        den = self.partition_int(q * d + s, (n - 1) * d + (d - s))
        if den == 0:
            raise ZeroMassError(f"vanishing partition value at n={n}, shift ({q},{s})")
        return Fraction(num, den * self.b_scale ** d)

    def first_part_masses(self, ell: int, t: int) -> Tuple[Dict[int, int], int]:
        """Integer masses of (first part - 1)/d at shift ``ell`` and total ``t``, and their total.

        The mass of first part m is ``b_m Z_{ell+1}(t - m)`` at the common
        scale of ``Z_ell(t)``, which is the total; zero masses are left out.
        """
        if t < 1:
            raise DomainError("first-part laws need a positive total")
        z = self.partition_int(ell, t)
        if z == 0:
            raise ZeroMassError(f"no mass at total {t} for shift {ell}")
        # z != 0 at t >= 1 puts ell + 1 on the shift ladder, and every read below inside the bounds
        nxt, b, d = self._z[ell + 1], self._b, self.d
        masses: Dict[int, int] = {}
        for mt in range((t - 1) // d + 1):
            m = mt * d + 1
            mass = b[m] * nxt[t - m]
            if mass:
                masses[mt] = mass
        return masses, z

    def step_probs(self, ell: int, t: int) -> StepRow:
        """Probability that the reindexed first part increments between totals t and t+d.

        Maps each support point of the law at total t to an integer pair
        ``(num, den)`` with value ``num/den``, not reduced.  Derived from the
        coupling that feeds one shared uniform through both inverse
        cumulative functions; requires the interleaving inequalities
        between the two laws, otherwise NotCoupleable is raised with the
        failing support point.
        """
        key = (ell, t)
        row = self._step_memo.get(key)
        if row is None:
            low, zl = self.first_part_masses(ell, t)
            high, zh = self.first_part_masses(ell, t + self.d)
            row = self._step_memo[key] = move_rows(low, zl, high, zh)
        return row

    def kernel_row(self, t: int, parts: Sequence[int]) -> Dict[Tuple, Fraction]:
        """Exact law of the move that ``sample_move`` draws from these parts at total t.

        Part j is incremented with probability ``stay * q_j``, where ``q_j``
        is its step probability at shift j and ``stay`` the probability that
        no earlier part moved; the append move takes what is left.  Moves
        are keyed as in ``sample_move``, and only moves with mass appear.
        """
        if sum(parts) != t:
            raise DomainError("parts do not sum to the stated total")
        row: Dict[Tuple, Fraction] = {}
        stay = ONE
        remaining = t
        for j, part in enumerate(parts):
            if self.r - j <= 1:
                # beyond this shift only single-part compositions carry mass
                if j != len(parts) - 1:
                    raise DomainError(f"parts {tuple(parts)} carry no mass past shift {j}")
                row[("inc", j)] = stay
                return row
            steps = self.step_probs(j, remaining)
            mt = (part - 1) // self.d
            if mt not in steps:
                raise DomainError(f"part {part} carries no mass at total {remaining}, shift {j}")
            q = Fraction(*steps[mt])
            if q:
                row[("inc", j)] = stay * q
            stay *= 1 - q
            if not stay:
                return row
            remaining -= part
        row[("append", len(parts))] = stay
        return row

    def sample_move(self, t: int, parts: Sequence[int], rng) -> Tuple[Tuple, int, int]:
        """Walk the peeling recursion once; returns (move, num, den).

        The move is ``("inc", j)`` to increment part j by d, or
        ``("append", len(parts))`` to append d parts equal to 1; it was
        chosen with probability ``num/den`` (not reduced).
        """
        d = self.d
        j = 0
        num = den = 1
        remaining = t
        while True:
            if j == len(parts):
                if remaining != 0:
                    raise DomainError("parts do not sum to the stated total")
                return ("append", j), num, den
            if self.r - j <= 1:
                if j != len(parts) - 1:
                    raise DomainError(f"state off support at shift {j}")
                return ("inc", j), num, den
            mt = (parts[j] - 1) // d
            qn, qd = self.step_probs(j, remaining).get(mt, (0, 1))
            if qn == qd:
                return ("inc", j), num, den
            if qn:
                if bernoulli(rng, qn, qd):
                    return ("inc", j), num * qn, den * qd
                num *= qd - qn
                den *= qd
            remaining -= parts[j]
            j += 1


def move_rows(low: Dict[int, int], zl: int, high: Dict[int, int], zh: int) -> StepRow:
    """Move probabilities of the shared-uniform coupling of two step laws, as integer pairs.

    The laws are ``low[m]/zl`` and ``high[m]/zh`` on consecutive integer
    ranges (the support of ``high`` extends one point further right).
    Verifies the interleaving inequalities high(m) <= low(m) >= high(m+1)
    by cross-multiplying, and returns, for every m in the support of
    ``low``, the conditional probability that the coupled pair moves from
    m to m+1: with running sums ``CL``, ``CH`` it is
    ``max(0, CL_m zh - max(CL_{m-1} zh, CH_m zl)) / (low[m] zh)``.
    """
    top = max(low) if low else -1
    rows: StepRow = {}
    cum_low = cum_high = 0  # CL_m zh and CH_m zl
    high_next = high.get(0, 0) * zl
    for m in range(0, top + 1):
        high_m, high_next = high_next, high.get(m + 1, 0) * zl
        mass = low.get(m, 0)
        low_m = mass * zh
        if high_m > low_m or high_next > low_m:
            raise NotCoupleable(m)
        cum_high += high_m
        if not mass:
            continue
        below = cum_low
        cum_low += low_m
        overlap = cum_low - max(below, cum_high)
        rows[m] = (overlap if overlap > 0 else 0, low_m)
    for m in high:
        if m > top + 1:
            raise NotCoupleable(m, f"upper law reaches {m}, beyond the lower support {top}")
    return rows


class PairTables(PartitionKernel):
    """Integer partition values for a generic weight pair, from the peeling recursion."""

    def __init__(self, wp: WeightPair, cls: ArithClass = PLAIN, total_horizon: Optional[int] = None):
        wp.check_nondegenerate(cls)
        n = wp.b.horizon if total_horizon is None else total_horizon
        if n > wp.b.horizon:
            raise HorizonError(f"pair tables to total {n} need b up to {n}, have {wp.b.horizon}")
        r = wp.max_a_index
        a_scale, a = cleared(wp.a[:r + 1])
        b_scale, b = cleared([wp.b[m] for m in range(1, n + 1)])
        super().__init__(cls.d, r, a_scale, b_scale, n)
        self.wp = wp
        self.cls = cls
        self._b = [0] + [bm * b_scale ** (m - 1) for m, bm in enumerate(b, 1)]  # D^m b_m
        self._z = peel_partition_values(a, n, self._b.__getitem__)

    def b_weight(self, m: int) -> Fraction:
        return self.wp.b[m]

    def partition_value(self, ell: int, t: int) -> Fraction:
        return Fraction(self.partition_int(ell, t), self.scale(t))


def composition_kernel(tables: PairTables, c: Composition) -> Dict[Composition, Fraction]:
    """Exact one-step law on compositions of ``sum(c) + d`` given the current composition c.

    The tables must reach total ``sum(c) + d``; share one ``PairTables``
    across the rows of a pair.
    """
    cls = tables.cls
    if not satisfies_arith(c, cls):
        raise DomainError(f"composition {c} violates the (d={cls.d}, s={cls.s}) condition")
    return {apply_move(c, move, tables.d): p for move, p in tables.kernel_row(sum(c), c).items()}


@dataclass
class CheckReport:
    """Outcome of an exact verification suite: a count and a failure list."""

    name: str
    checked: int = 0
    failures: List[dict] = field(default_factory=list)

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

    For each level n <= n_max the ratios ``tables.ratio(n, q, s)``, read
    along the shift ladder, must be non-increasing.  The first may not
    exceed the ratio of consecutive part weights one level up; the last
    equals the ratio one level down, because at the last shift only
    single-part compositions carry mass.  Failures carry the exact values
    of both sides.
    """
    report = CheckReport(name="ratio-chain")
    d = tables.d
    r = tables.r // d
    b = tables.b_weight
    for n in range(0, n_max + 1):
        grid = [(q, s) for s in range(d) for q in range(r)] if n >= 1 else [(q, 0) for q in range(r)]
        values = [(q, s, tables.ratio(n, q, s)) for q, s in grid]
        for (q1, s1, v1), (q2, s2, v2) in zip(values, values[1:]):
            report.record(v1 >= v2, n=n, hi=(q1, s1), lo=(q2, s2), lhs=v1, rhs=v2)
        upper = b((n + 1) * d + 1) / b(n * d + 1)
        report.record(values[0][2] <= upper, n=n, kind="upper-endpoint", lhs=values[0][2], rhs=upper)
        if n >= 1:
            lower = b(n * d + 1) / b((n - 1) * d + 1)
            report.record(values[-1][2] == lower, n=n, kind="lower-endpoint", lhs=values[-1][2], rhs=lower)
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
    if d == 1 and wp.max_a_index <= 1:
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
    ``tables`` when sampling many chains from the same pair.
    """
    d, s = cls.d, cls.s
    if N < s:
        raise DomainError("horizon below the starting total")
    if tables is None:
        tables = PairTables(wp, cls, total_horizon=min(wp.b.horizon, N + d))
    elif tables.wp != wp or tables.cls != cls:
        raise DomainError("supplied tables were built for another weight pair or class")
    c: Composition = (1,) * s
    total = s
    out = [c]
    while total + d <= N:
        move = tables.sample_move(total, c, rng)[0]
        c = apply_move(c, move, d)
        total += d
        out.append(c)
    return out
