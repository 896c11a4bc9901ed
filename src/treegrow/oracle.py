"""Brute-force enumerators, reference laws and the statistical harness.

Everything here is computed from first principles: laws come from raw
product formulas normalized by their own sums, never from the recursions
used by the production modules, so agreement between the two is a real
check.  The products run on cleared integer weights, so every state of
one size carries the same scale: a law is integer masses, each divided
once by their integer total.  Chi-square p-values are the only
floating-point numbers in the package; total-variation distances stay
exact.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from .compositions import ONE, ZERO, ArithClass, Record, as_fraction, cleared, coerce_weights, iter_compositions
from .errors import DomainError, HorizonError, ZeroMassError
from .sgtrees import add_spliced
from .subtree_model import coerce_theta
from .treespace import CountWord, PlaneTree, ROOT, RootedSubtree, from_child_count_word

PLANE_TREE_CAP = 10
SUBTREE_CAP = 7
SUBTREE_POSITION_CAP = 3
MIN_SAMPLES_PER_CATEGORY = 5


def _catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def enumerate_plane_trees(n: int, d: int = 1) -> List[PlaneTree]:
    """All plane trees with n vertices, every degree a multiple of d, in canonical order.

    The trees are the child-count words of ``_plane_words``, each built
    and then sorted: canonical order is not the order of the words.
    Counts grow like Catalan numbers, so sizes beyond the cap are refused
    with an estimate instead of silently melting the machine.
    """
    _check_plane_tree_size(n, d)
    return sorted(map(from_child_count_word, _plane_words(n, d, None)), key=PlaneTree.sorted_vertices)


def _check_plane_tree_size(n: int, d: int):
    if n < 1:
        raise DomainError("trees have at least one vertex")
    if d < 1:
        raise DomainError("d must be >= 1")
    if n > PLANE_TREE_CAP:
        estimate = _catalan((n - 1) // d) if (n - 1) % d == 0 else 0
        raise HorizonError(f"enumerating size {n} exceeds the cap {PLANE_TREE_CAP} (roughly {estimate} trees)")


@functools.lru_cache(maxsize=None)
def _plane_words(n: int, d: int, degree: Optional[int]) -> Tuple[CountWord, ...]:
    """The child-count words of the size-n trees with every degree a multiple of d and none above ``degree``.

    ``degree`` None bounds nothing, and a bound of n - 1 or more reads the
    unbounded entry.  The root's children have the sizes of a composition
    of n - 1 in class (d, 0), so each word is the root's count followed by
    one word per child, concatenated: ``(k,) + L_1 + ... + L_k``.
    """
    if degree is not None and degree >= n - 1:
        return _plane_words(n, d, None)
    if n == 1:
        return ((0,),)
    words: List[CountWord] = []
    for parts in iter_compositions(n - 1, ArithClass(d, 0)):
        if degree is None or len(parts) <= degree:
            heads = [(len(parts),)]
            for part in parts:
                heads = [head + word for head in heads for word in _plane_words(part, d, degree)]
            words += heads
    return tuple(words)


def enumerate_subtrees(n: int, dmax: Optional[int] = None,
                       positions: Optional[Iterable[int]] = None) -> List[RootedSubtree]:
    """All rooted subtrees with n vertices whose letters come from the given positions."""
    if n < 1:
        raise DomainError("subtrees have at least one vertex")
    if positions is None:
        if dmax is None:
            raise DomainError("pass dmax or an explicit position set")
        positions = range(1, dmax + 1)
    pos = tuple(sorted(set(int(p) for p in positions)))
    if any(p < 1 for p in pos):
        raise DomainError("positions must be positive")
    if n > SUBTREE_CAP:
        raise HorizonError(f"enumerating subtrees of size {n} exceeds the cap {SUBTREE_CAP}")
    if len(pos) > SUBTREE_POSITION_CAP:
        raise HorizonError(f"enumerating subtrees over {len(pos)} positions exceeds the cap {SUBTREE_POSITION_CAP}")
    return list(_subtrees(n, pos))


@functools.lru_cache(maxsize=None)
def _subtrees(n: int, pos: Tuple[int, ...]) -> Tuple[RootedSubtree, ...]:
    """Children sizes come from the compositions of n - 1 with at most ``len(pos)`` parts."""
    if n == 1:
        return (RootedSubtree([ROOT]),)
    found: List[RootedSubtree] = []
    for parts in iter_compositions(n - 1):
        if len(parts) > len(pos):
            continue
        forests = list(itertools.product(*(_subtrees(p, pos) for p in parts)))
        for chosen in itertools.combinations(pos, len(parts)):
            for subtrees in forests:
                vertices = [ROOT]
                for position, sub in zip(chosen, subtrees):
                    vertices.extend((position,) + u for u in sub.vertices)
                found.append(RootedSubtree(vertices))
    return tuple(sorted(found, key=lambda t: sorted(t.vertices)))


# ---------------------------------------------------------------------------
# reference laws straight from the product formulas


def _normalized(masses: Dict[object, int]) -> Dict:
    """Integer masses, all at one scale, divided once each by their total."""
    total = sum(masses.values())
    if total == 0:
        raise ZeroMassError("all enumerated states have zero mass")
    return {key: Fraction(m, total) for key, m in masses.items() if m != 0}


def cleared_weights(w, n: int) -> Tuple[int, List[int]]:
    """``L`` and the integers ``L w_k`` for the child counts k < n of an n-vertex tree.

    ``L`` clears the denominators of ``w``.
    """
    scale, entries = cleared(coerce_weights(w).entries)
    return scale, (entries + [0] * n)[:n]


def sg_word_masses(w, d: int, n: int) -> Dict[CountWord, int]:
    """The child-count words of the size-n trees with mass, each with its raw weight product.

    The products run on the integers of ``cleared_weights``, so every tree
    carries the scale ``L^n``.  A tree with a degree above the radius of
    ``w`` has no mass, so only trees within it are enumerated, in the
    order of ``_plane_words``.  The star reads ``w_{n-1}``, the highest
    weight any tree of size n reads, so it is read first: past a declared
    horizon it fails as ``w`` does.
    """
    w = coerce_weights(w)
    _check_plane_tree_size(n, d)
    if (n - 1) % d == 0:
        w[n - 1]  # past the declared horizon: raises HorizonError
    _, ints = cleared_weights(w, n)
    masses = {}
    for word in _plane_words(n, d, w.radius):
        mass = math.prod(map(ints.__getitem__, word))
        if mass:
            masses[word] = mass
    return masses


def sg_masses(w, d: int, n: int) -> Dict[PlaneTree, int]:
    """``sg_word_masses`` keyed by the trees, in canonical order."""
    trees = [(from_child_count_word(word), mass) for word, mass in sg_word_masses(w, d, n).items()]
    return dict(sorted(trees, key=lambda pair: pair[0].sorted_vertices()))


def sg_law(w, d: int, n: int) -> Dict[PlaneTree, Fraction]:
    """Size-n tree law from raw weight products (independent of any recursion): ``sg_masses`` normalized."""
    return _normalized(sg_masses(w, d, n))


def st_law(theta, n: int) -> Dict[RootedSubtree, Fraction]:
    """Size-n subtree law from raw type-weight products, at the scale ``L^(n-1)``."""
    theta = coerce_theta(theta)
    _, ints = cleared([theta.value(i) for i in theta.support])
    weight = dict(zip(theta.support, ints))
    masses = {}
    for tau in enumerate_subtrees(n, positions=theta.support):
        mass = 1
        for u in tau.vertices:
            if u:
                mass *= weight[u[-1]]
        masses[tau] = mass
    return _normalized(masses)


def subset_law(theta, k: int) -> Dict[frozenset, Fraction]:
    """k-subset law from raw products, at the scale ``L^k``."""
    theta = coerce_theta(theta)
    if k < 0 or k > theta.n_support:
        raise ZeroMassError(f"no {k}-subsets available")
    _, ints = cleared([theta.value(i) for i in theta.support])
    masses = {}
    for combo in itertools.combinations(range(theta.n_support), k):
        mass = 1
        for i in combo:
            mass *= ints[i]
        masses[frozenset(theta.support[i] for i in combo)] = mass
    return _normalized(masses)


def janson_expectations(eps) -> Tuple[Fraction, Fraction]:
    """Expected root degree at sizes 3 and 4 for the symmetric three-point offspring law.

    The offspring law puts mass (1-eps)/2 on 0 and 2 and eps on 1; the two
    expectations are computed by full enumeration.  Their strict ordering
    flips exactly at eps = 1/3, which is the obstruction to growing these
    conditioned trees one leaf at a time.
    """
    eps = as_fraction(eps)
    if not 0 < eps < 1:
        raise DomainError("eps must lie strictly between 0 and 1")
    w = [(1 - eps) / 2, eps, (1 - eps) / 2]

    def expectation(n):
        law = sg_law(w, 1, n)
        return sum(mass * tree.children_count(ROOT) for tree, mass in law.items())

    return expectation(3), expectation(4)


# ---------------------------------------------------------------------------
# kernel interchange and goodness of fit


class InterchangeReport(Record):
    """Outcome of one kernel interchange check: its verdict, its count and the first mismatch."""

    __slots__ = ("ok", "states_checked", "first_discrepancy")

    def __init__(self, ok: bool, states_checked: int, first_discrepancy: Optional[dict] = None):
        self.ok = ok
        self.states_checked = states_checked
        self.first_discrepancy = first_discrepancy

    def as_dict(self):
        return {"ok": self.ok, "states_checked": self.states_checked,
                "first_discrepancy": self.first_discrepancy}


def kernel_interchange_check(row_fn: Callable, masses_lo: Mapping, masses_hi: Mapping) -> InterchangeReport:
    """Verify that pushing the lower tree law through the kernel gives the upper law exactly.

    Trees are their child-count words.  ``masses_lo`` and ``masses_hi`` map
    the words of the lower and the upper size to their masses, as
    ``sg_word_masses`` returns them; the masses of one map share one
    scale, so each law is its masses divided by their total, ``Z_lo`` or
    ``Z_hi``.  ``row_fn(word)`` maps the words of its targets to unreduced
    integer pairs ``(num, den)``, as ``growth_word_row`` does.  The masses
    pushed to a target add up as an unreduced pair ``(N, D)`` (see
    ``add_spliced``), and the target passes when ``N Z_hi == m D Z_lo``, m
    its own mass.  A row function with a ``push`` method, as
    ``growth_kernel``'s, adds each word's row times its mass straight into
    the sums itself.  The first discrepancy reported is the mismatching
    tree with the least ``repr``, with both probabilities as Fractions;
    only the mismatching words are built as trees.
    """
    z_lo, z_hi = sum(masses_lo.values()), sum(masses_hi.values())
    if not z_lo or not z_hi:
        raise ZeroMassError("the lower or the upper states carry no mass")
    push = getattr(row_fn, "push", None) or (lambda word, mass, acc: add_spliced(acc, (), (), row_fn(word), mass, 1))
    pushed: Dict[CountWord, Tuple[int, int]] = {}
    for word, mass in masses_lo.items():
        push(word, mass, pushed)
    unreached = masses_hi.keys() - pushed.keys()  # pushed nothing: they match when they carry no mass
    bad = [key for key, (num, den) in pushed.items() if num * z_hi != masses_hi.get(key, 0) * den * z_lo]
    bad += [key for key in unreached if masses_hi[key]]
    checked = len(pushed) + len(unreached)
    if not bad:
        return InterchangeReport(True, checked)
    first, key = min(((from_child_count_word(key), key) for key in bad), key=lambda pair: repr(pair[0]))
    num, den = pushed.get(key, (0, 1))
    return InterchangeReport(False, checked, {
        "state": repr(first), "pushed": str(Fraction(num, den * z_lo)),
        "target": str(Fraction(masses_hi.get(key, 0), z_hi))})


class GofReport(Record):
    """Chi-square and exact total-variation comparison of counts against a law."""

    __slots__ = ("sample_size", "categories", "chi_square", "dof", "p_value", "tv", "undersampled")

    def __init__(self, sample_size: int, categories: int, chi_square: Optional[float], dof: Optional[int],
                 p_value: Optional[float], tv: Fraction, undersampled: bool):
        self.sample_size = sample_size
        self.categories = categories
        self.chi_square = chi_square
        self.dof = dof
        self.p_value = p_value
        self.tv = tv
        self.undersampled = undersampled

    def as_dict(self):
        return {"sample_size": self.sample_size, "categories": self.categories,
                "chi_square": "inf" if self.chi_square == float("inf") else self.chi_square,
                "dof": self.dof, "p_value": self.p_value,
                "tv": str(self.tv), "undersampled": self.undersampled}


def tv_distance(counts: Mapping, total: int, law: Mapping) -> Fraction:
    """Exact total-variation distance between empirical frequencies and a law."""
    if total <= 0:
        raise DomainError("need a positive sample size")
    keys = set(counts) | set(law)
    acc = ZERO
    for key in keys:
        emp = Fraction(counts.get(key, 0), total)
        diff = emp - law.get(key, ZERO)
        acc += diff if diff >= 0 else -diff
    return acc / 2


def goodness_of_fit(counts: Mapping, law: Mapping) -> GofReport:
    """Chi-square test of counts against an exact law, plus the exact TV distance.

    When the sample is too small for the chi-square approximation (fewer
    than ``MIN_SAMPLES_PER_CATEGORY`` samples per category) only the TV
    distance is reported and the undersampled flag is set.  Mass observed
    outside the law's support makes the test fail outright.
    """
    total = sum(counts.values())
    categories = len(law)
    tv = tv_distance(counts, total, law) if total > 0 else ONE
    undersampled = total < MIN_SAMPLES_PER_CATEGORY * categories
    if undersampled:
        return GofReport(total, categories, None, None, None, tv, True)
    outside = sum(c for key, c in counts.items() if key not in law)
    if outside:
        return GofReport(total, categories, float("inf"), categories - 1, 0.0, tv, False)
    stat = 0.0
    for key, mass in law.items():
        expected = float(mass) * total
        observed = counts.get(key, 0)
        stat += (observed - expected) ** 2 / expected
    dof = categories - 1
    # one category leaves nothing to test: every sample inside the support fits
    p_value = _chi2_tail(stat, dof) if dof else 1.0
    return GofReport(total, categories, stat, dof, p_value, tv, False)


def _chi2_tail(x: float, k: int) -> float:
    """``P(X > x)`` for X chi-square with integer k >= 1 degrees of freedom.

    The closed forms of Abramowitz & Stegun 26.4.4-26.4.5, with h = x/2:
    ``e^-h sum_{j<k/2} h^j / j!`` for even k, and
    ``erfc(sqrt h) + e^-h sum_{j<(k-1)/2} h^(j+1/2) / Gamma(j+3/2)`` for odd k.
    Each term is formed in log space, so none overflows, and a tail past
    the range of floats underflows to 0.0.
    """
    h = x / 2
    if h <= 0:  # x <= 0, or x so small that its half underflows: the tail rounds to 1
        return 1.0
    log_h = math.log(h)
    offset = 0.0 if k % 2 == 0 else 0.5
    terms = [math.exp(-h + (j + offset) * log_h - math.lgamma(j + offset + 1)) for j in range(k // 2)]
    if k % 2:
        terms.append(math.erfc(math.sqrt(h)))
    return min(1.0, math.fsum(terms))  # the rounded terms of a tail near 1 can sum past 1
