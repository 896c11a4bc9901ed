"""Brute-force enumerators, reference laws and the statistical harness.

Everything here is computed from first principles: laws come from raw
product formulas normalized by their own sums, never from the recursions
used by the production modules, so agreement between the two is a real
check.  Chi-square p-values are the only floating-point numbers in the
package; total-variation distances stay exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .compositions import (ONE, PLAIN, ZERO, ArithClass, Composition, WeightPair, as_fraction,
                           iter_compositions)
from .errors import DomainError, HorizonError, ZeroMassError
from .sgtrees import coerce_weights
from .subtree_model import coerce_theta
from .treespace import PlaneTree, ROOT, RootedSubtree, compose_root

PLANE_TREE_CAP = 10
SUBTREE_CAP = 7
SUBTREE_POSITION_CAP = 3

_plane_cache: Dict[Tuple[int, int], Tuple[PlaneTree, ...]] = {}
_subtree_cache: Dict[Tuple[int, Tuple[int, ...]], Tuple[RootedSubtree, ...]] = {}


def _catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def enumerate_plane_trees(n: int, d: int = 1, max_n: Optional[int] = None) -> List[PlaneTree]:
    """All plane trees with n vertices, every degree a multiple of d, in canonical order.

    Counts grow like Catalan numbers, so sizes beyond the cap are refused
    with an estimate instead of silently melting the machine.
    """
    if n < 1:
        raise DomainError("trees have at least one vertex")
    cap = PLANE_TREE_CAP if max_n is None else max_n
    if n > cap:
        estimate = _catalan((n - 1) // d) if (n - 1) % d == 0 else 0
        raise HorizonError(f"enumerating size {n} exceeds the cap {cap} (roughly {estimate} trees)")
    if (n - 1) % d != 0:
        return []
    return list(_plane_trees(n, d))


def _plane_trees(n: int, d: int) -> Tuple[PlaneTree, ...]:
    key = (n, d)
    cached = _plane_cache.get(key)
    if cached is not None:
        return cached
    if n == 1:
        out: Tuple[PlaneTree, ...] = (PlaneTree([ROOT]),)
    else:
        trees: List[PlaneTree] = []
        for degree in range(d, n, d):
            for parts in _sized_compositions(n - 1, degree, d):
                for subtrees in _forest_choices(parts, d):
                    trees.append(compose_root(subtrees))
        out = tuple(sorted(trees, key=lambda t: sorted(t.vertices)))
    _plane_cache[key] = out
    return out


def _sized_compositions(total: int, parts: int, d: int):
    """Compositions of ``total`` into ``parts`` parts, each congruent to 1 mod d."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    first = 1
    while first <= total - (parts - 1):
        if first % d == 1 % d:
            for rest in _sized_compositions(total - first, parts - 1, d):
                yield (first,) + rest
        first += d
    return


def _forest_choices(parts: Sequence[int], d: int):
    if not parts:
        yield ()
        return
    for head in _plane_trees(parts[0], d):
        for tail in _forest_choices(parts[1:], d):
            yield (head,) + tail


def enumerate_subtrees(n: int, dmax: Optional[int] = None,
                       positions: Optional[Iterable[int]] = None,
                       max_n: Optional[int] = None) -> List[RootedSubtree]:
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
    cap = SUBTREE_CAP if max_n is None else max_n
    if n > cap or (max_n is None and len(pos) > SUBTREE_POSITION_CAP):
        raise HorizonError(
            f"enumerating subtrees of size {n} over {len(pos)} positions exceeds the default caps")
    return list(_subtrees(n, pos))


def _subtrees(n: int, pos: Tuple[int, ...]) -> Tuple[RootedSubtree, ...]:
    key = (n, pos)
    cached = _subtree_cache.get(key)
    if cached is not None:
        return cached
    if n == 1:
        out: Tuple[RootedSubtree, ...] = (RootedSubtree([ROOT]),)
    else:
        found: List[RootedSubtree] = []
        import itertools
        for k in range(1, min(len(pos), n - 1) + 1):
            for chosen in itertools.combinations(pos, k):
                for parts in _any_compositions(n - 1, k):
                    for subtrees in _subtree_choices(parts, pos):
                        vertices = [ROOT]
                        for position, sub in zip(chosen, subtrees):
                            vertices.extend((position,) + u for u in sub.vertices)
                        found.append(RootedSubtree(vertices))
        out = tuple(sorted(found, key=lambda t: sorted(t.vertices)))
    _subtree_cache[key] = out
    return out


def _any_compositions(total: int, parts: int):
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(1, total - parts + 2):
        for rest in _any_compositions(total - first, parts - 1):
            yield (first,) + rest


def _subtree_choices(parts: Sequence[int], pos: Tuple[int, ...]):
    if not parts:
        yield ()
        return
    for head in _subtrees(parts[0], pos):
        for tail in _subtree_choices(parts[1:], pos):
            yield (head,) + tail


# ---------------------------------------------------------------------------
# reference laws straight from the product formulas


def _normalized(masses: Dict) -> Dict:
    total = sum(masses.values())
    if total == 0:
        raise ZeroMassError("all enumerated states have zero mass")
    return {key: m / total for key, m in masses.items() if m != 0}


def sg_law(w, d: int, n: int, max_n: Optional[int] = None) -> Dict[PlaneTree, Fraction]:
    """Size-n tree law from raw weight products (independent of any recursion)."""
    w = coerce_weights(w)
    masses = {}
    for tree in enumerate_plane_trees(n, d, max_n=max_n):
        mass = ONE
        for u in tree.vertices:
            mass *= w[tree.children_count(u)]
            if mass == 0:
                break
        if mass:
            masses[tree] = mass
    return _normalized(masses)


def st_law(theta, n: int, max_n: Optional[int] = None) -> Dict[RootedSubtree, Fraction]:
    """Size-n subtree law from raw type-weight products."""
    theta = coerce_theta(theta)
    masses = {}
    for tau in enumerate_subtrees(n, positions=theta.support, max_n=max_n):
        mass = ONE
        for u in tau.vertices:
            if u:
                mass *= theta.value(u[-1])
        if mass:
            masses[tau] = mass
    return _normalized(masses)


def comp_law(wp: WeightPair, n: int, cls: ArithClass = PLAIN) -> Dict[Composition, Fraction]:
    """Composition law from raw products; a part weight past the horizon of ``wp.b`` raises HorizonError."""
    masses = {}
    for c in iter_compositions(n, cls if cls.d > 1 else None):
        mass = wp.a_at(len(c))
        for p in c:
            if not mass:
                break
            mass *= wp.b[p]
        if mass:
            masses[c] = mass
    return _normalized(masses)


def subset_law(theta, k: int) -> Dict[frozenset, Fraction]:
    """k-subset law from raw products."""
    import itertools
    theta = coerce_theta(theta)
    if k < 0 or k > theta.n_support:
        raise ZeroMassError(f"no {k}-subsets available")
    masses = {}
    for combo in itertools.combinations(theta.support, k):
        mass = ONE
        for i in combo:
            mass *= theta.value(i)
        masses[frozenset(combo)] = mass
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


@dataclass
class InterchangeReport:
    ok: bool
    states_checked: int
    first_discrepancy: Optional[dict] = None

    def as_dict(self):
        return {"ok": self.ok, "states_checked": self.states_checked,
                "first_discrepancy": self.first_discrepancy}


def kernel_interchange_check(row_fn: Callable, law_lo: Mapping, law_hi: Mapping) -> InterchangeReport:
    """Verify that pushing the lower law through the kernel gives the upper law exactly."""
    pushed: Dict[object, Fraction] = {}
    for state, mass in law_lo.items():
        for target, p in row_fn(state).items():
            pushed[target] = pushed.get(target, ZERO) + mass * p
    keys = set(pushed) | set(law_hi.keys())
    for key in sorted(keys, key=repr):
        got = pushed.get(key, ZERO)
        want = law_hi.get(key, ZERO)
        if got != want:
            return InterchangeReport(False, len(keys), {
                "state": repr(key), "pushed": str(got), "target": str(want)})
    return InterchangeReport(True, len(keys))


@dataclass
class GofReport:
    """Chi-square and exact total-variation comparison of counts against a law."""

    sample_size: int
    categories: int
    chi_square: Optional[float]
    dof: Optional[int]
    p_value: Optional[float]
    tv: Fraction
    undersampled: bool

    def as_dict(self):
        return {"sample_size": self.sample_size, "categories": self.categories,
                "chi_square": self.chi_square, "dof": self.dof, "p_value": self.p_value,
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


def goodness_of_fit(counts: Mapping, law: Mapping, min_expected_factor: int = 5) -> GofReport:
    """Chi-square test of counts against an exact law, plus the exact TV distance.

    When the sample is too small for the chi-square approximation (fewer
    than ``min_expected_factor`` samples per category) only the TV
    distance is reported and the undersampled flag is set.  Mass observed
    outside the law's support makes the test fail outright.
    """
    total = sum(counts.values())
    categories = len(law)
    tv = tv_distance(counts, total, law) if total > 0 else ONE
    undersampled = total < min_expected_factor * categories
    if undersampled:
        return GofReport(total, categories, None, None, None, tv, True)
    outside = sum(c for key, c in counts.items() if key not in law)
    if outside:
        return GofReport(total, categories, float("inf"), categories - 1, 0.0, tv, False)
    from scipy.stats import chi2

    stat = 0.0
    for key, mass in law.items():
        expected = float(mass) * total
        observed = counts.get(key, 0)
        stat += (observed - expected) ** 2 / expected
    dof = categories - 1
    p_value = float(chi2.sf(stat, dof))
    return GofReport(total, categories, stat, dof, p_value, tv, False)
