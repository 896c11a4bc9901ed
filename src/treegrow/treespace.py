"""Ulam-Harris words, plane trees and rooted subtrees.

Every tree in this package is a finite set of words of positive integers;
the empty word is the root.  A *plane tree* is closed under taking parents
and left siblings, so the children of a vertex occupy positions 1..k
exactly.  A *rooted subtree* is closed under taking parents only, so
children may sit at arbitrary positions.

Both containers are immutable value types: they hash and compare by their
vertex set and are safe to share between threads.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, Iterator, List, Mapping, Sequence, Set, Tuple

from .errors import DomainError, ParseError

Word = Tuple[int, ...]

ROOT: Word = ()


def word_to_text(u: Word) -> str:
    """Render a word, the root as ``e`` and e.g. ``(1, 2)`` as ``1.2``."""
    return "e" if not u else ".".join(str(i) for i in u)


def word_from_text(text: str) -> Word:
    text = text.strip()
    if not text:
        raise ParseError("empty word")
    if text == "e":
        return ROOT
    letters = []
    for token in text.split("."):
        try:
            value = int(token)
        except ValueError:
            raise ParseError(f"malformed word {text!r}: bad letter {token!r}") from None
        if value < 1:
            raise ParseError(f"malformed word {text!r}: letters must be positive")
        letters.append(value)
    return tuple(letters)


def _checked_vertices(vertices: Iterable[Word]) -> frozenset:
    vs = set()
    for u in vertices:
        word = tuple(u)
        for letter in word:
            if not isinstance(letter, int) or letter < 1:
                raise DomainError(f"invalid word {word!r}: letters must be positive integers")
        vs.add(word)
    if ROOT not in vs:
        raise DomainError("a tree must contain the root (empty word)")
    return frozenset(vs)


class _WordSet:
    """Common storage and behaviour of plane trees and rooted subtrees."""

    __slots__ = ("_vertices", "_kids")

    kind = "tree"

    def __init__(self, vertices: Iterable[Word]):
        vs = _checked_vertices(vertices)
        kids: Dict[Word, int] = {u: 0 for u in vs}
        for u in vs:
            if u:
                p = u[:-1]
                if p not in vs:
                    raise DomainError(f"{self.kind} not closed under parents: {word_to_text(u)} present, parent missing")
                kids[p] += 1
        self._vertices = vs
        self._kids = kids
        self._validate()

    def _validate(self):
        pass

    @property
    def vertices(self) -> frozenset:
        return self._vertices

    def sorted_vertices(self) -> List[Word]:
        """Vertices in canonical order: lexicographic, prefixes first."""
        return sorted(self._vertices)

    def children_count(self, u: Word) -> int:
        u = tuple(u)
        if u not in self._vertices:
            raise DomainError(f"vertex {word_to_text(u)} is not in the {self.kind}")
        return self._kids[u]

    def children_positions(self, u: Word) -> Tuple[int, ...]:
        u = tuple(u)
        if u not in self._vertices:
            raise DomainError(f"vertex {word_to_text(u)} is not in the {self.kind}")
        return tuple(sorted(v[-1] for v in self._vertices if len(v) == len(u) + 1 and v[:-1] == u))

    def leaves(self) -> List[Word]:
        return [u for u, k in self._kids.items() if k == 0]

    def __len__(self) -> int:
        return len(self._vertices)

    def __iter__(self) -> Iterator[Word]:
        return iter(self.sorted_vertices())

    def __contains__(self, u) -> bool:
        return tuple(u) in self._vertices

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._vertices == other._vertices

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._vertices))

    def __repr__(self):
        return f"{type(self).__name__}({format_tree(self)!r})"


class RootedSubtree(_WordSet):
    """A finite parent-closed set of Ulam-Harris words."""

    kind = "rooted subtree"


class PlaneTree(_WordSet):
    """A finite parent- and left-sibling-closed set of Ulam-Harris words."""

    kind = "plane tree"

    def _validate(self):
        for u in self._vertices:
            if u and u[-1] > 1:
                sibling = u[:-1] + (u[-1] - 1,)
                if sibling not in self._vertices:
                    raise DomainError(
                        f"plane tree not closed under left siblings: {word_to_text(u)} present, "
                        f"{word_to_text(sibling)} missing"
                    )


def children_count(tree: _WordSet, u: Word) -> int:
    """Number of children of ``u`` in the tree; ``u`` must be a vertex."""
    return tree.children_count(u)


def is_right_leaning_leaf_addition(tree: PlaneTree, bigger: PlaneTree) -> bool:
    """True iff ``bigger`` is ``tree`` plus one new rightmost child of some vertex."""
    return is_bouquet_addition(tree, bigger, 1)


def is_bouquet_addition(tree: PlaneTree, bigger: PlaneTree, d: int) -> bool:
    """True iff ``bigger`` is ``tree`` plus d new rightmost sibling leaves at one vertex."""
    if d < 1:
        raise DomainError("d must be a positive integer")
    small, big = tree.vertices, bigger.vertices
    return small < big and adds_bouquet(tree._kids, big - small, d)


def adds_bouquet(kids: Mapping[Word, int], added: Set[Word], d: int) -> bool:
    """True iff the words ``added`` are d new rightmost sibling leaves of one vertex.

    ``kids`` maps every vertex of a plane tree to its number of children,
    and ``added`` holds words outside that tree.  With ``d = 1`` this is a
    right-leaning leaf addition.
    """
    if len(added) != d:
        return False
    parents = {u[:-1] for u in added if u}
    if len(parents) != 1:
        return False
    (v,) = parents
    k = kids.get(v)
    return k is not None and {u[-1] for u in added} == set(range(k + 1, k + d + 1))


def decompose_root(tree: PlaneTree) -> Tuple[List[PlaneTree], Tuple[int, ...]]:
    """Split a plane tree at the root.

    Returns the ordered list of subtrees hanging from the root's children
    (re-rooted at the empty word) together with the composition of their
    sizes, which sums to ``len(tree) - 1``.
    """
    k = tree.children_count(ROOT)
    buckets: List[List[Word]] = [[] for _ in range(k)]
    for u in tree.vertices:
        if u:
            buckets[u[0] - 1].append(u[1:])
    subtrees = [PlaneTree(b) for b in buckets]
    return subtrees, tuple(len(b) for b in buckets)


def compose_root(subtrees: Sequence[PlaneTree]) -> PlaneTree:
    """Inverse of :func:`decompose_root`: graft the given trees below a new root."""
    vertices = [ROOT]
    for j, sub in enumerate(subtrees, start=1):
        vertices.extend((j,) + u for u in sub.vertices)
    return PlaneTree(vertices)


def complete_d_ary(tau: RootedSubtree, d: int) -> PlaneTree:
    """Complete a subtree of the d-ary tree by giving every vertex d children.

    Every letter of ``tau`` must be at most ``d``; the result has
    ``d * len(tau) + 1`` vertices and every vertex has d or 0 children.
    """
    if d < 1:
        raise DomainError("d must be a positive integer")
    for u in tau.vertices:
        if u and u[-1] > d:
            raise DomainError(f"vertex {word_to_text(u)} has a letter larger than d={d}")
    vertices = set(tau.vertices)
    for u in tau.vertices:
        vertices.update(u + (i,) for i in range(1, d + 1))
    tree = PlaneTree(vertices)
    assert len(tree) == d * len(tau) + 1
    return tree


def format_tree(tree: _WordSet) -> str:
    """Comma-separated canonical word list, e.g. ``e,1,2,1.1``."""
    return ",".join(word_to_text(u) for u in tree.sorted_vertices())


class GrowingText:
    """The canonical text of a growing word set, kept up to date one word at a time.

    ``str()`` equals :func:`format_tree` of the words added so far.  Words
    stay sorted as tuples, which is not the order of their texts: ``(2,)``
    comes before ``(10,)``, while ``"10"`` sorts before ``"2"``.
    """

    __slots__ = ("_words", "_texts")

    def __init__(self):
        self._words: List[Word] = [ROOT]
        self._texts: List[str] = ["e"]

    def add(self, u: Word):
        """Insert a word that is not present yet."""
        i = bisect_left(self._words, u)
        self._words.insert(i, u)
        self._texts.insert(i, word_to_text(u))

    def __str__(self) -> str:
        return ",".join(self._texts)


def parse_tree(text: str, kind: str = "plane"):
    """Parse the word-list format into a :class:`PlaneTree` or :class:`RootedSubtree`.

    Closure violations are reported as parse errors naming the offending
    word.
    """
    if kind not in ("plane", "subtree"):
        raise DomainError(f"unknown tree kind {kind!r}")
    tokens = [t for t in text.split(",") if t.strip()]
    if not tokens:
        raise ParseError("empty tree text")
    words = [word_from_text(t) for t in tokens]
    cls = PlaneTree if kind == "plane" else RootedSubtree
    try:
        return cls(words)
    except DomainError as exc:
        raise ParseError(str(exc)) from None


def to_dot(tree: _WordSet, name: str = "tree") -> str:
    """GraphViz rendering: one node per word, edges parent -> child in position order."""
    lines = [f"digraph {name} {{"]
    order = tree.sorted_vertices()
    for u in order:
        lines.append(f'  "{word_to_text(u)}";')
    for u in order:
        if u:
            lines.append(f'  "{word_to_text(u[:-1])}" -> "{word_to_text(u)}";')
    lines.append("}")
    return "\n".join(lines)
